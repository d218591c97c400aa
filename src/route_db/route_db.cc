#include "src/route_db/route_db.h"

#include <algorithm>
#include <charconv>
#include <optional>
#include <span>

namespace pathalias {
namespace {

std::optional<Cost> ParseCost(std::string_view text) {
  Cost value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

// Splits `line` at its tabs into `fields`; returns the field count, which may exceed
// the three fields stored.
size_t SplitTabs(std::string_view line, std::string_view (&fields)[3]) {
  size_t count = 0;
  size_t start = 0;
  for (;;) {
    size_t tab = line.find('\t', start);
    std::string_view field = line.substr(start, tab == std::string_view::npos
                                                    ? std::string_view::npos
                                                    : tab - start);
    if (count < 3) {
      fields[count] = field;
    }
    ++count;
    if (tab == std::string_view::npos) {
      return count;
    }
    start = tab + 1;
  }
}

}  // namespace

RouteSet::RouteSet(const NameInterner& ids) {
  // An eighth of headroom, as FromText allows, for the names the update adds.
  names_.Reserve(ids.size() + ids.size() / 8);
  for (NameId id = 0; id < ids.size(); ++id) {
    names_.Intern(ids.View(id));
  }
}

void RouteSet::Add(std::string_view name, std::string_view route, Cost cost) {
  AddPrehashed(name, names_.HashOf(name), route, cost);
}

void RouteSet::AddPrehashed(std::string_view name, uint64_t hash, std::string_view route,
                            Cost cost) {
  NameId id = names_.Intern(name, hash);
  if (by_name_.size() < names_.size()) {
    by_name_.resize(names_.size(), 0);
  }
  uint32_t& slot = by_name_[id];
  if (slot != 0) {
    routes_[slot - 1].route = std::string(route);
    routes_[slot - 1].cost = cost;
    return;
  }
  routes_.push_back(Route{id, std::string(route), cost});
  slot = static_cast<uint32_t>(routes_.size());
}

RouteSet RouteSet::FromEntries(const std::vector<RouteEntry>& entries) {
  RouteSet set;
  for (const RouteEntry& entry : entries) {
    set.Add(entry.name, entry.route, entry.cost);
  }
  return set;
}

RouteSet RouteSet::FromText(std::string_view text, Diagnostics* diag) {
  RouteSet set;
  // One route per line, and each key's domain-suffix chain adds a few names more (under
  // 1% on the usenet-scale maps): an eighth over the line count spares the interner its
  // growth rehashes.
  const size_t lines = static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  set.names_.Reserve(lines + lines / 8);
  set.routes_.reserve(lines);

  // In pathalias output every key is new, so each intern misses on a random slot of
  // a table far larger than the cache (about 11 MB for 1M routes); hashing and
  // prefetching a window of lines ahead overlaps those misses.  Warnings wait for
  // the adds, so they come out in line order.
  struct Line {
    int number = 0;
    const char* warning = nullptr;  // set: the line is skipped with this warning
    std::string_view name;
    std::string_view route;
    Cost cost = -1;
    uint64_t hash = 0;
  };
  constexpr size_t kWindow = 16;
  Line window[kWindow];
  int line_number = 0;
  size_t start = 0;
  while (start < text.size()) {
    size_t count = 0;
    while (count < kWindow && start < text.size()) {
      size_t end = text.find('\n', start);
      if (end == std::string_view::npos) {
        end = text.size();
      }
      std::string_view line = text.substr(start, end - start);
      start = end + 1;
      ++line_number;
      if (line.empty() || line[0] == '#') {
        continue;
      }
      Line& parsed = window[count++];
      parsed = Line{};
      parsed.number = line_number;
      std::string_view fields[3];
      size_t field_count = SplitTabs(line, fields);
      if (field_count == 2) {
        parsed.name = fields[0];
        parsed.route = fields[1];
      } else if (field_count == 3) {
        std::optional<Cost> cost = ParseCost(fields[0]);
        if (!cost) {
          parsed.warning = "malformed cost column; line skipped";
          continue;
        }
        parsed.name = fields[1];
        parsed.route = fields[2];
        parsed.cost = *cost;
      } else {
        parsed.warning = "malformed route line skipped";
        continue;
      }
      parsed.hash = set.names_.HashOf(parsed.name);
      if (set.names_.can_probe()) {
        set.names_.PrefetchSlot(set.names_.BeginProbe(parsed.hash));
      }
    }
    for (const Line& parsed : std::span(window, count)) {
      if (parsed.warning == nullptr) {
        set.AddPrehashed(parsed.name, parsed.hash, parsed.route, parsed.cost);
      } else if (diag != nullptr) {
        diag->Warn(SourcePos{"<routes>", parsed.number}, parsed.warning);
      }
    }
  }
  return set;
}

std::string RouteSet::ToText(bool include_costs) const {
  std::string out;
  for (const Route& route : routes_) {
    if (include_costs) {
      out += std::to_string(route.cost);
      out += '\t';
    }
    out += NameOf(route);
    out += '\t';
    out += route.route;
    out += '\n';
  }
  return out;
}

std::string RouteSet::ToSortedText(bool include_costs) const {
  std::vector<uint32_t> order(routes_.size());
  for (uint32_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return NameOf(routes_[a]) < NameOf(routes_[b]);
  });
  std::string out;
  for (uint32_t index : order) {
    const Route& route = routes_[index];
    if (include_costs) {
      out += std::to_string(route.cost);
      out += '\t';
    }
    out += NameOf(route);
    out += '\t';
    out += route.route;
    out += '\n';
  }
  return out;
}

const Route* RouteSet::Find(std::string_view name) const {
  NameId id = names_.Find(name);
  return id == kNoName ? nullptr : Find(id);
}

}  // namespace pathalias
