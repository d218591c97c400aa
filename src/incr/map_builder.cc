#include "src/incr/map_builder.h"

#include <algorithm>
#include <unordered_map>

#include "src/core/mapper.h"
#include "src/core/route_printer.h"
#include "src/graph/graph.h"

namespace pathalias {
namespace incr {
namespace {

// The ids whose route differs between `before` and `after`, where `after`'s id
// space extends `before`'s: a route's bytes or cost changed, or it appeared or
// went away.  Two absent routes are equal.
std::vector<NameId> ChangedIds(const RouteSet& before, const RouteSet& after) {
  std::vector<NameId> changed;
  const NameId count = static_cast<NameId>(after.names().size());
  for (NameId id = 0; id < count; ++id) {
    const Route* old_route = before.Find(id);
    const Route* new_route = after.Find(id);
    if (old_route == nullptr || new_route == nullptr
            ? old_route != new_route
            : old_route->route != new_route->route || old_route->cost != new_route->cost) {
      changed.push_back(id);
    }
  }
  return changed;
}

}  // namespace

MapBuilder::MapBuilder(MapBuilderOptions options) : options_(std::move(options)) {}

bool MapBuilder::Build(std::vector<InputFile> files) {
  artifacts_ = std::move(files);
  routes_ = RouteSet();
  valid_ = Rebuild();
  return valid_;
}

void MapBuilder::Resume(std::vector<InputFile> files) {
  artifacts_ = std::move(files);
  routes_ = RouteSet();
  dirty_route_ids_.clear();
  resumed_ = true;
  valid_ = false;
}

bool MapBuilder::Rebuild() {
  diag_.Clear();  // each compile reports only its own diagnostics
  RouteSet fresh(routes_.names());
  bool built = false;
  {  // The graph and the mapper result end with this scope.
    Graph graph(&diag_, Graph::Options{.ignore_case = options_.ignore_case});
    Parser parser(&graph);
    parser.ParseFiles(artifacts_);
    // The same default the batch pipeline applies: the first host declared.
    local_name_ = options_.local.empty() ? std::string(parser.first_host()) : options_.local;
    if (local_name_.empty()) {
      diag_.Error(SourcePos{}, "no hosts declared and no local host named");
    } else {
      graph.SetLocal(local_name_);
      Mapper mapper(&graph, MapOptions{});
      Mapper::Result map = mapper.Run();
      for (const Node* unreachable : map.unreachable) {
        diag_.Warn(SourcePos{}, std::string(graph.NameOf(unreachable)) + " is unreachable");
      }
      RoutePrinter printer(map, PrintOptions{});
      for (const RouteEntry& entry : printer.Build()) {
        fresh.Add(entry.name, entry.route, entry.cost);
      }
      built = true;
    }
  }
  dirty_route_ids_ = ChangedIds(routes_, fresh);
  routes_ = std::move(fresh);
  resumed_ = false;
  return built;
}

UpdateStats MapBuilder::Update(const std::vector<InputFile>& changed,
                               const std::vector<std::string>& removed) {
  UpdateStats stats;

  std::unordered_map<std::string, size_t> index_by_name;  // owned keys: artifacts_ moves
  for (size_t i = 0; i < artifacts_.size(); ++i) {
    index_by_name[artifacts_[i].name] = i;
  }

  // Take real changes (in place, or appended as new files); skip the rest.
  bool edited = false;
  for (const InputFile& file : changed) {
    auto it = index_by_name.find(file.name);
    if (it != index_by_name.end() && artifacts_[it->second].content == file.content) {
      ++stats.files_unchanged;
      continue;
    }
    ++stats.files_changed;
    edited = true;
    if (it != index_by_name.end()) {
      artifacts_[it->second].content = file.content;
    } else {
      index_by_name[file.name] = artifacts_.size();
      artifacts_.push_back(file);
    }
  }
  // Names that match no kept file are ignored.
  if (std::erase_if(artifacts_, [&removed](const InputFile& file) {
        return std::ranges::find(removed, file.name) != removed.end();
      }) > 0) {
    edited = true;
  }

  if (!edited && !resumed_) {
    stats.patched = true;  // nothing to compile
    dirty_route_ids_.clear();
    return stats;
  }
  valid_ = Rebuild();
  stats.routes_changed = dirty_route_ids_.size();
  return stats;
}

}  // namespace incr
}  // namespace pathalias
