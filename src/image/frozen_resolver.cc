// Resolver method bodies.  The resolver is declared in src/route_db/resolver.h with
// FrozenRouteSet only forward-declared; its bodies live here, on the image side of the
// layer boundary, because they inline FrozenRouteSet's accessors into the batch
// pipeline's hot loop.

#include <algorithm>
#include <functional>
#include <string_view>
#include <vector>

#include "src/image/frozen_route_set.h"
#include "src/route_db/resolver.h"  // via route_db.h: RoutePrinter::SpliceUser

namespace pathalias {
namespace {

// Joins path[first..] and the user into a relative bang path.
std::string TailArgument(const std::vector<std::string>& path, size_t first,
                         const std::string& user) {
  std::string out;
  for (size_t i = first; i < path.size(); ++i) {
    out += path[i];
    out += '!';
  }
  out += user;
  return out;
}

}  // namespace

BatchLookup Resolver::LookupInterned(NameId id) const {
  // The query is a known name: the exact probe and the entire domain-suffix walk
  // (caip.rutgers.edu → .rutgers.edu → .edu) are integer chases from here on.
  BatchLookup out;
  if (RouteView route = routes_->FindRouteView(id)) {
    out.route = route;
    out.via = id;
    return out;
  }
  const NameInterner& names = routes_->names();
  for (NameId suffix = names.Suffix(id); suffix != kNoName; suffix = names.Suffix(suffix)) {
    if (RouteView route = routes_->FindRouteView(suffix)) {
      out.route = route;
      out.via = suffix;
      // The interner never holds two ids with equal bytes, so a hit through the chain
      // is a proper domain-suffix match — no string compare needed.
      out.suffix_match = true;
      return out;
    }
  }
  return out;
}

BatchLookup Resolver::LookupStranger(std::string_view host) const {
  // A stranger: probe its dotted suffixes until one is interned.  Interning any dotted
  // name interns its whole chain, so the first hit's chain covers every shorter suffix.
  BatchLookup out;
  const NameInterner& names = routes_->names();
  size_t dot = host.find('.', 1);
  while (dot != std::string_view::npos) {
    NameId suffix = names.Find(host.substr(dot));  // includes the leading '.'
    if (suffix != kNoName) {
      for (; suffix != kNoName; suffix = names.Suffix(suffix)) {
        if (RouteView route = routes_->FindRouteView(suffix)) {
          out.route = route;
          out.via = suffix;
          out.suffix_match = true;  // the host itself is not in the database
          return out;
        }
      }
      return out;
    }
    dot = host.find('.', dot + 1);
  }
  return out;
}

BatchLookup Resolver::LookupOne(std::string_view host) const {
  NameId id = routes_->names().Find(host);
  return id != kNoName ? LookupInterned(id) : LookupStranger(host);
}

RouteView Resolver::LookupId(std::string_view host, NameId* via) const {
  BatchLookup result = LookupOne(host);
  if (result.route.ok()) {
    *via = result.via;
  }
  return result.route;
}

RouteView Resolver::Lookup(std::string_view host, std::string_view* matched_key) const {
  NameId via = kNoName;
  RouteView route = LookupId(host, &via);
  if (route.ok()) {
    *matched_key = routes_->names().View(via);
  }
  return route;
}

size_t Resolver::ResolveBatchScalar(std::span<const std::string_view> hosts,
                                    std::span<BatchLookup> results) const {
  size_t resolved = 0;
  // Only the common prefix: a results span shorter than the hosts span truncates the
  // batch rather than writing out of bounds (see the header contract).
  size_t count = std::min(hosts.size(), results.size());
  for (size_t i = 0; i < count; ++i) {
    results[i] = LookupOne(hosts[i]);
    if (results[i].route.ok()) {
      ++resolved;
    }
  }
  return resolved;
}

size_t Resolver::ResolveBatch(std::span<const std::string_view> hosts,
                              std::span<BatchLookup> results) const {
  return ResolveBatchPipelined(hosts, results, kDefaultPipelineWindow);
}

// Per-call probe counters, compiled to nothing outside PATHALIAS_PROBE_STATS builds
// so the pipeline's hot loop carries zero counter writes in release.
#ifdef PATHALIAS_PROBE_STATS
#define PATHALIAS_PROBE_COUNT(stats, field) \
  do {                                      \
    if ((stats) != nullptr) {               \
      ++(stats)->field;                     \
    }                                       \
  } while (0)
#else
#define PATHALIAS_PROBE_COUNT(stats, field) ((void)0)
#endif

size_t Resolver::ResolveBatchPipelined(std::span<const std::string_view> hosts,
                                       std::span<BatchLookup> results, size_t window,
                                       ResolvePipelineStats* stats) const {
  if (stats != nullptr) {
    *stats = ResolvePipelineStats{};
  }
  size_t count = std::min(hosts.size(), results.size());
  const NameInterner& names = routes_->names();
  if (count == 0 || !names.can_probe()) {
    // An empty image's table has no slots to prefetch; the scalar loop handles it
    // and is bit-identical by contract.
    return ResolveBatchScalar(hosts.first(count), results.first(count));
  }
  window = std::clamp<size_t>(window, 1, kMaxPipelineWindow);

  // The window: up to `window` exact probes in flight.  Each round runs three
  // passes, and each pass does one stage of every lookup in it before any lookup
  // does its next: retire the lookups whose route record was prefetched last
  // round, inspect the probe slot of each lookup launched last round, then launch
  // fresh queries into the room left (hash, prefetch the first probe slot).  One
  // lookup's misses (probe slot → entry → route record) are serial, but across
  // lookups they are independent, so the slot a probe starts on and the record a
  // retirement reads were prefetched a round earlier, and the launch pass's hash
  // chains overlap in the core.  Only an interned name with a route of its own
  // stays for the retire round.  Every other query leaves at once, parking its id
  // (kNoName for a stranger) in its result's `via`, and is finished after the
  // window drains.
  struct Probing {
    NameInterner::ProbeCursor cursor;
    uint32_t index;  // into hosts and results
  };
  struct Retiring {
    NameId id;
    uint32_t index;
  };
  Probing probing[kMaxPipelineWindow];
  Retiring retiring[kMaxPipelineWindow];
  size_t n_probing = 0;
  size_t n_retiring = 0;
  size_t next = 0;  // next query to launch
  size_t resolved = 0;
  std::vector<uint32_t> deferred;  // result indexes, in batch order
  while (next < count || n_probing + n_retiring > 0) {
    for (size_t p = 0; p < n_retiring; ++p) {
      const Retiring& lookup = retiring[p];
      results[lookup.index] = BatchLookup{routes_->FindRouteView(lookup.id), lookup.id, false};
      PATHALIAS_PROBE_COUNT(stats, window_retirements);
    }
    resolved += n_retiring;
    n_retiring = 0;

    for (size_t p = 0; p < n_probing; ++p) {
      Probing& lookup = probing[p];
      // Collisions and rejected candidates re-probe inline, exactly as Find does:
      // probe sequences are short (αH = 0.79 worst case), and the predicates and
      // their order are Find's (the full-hash filter narrows the byte compare), so
      // the outcome is Find's for every input.
      NameId candidate = kNoName;
      NameInterner::ProbeOutcome outcome;
      for (;;) {
        outcome = names.ProbeStep(&lookup.cursor, &candidate);
        if (outcome == NameInterner::ProbeOutcome::kCollision) {
          PATHALIAS_PROBE_COUNT(stats, slot_collisions);
          continue;
        }
        if (outcome == NameInterner::ProbeOutcome::kCandidate &&
            (!names.CandidateHashMatches(candidate, lookup.cursor.hash) ||
             !names.CandidateEquals(candidate, hosts[lookup.index]))) {
          PATHALIAS_PROBE_COUNT(stats, candidate_rejects);
          continue;
        }
        break;
      }
      const bool interned = outcome == NameInterner::ProbeOutcome::kCandidate;
      if (interned && routes_->HasRoute(candidate)) {
        routes_->PrefetchRoute(candidate);
        retiring[n_retiring++] = Retiring{candidate, lookup.index};
      } else {
        results[lookup.index] = BatchLookup{RouteView{}, interned ? candidate : kNoName, false};
        deferred.push_back(lookup.index);
        PATHALIAS_PROBE_COUNT(stats, deferred_queries);
      }
    }

    n_probing = 0;
    for (; next < count && n_probing + n_retiring < window; ++next) {
      Probing& lookup = probing[n_probing++];
      lookup.index = static_cast<uint32_t>(next);
      lookup.cursor = names.BeginProbe(names.HashOf(hosts[next]));
      names.PrefetchSlot(lookup.cursor);
      PATHALIAS_PROBE_COUNT(stats, lookups);
    }
  }

  // After the window, in batch order: an interned name walks its suffix chain
  // (LookupInterned), a stranger its dotted suffixes (LookupStranger) behind a
  // batch-local memo.  LookupStranger starts at the first dot at index >= 1, and
  // from there its outcome depends on nothing but the bytes, so an entry maps those
  // bytes to the result that already holds their outcome: a batch of
  // "a.cs.foo.edu", "b.cs.foo.edu", ... walks ".cs.foo.edu" once, which is the
  // repeated-domain shape of delivery traffic.  Raw bytes are the key, so equal
  // keys mean equal outcomes whether or not the interner folds case.  A batch with
  // few such queries skips the memo; zeroing it would cost more than it saves.
  struct MemoEntry {
    const char* key = nullptr;  // an empty entry's key matches none: keys start with '.'
    uint32_t size = 0;
    uint32_t index = 0;  // the result holding the outcome
  };
  constexpr size_t kMemoEntries = 512;
  constexpr size_t kMemoMinDeferred = 64;
  std::vector<MemoEntry> memo(deferred.size() >= kMemoMinDeferred ? kMemoEntries : 0);
  for (uint32_t index : deferred) {
    BatchLookup& out = results[index];
    const std::string_view host = hosts[index];
    const size_t dot = host.find('.', 1);
    if (out.via != kNoName) {
      out = LookupInterned(out.via);
    } else if (memo.empty() || dot == std::string_view::npos) {
      out = LookupStranger(host);
    } else {
      const std::string_view key = host.substr(dot);
      MemoEntry& entry = memo[std::hash<std::string_view>{}(key) % kMemoEntries];
      if (std::string_view(entry.key, entry.size) == key) {
        out = results[entry.index];
        PATHALIAS_PROBE_COUNT(stats, suffix_memo_hits);
      } else {
        out = LookupStranger(host);
        entry = MemoEntry{key.data(), static_cast<uint32_t>(key.size()), index};
      }
    }
    if (out.route.ok()) {
      ++resolved;
    }
  }
  return resolved;
}

#undef PATHALIAS_PROBE_COUNT

Resolution Resolver::Resolve(std::string_view destination) const {
  Resolution resolution;
  Address address = ParseAddress(destination, options_.parse_style);
  if (address.user.empty() && address.path.empty()) {
    resolution.error = "empty address";
    return resolution;
  }
  if (address.path.empty()) {
    // Local delivery: nothing to route.
    resolution.ok = true;
    resolution.route = address.user;
    resolution.via = "<local>";
    resolution.argument = address.user;
    return resolution;
  }

  size_t target_index = 0;
  if (options_.optimize == ResolveOptions::Optimize::kRightmostKnown &&
      !(options_.preserve_loops && HasRepeatedHost(address.path))) {
    std::string_view key;
    for (size_t i = address.path.size(); i-- > 0;) {
      if (Lookup(address.path[i], &key).ok()) {
        target_index = i;
        break;
      }
    }
  }

  const std::string& target = address.path[target_index];
  std::string argument =
      TailArgument(address.path, target_index + 1, address.user);

  std::string_view matched;
  RouteView route = Lookup(target, &matched);
  if (!route.ok()) {
    resolution.error = "no route to " + target;
    return resolution;
  }
  if (matched != target) {
    // Domain-suffix match: "The argument here is not pleasant (as it were), it is
    // caip.rutgers.edu!pleasant."
    argument = target + "!" + argument;
  }
  resolution.ok = true;
  resolution.via = std::string(matched);
  resolution.argument = argument;
  resolution.route = RoutePrinter::SpliceUser(route.route, argument);
  return resolution;
}

}  // namespace pathalias
