#include "src/exec/batch_engine.h"

#include <algorithm>

#include "src/image/frozen_route_set.h"
#include "src/route_db/resolver.h"

namespace pathalias {
namespace exec {

FrozenBatchEngine::FrozenBatchEngine(const FrozenRouteSet* routes, BatchEngineOptions options)
    : routes_(routes),
      resolver_(routes, ResolveOptions{}),
      shards_(options.threads == 0 ? ThreadPool::HardwareWidth()
                                   : std::max(1, options.threads)),
      range_resolved_(static_cast<size_t>(shards_)) {
  if (shards_ > 1) {
    pool_ = std::make_unique<ThreadPool>(shards_);
  }
  if (options.cache_entries > 0) {
    caches_.reserve(static_cast<size_t>(shards_));
    for (int range = 0; range < shards_; ++range) {
      caches_.emplace_back(options.cache_entries);
    }
  }
}

FrozenBatchEngine::~FrozenBatchEngine() = default;

size_t FrozenBatchEngine::ResolveCachedRun(std::span<const std::string_view> hosts,
                                           std::span<BatchLookup> results,
                                           ResultCache* cache) const {
  const size_t n = hosts.size();
  size_t resolved = 0;
  // Depth-2 pipeline: `stage` runs one query ahead of retirement, so a hit's
  // cache-set line has the whole previous query's walk to arrive.  The lookup is
  // const and effect-free, so running it early changes nothing observable.  An
  // interned query's hash is its name's stored hash, which places the entry.
  const NameInterner& names = routes_->names();
  NameId ahead_id = kNoName;
  ResultCache::Handle ahead_handle;
  auto stage = [&](size_t pos) {
    std::string_view host = hosts[pos];
    const uint64_t hash = names.HashOf(host);
    ahead_id = names.FindPrehashed(host, hash);
    if (ahead_id != kNoName) {
      ahead_handle = cache->Begin(hash);
    }
  };
  if (n > 0) {
    stage(0);
  }
  for (size_t pos = 0; pos < n; ++pos) {
    NameId id = ahead_id;
    ResultCache::Handle handle = ahead_handle;
    if (pos + 1 < n) {
      stage(pos + 1);
    }
    BatchLookup* out = &results[pos];
    if (id == kNoName) {
      *out = resolver_.LookupStranger(hosts[pos]);
    } else if (!cache->Get(handle, id, out)) {
      *out = resolver_.LookupInterned(id);
      cache->Put(handle, id, *out);
    }
    if (out->route.ok()) {
      ++resolved;
    }
  }
  return resolved;
}

size_t FrozenBatchEngine::ResolveBatch(std::span<const std::string_view> hosts,
                                       std::span<BatchLookup> results) {
  const size_t count = std::min(hosts.size(), results.size());
  const size_t ranges = range_resolved_.size();
  auto run_range = [&](int range) {
    const size_t r = static_cast<size_t>(range);
    const size_t lo = count * r / ranges;
    const size_t hi = count * (r + 1) / ranges;
    std::span<const std::string_view> range_hosts = hosts.subspan(lo, hi - lo);
    std::span<BatchLookup> range_results = results.subspan(lo, hi - lo);
    range_resolved_[r] = caches_.empty()
                             ? resolver_.ResolveBatch(range_hosts, range_results)
                             : ResolveCachedRun(range_hosts, range_results, &caches_[r]);
  };
  if (pool_ == nullptr) {
    run_range(0);
  } else {
    pool_->Run(shards_, run_range);
  }
  size_t resolved = 0;
  for (size_t range_count : range_resolved_) {
    resolved += range_count;
  }
  return resolved;
}

BatchEngineStats FrozenBatchEngine::stats() const {
  BatchEngineStats stats;  // ResultCache stats are already cumulative
  for (const ResultCache& cache : caches_) {
    stats.cache_lookups += cache.stats().lookups;
    stats.cache_hits += cache.stats().hits;
  }
  return stats;
}

void FrozenBatchEngine::AdoptRoutes(const FrozenRouteSet* fresh) {
  const NameInterner& served = routes_->names();
  const NameInterner& names = fresh->names();
  const bool same_fold = served.fold_case() == names.fold_case();
  routes_ = fresh;
  resolver_ = Resolver(fresh, ResolveOptions{});
  for (ResultCache& cache : caches_) {
    cache.RekeyEntries([&](NameId key, BatchLookup* value) {
      // Entries sit in the set of their name's hash, which folds as the interner
      // does: under another folding the sets no longer match.
      NameId id = same_fold ? names.FindPrehashed(served.View(key), served.HashOf(key))
                            : kNoName;
      if (id != kNoName) {
        *value = resolver_.LookupInterned(id);
      }
      return id;
    });
  }
}

size_t CountChangedRoutes(const FrozenRouteSet& replaced, const RouteSet& built) {
  const NameInterner& old_names = replaced.names();
  const NameInterner& new_names = built.names();
  size_t changed = 0;
  size_t kept = 0;  // replaced routes whose name the build routes too
  for (const Route& route : built.routes()) {
    RouteView old_route = replaced.FindRouteView(
        old_names.FindPrehashed(new_names.View(route.name), new_names.HashOf(route.name)));
    if (!old_route.ok()) {
      ++changed;  // new
      continue;
    }
    ++kept;
    if (old_route.route != route.route || old_route.cost != route.cost) {
      ++changed;
    }
  }
  return changed + (replaced.size() - kept);  // ... and the removed ones
}

}  // namespace exec
}  // namespace pathalias
