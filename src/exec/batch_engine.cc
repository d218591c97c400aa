#include "src/exec/batch_engine.h"

#include <algorithm>

#include "src/image/frozen_route_set.h"
#include "src/route_db/resolver.h"

namespace pathalias {
namespace exec {

FrozenBatchEngine::FrozenBatchEngine(const FrozenRouteSet* routes, BatchEngineOptions options)
    : routes_(routes),
      options_(options),
      resolver_(routes, ResolveOptions{}),
      shards_(options.threads == 0 ? ThreadPool::HardwareWidth()
                                   : std::max(1, options.threads)),
      fold_case_(routes->names().fold_case()) {
  if (shards_ > 1) {
    pool_ = std::make_unique<ThreadPool>(shards_);
  }
  if (options_.cache_entries > 0) {
    caches_.reserve(static_cast<size_t>(shards_));
    for (int shard = 0; shard < shards_; ++shard) {
      caches_.emplace_back(options_.cache_entries);
    }
  }
  shard_indices_.resize(static_cast<size_t>(shards_));
  shard_resolved_.resize(static_cast<size_t>(shards_));
}

FrozenBatchEngine::~FrozenBatchEngine() = default;

uint32_t FrozenBatchEngine::ShardOf(std::string_view host) const {
  // FNV-1a, folded to match the interner's normalization so "Duke" and "duke" shard
  // together exactly when they intern together.
  uint32_t hash = 2166136261u;
  if (fold_case_) {
    for (char c : host) {
      hash = (hash ^ static_cast<unsigned char>(NameInterner::FoldChar(c))) * 16777619u;
    }
  } else {
    for (unsigned char c : host) {
      hash = (hash ^ c) * 16777619u;
    }
  }
  // Fibonacci mix before the modulo: FNV's low bits are weak for short keys.
  return static_cast<uint32_t>((static_cast<uint64_t>(hash) * 0x9E3779B97F4A7C15ull) >> 33) %
         static_cast<uint32_t>(shards_);
}

template <typename IndexFn>
size_t FrozenBatchEngine::ResolveCachedRun(std::span<const std::string_view> hosts,
                                           std::span<BatchLookup> results,
                                           ResultCache* cache, size_t n,
                                           IndexFn index_of) const {
  size_t resolved = 0;
  // Depth-2 pipeline: `stage` runs one query ahead of retirement, so a hit's
  // cache-set line has the whole previous query's walk to arrive.  The lookup is
  // const and effect-free, so running it early changes nothing observable.  An
  // interned query's hash is its name's stored hash, which places the entry.
  const NameInterner& names = routes_->names();
  NameId ahead_id = kNoName;
  ResultCache::Handle ahead_handle;
  auto stage = [&](size_t pos) {
    std::string_view host = hosts[index_of(pos)];
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
    size_t index = index_of(pos);
    NameId id = ahead_id;
    ResultCache::Handle handle = ahead_handle;
    if (pos + 1 < n) {
      stage(pos + 1);
    }
    BatchLookup* out = &results[index];
    if (id == kNoName) {
      *out = resolver_.LookupStranger(hosts[index]);
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
  size_t count = std::min(hosts.size(), results.size());
  stats_.queries += count;
  if (shards_ == 1 && caches_.empty()) {
    // Nothing to partition and nothing to memoize: the pipelined resolver IS this
    // path — count lookups in one span, window-K in flight.
    size_t resolved = resolver_.ResolveBatch(hosts.first(count), results.first(count));
    stats_.resolved += resolved;
    return resolved;
  }

  if (shards_ == 1) {
    // One shard with the cache on: no partition pass, just the cached walk in order.
    ResultCache* cache = &caches_.front();
    size_t resolved =
        ResolveCachedRun(hosts, results, cache, count, [](size_t pos) { return pos; });
    stats_.resolved += resolved;
    stats_.cache_lookups = cache->stats().lookups;
    stats_.cache_hits = cache->stats().hits;
    return resolved;
  }

  if (caches_.empty()) {
    // Cache off: destination affinity buys nothing, so skip the hash-partition pass
    // entirely — balanced contiguous ranges resolve the same slots to the same bytes
    // with sequential writeback instead of a scatter.  Each range runs the resolver's
    // software pipeline over its own subspan.
    auto run_range = [&](int shard) {
      size_t lo = count * static_cast<size_t>(shard) / static_cast<size_t>(shards_);
      size_t hi = count * (static_cast<size_t>(shard) + 1) / static_cast<size_t>(shards_);
      shard_resolved_[static_cast<size_t>(shard)] =
          resolver_.ResolveBatch(hosts.subspan(lo, hi - lo), results.subspan(lo, hi - lo));
    };
    pool_->Run(shards_, run_range);  // shards_ > 1 here, so the pool exists
  } else {
    // Cache on: partition by destination so each shard's cache has a single owner
    // and always gets asked the destinations it cached.
    for (std::vector<uint32_t>& indices : shard_indices_) {
      indices.clear();
    }
    for (size_t i = 0; i < count; ++i) {
      shard_indices_[ShardOf(hosts[i])].push_back(static_cast<uint32_t>(i));
    }
    auto run_shard = [&](int shard) {
      const std::vector<uint32_t>& indices = shard_indices_[static_cast<size_t>(shard)];
      shard_resolved_[static_cast<size_t>(shard)] =
          ResolveCachedRun(hosts, results, &caches_[static_cast<size_t>(shard)],
                           indices.size(), [&indices](size_t pos) { return indices[pos]; });
    };
    pool_->Run(shards_, run_shard);
  }

  size_t resolved = 0;
  for (size_t shard = 0; shard < static_cast<size_t>(shards_); ++shard) {
    resolved += shard_resolved_[shard];
  }
  stats_.resolved += resolved;
  uint64_t lookups = 0;
  uint64_t hits = 0;
  for (const ResultCache& cache : caches_) {
    lookups += cache.stats().lookups;
    hits += cache.stats().hits;
  }
  stats_.cache_lookups = lookups;  // ResultCache stats are already cumulative
  stats_.cache_hits = hits;
  return resolved;
}

void FrozenBatchEngine::AdoptRoutes(const FrozenRouteSet* fresh) {
  const NameInterner& served = routes_->names();
  const NameInterner& names = fresh->names();
  const bool same_fold = served.fold_case() == names.fold_case();
  routes_ = fresh;
  resolver_ = Resolver(fresh, ResolveOptions{});
  fold_case_ = names.fold_case();
  for (ResultCache& cache : caches_) {
    cache.RekeyEntries([&](NameId key, BatchLookup* value) {
      // Entries sit in the set of their name's hash, which folds as the interner
      // does: under another folding the sets, and the shards, no longer match.
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
