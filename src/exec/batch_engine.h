// Sharded parallel batch resolution over a frozen route image.
//
// FrozenBatchEngine is the serving-path front end to Resolver::ResolveBatch: it
// partitions a batch of destination queries into per-thread shards, resolves every
// shard in parallel on a small fixed ThreadPool, memoizes interned-destination
// results in a per-shard ResultCache, and writes each result back to its original
// position — so the output is byte-identical to the serial resolver, at any thread
// count, with the cache on or off.
//
// Sharding policy: with caching on, shard = mix(hash of the case-normalized query
// bytes) % shards.  Hashing the bytes rather than the NameId keeps the partition
// pass allocation-free and probe-free (no interner lookup until the owning shard
// runs), while still sending every occurrence of a destination to the same shard —
// which is what makes the per-shard caches both coherent without locks (single
// owner) and effective (a hot destination's result is always in the cache that is
// asked).  With caching off, affinity buys nothing, so shards are balanced
// contiguous index ranges: no partition pass, sequential writeback, same bytes.
//
// Determinism: results[i] depends only on hosts[i] and the route set.  Shards
// write disjoint result slots, misses included, so the merge-back is the partition
// itself and the resolved/suffix-match counts equal the serial path's exactly.
//
// Concurrency contract: the route set is the shared object — any number of engines
// (or raw resolvers) may read one FrozenRouteSet mapping concurrently.  One engine
// instance has one owner: every method runs on the calling thread, one at a time.
// Each shard's cache is touched only by that shard's job, which a pool thread
// picks up and hands back through ThreadPool::Run's lock handoff, so no cache,
// counter or partition buffer needs an atomic.  ResolveBatch is fork-join: when it
// returns, no pool thread is still reading the route source.

#ifndef SRC_EXEC_BATCH_ENGINE_H_
#define SRC_EXEC_BATCH_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/exec/result_cache.h"
#include "src/exec/thread_pool.h"
#include "src/route_db/resolver.h"
#include "src/route_db/route_db.h"

namespace pathalias {
namespace exec {

struct BatchEngineOptions {
  int threads = 1;           // shard/thread count; 0 means "all hardware threads"
  size_t cache_entries = 0;  // per-shard result cache capacity; 0 disables caching
  ResolveOptions resolve;    // forwarded to the underlying resolver
};

// Cumulative counters across every batch the engine has served.
struct BatchEngineStats {
  uint64_t queries = 0;
  uint64_t resolved = 0;
  uint64_t cache_lookups = 0;  // interned queries that consulted a shard cache
  uint64_t cache_hits = 0;     // ... and were answered from it

  double hit_rate() const {
    return cache_lookups == 0 ? 0.0
                              : static_cast<double>(cache_hits) /
                                    static_cast<double>(cache_lookups);
  }
};

class FrozenBatchEngine {
 public:
  FrozenBatchEngine(const FrozenRouteSet* routes, BatchEngineOptions options);
  ~FrozenBatchEngine();

  FrozenBatchEngine(const FrozenBatchEngine&) = delete;
  FrozenBatchEngine& operator=(const FrozenBatchEngine&) = delete;

  // Same contract as Resolver::ResolveBatch — resolves hosts[i] into results[i]
  // over the common prefix of the two spans and returns the number that matched —
  // with the same results, bit for bit.  Caches persist across calls: a server loop
  // keeps its hot set warm from one batch to the next.
  size_t ResolveBatch(std::span<const std::string_view> hosts,
                      std::span<BatchLookup> results);

  // The update flow: switches the engine to `fresh` routes, whatever its name ids.
  // Every cached entry is looked up by its name's bytes and stored hash in the fresh
  // interner and re-resolved there (LookupInterned walks the whole domain-suffix
  // chain, so a changed via-route and a cached miss whose domain just gained a
  // route both come back right); a name the fresh source lacks is dropped, and so
  // is every entry when the two sources fold case differently.  The cache counters
  // stay cumulative.  The old source must stay alive until this returns; after
  // that the engine holds NO reference to it, and since no batch is in flight
  // between calls the caller may unmap it at once (src/net's RolloverController
  // frees it at its next RetireDrained).
  void AdoptRoutes(const FrozenRouteSet* fresh);
  // The form that took the changed ids; `ids` is ignored.  Kept for perfbench's
  // churn replay and lockstep driver, which still pass them.
  void AdoptRoutes(const FrozenRouteSet* fresh, std::span<const NameId> /*ids*/) {
    AdoptRoutes(fresh);
  }

  int shards() const { return shards_; }
  size_t cache_entries_per_shard() const {
    return caches_.empty() ? 0 : caches_.front().capacity();
  }
  const BatchEngineStats& stats() const { return stats_; }

 private:
  // The partition hash: FNV-1a over the query bytes, case-folded iff the route
  // set's interner folds, then Fibonacci-mixed so low-entropy tails still spread.
  uint32_t ShardOf(std::string_view host) const;

  // The cached shard loop, run as a depth-2 software pipeline: while query j's
  // walk (or cache copy) completes, query j+1's interner lookup has already run and
  // ResultCache::Begin has prefetched its set's line — so a hit's set read lands
  // in cache and its tag is never recomputed.  `index_of(pos)` maps loop position
  // to result slot (identity for the single-shard path, the shard's index vector
  // when partitioned).  Returns the number resolved.
  template <typename IndexFn>
  size_t ResolveCachedRun(std::span<const std::string_view> hosts,
                          std::span<BatchLookup> results, ResultCache* cache,
                          size_t n, IndexFn index_of) const;

  const FrozenRouteSet* routes_;
  BatchEngineOptions options_;
  Resolver resolver_;
  int shards_;
  bool fold_case_;
  std::unique_ptr<ThreadPool> pool_;        // null when shards_ == 1
  std::vector<ResultCache> caches_;         // one per shard; empty when disabled
  std::vector<std::vector<uint32_t>> shard_indices_;  // reused partition buffers
  std::vector<size_t> shard_resolved_;      // per-shard hit counts, one write each
  BatchEngineStats stats_;
};

// How many routes differ between a replaced image and the build that replaces it,
// matched by name: a route whose bytes or cost changed, a new route and a removed
// one each count once.  Ids play no part, so the two may number names any way.
size_t CountChangedRoutes(const FrozenRouteSet& replaced, const RouteSet& built);

}  // namespace exec
}  // namespace pathalias

#endif  // SRC_EXEC_BATCH_ENGINE_H_
