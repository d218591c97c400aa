// Parallel batch resolution over a frozen route image.
//
// FrozenBatchEngine is the front end to Resolver::ResolveBatch that `routedb batch`
// and routedbd resolve through.  It splits a batch into one balanced contiguous
// range per thread — range r of N holds slots [count*r/N, count*(r+1)/N) — and
// resolves each range into its own result slots: inline on the calling thread when
// there is one range, on a small fixed ThreadPool otherwise.  With the result cache
// off, a range runs the resolver's window (Resolver::ResolveBatch); with it on, the
// range walks its queries one at a time through its own ResultCache.  Either way the
// output is byte-identical to the serial resolver, at any thread count, with the
// cache on or off.
//
// Per-range caches: range r always resolves through cache r, which persists across
// batches.  The ranges follow the batch's slots, not its names, so a name that
// repeats across ranges is cached once per range and pays a first miss in each: at
// N threads every range's cache must hold the whole hot set.
//
// Determinism: results[i] depends only on hosts[i] and the route set.  Ranges write
// disjoint result slots, misses included, and the resolved count is the sum of the
// ranges' counts, so it equals the serial path's exactly.
//
// Concurrency contract: the route set is the shared object — any number of engines
// (or raw resolvers) may read one FrozenRouteSet mapping concurrently.  One engine
// instance has one owner: every method runs on the calling thread, one at a time.
// Each range's cache is touched only by that range's job, which a pool thread
// picks up and hands back through ThreadPool::Run's lock handoff, so no cache or
// counter needs an atomic.  ResolveBatch is fork-join: when it returns, no pool
// thread is still reading the route source.

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
  int threads = 1;           // range/thread count; 0 means "all hardware threads"
  size_t cache_entries = 0;  // per-range result cache capacity; 0 disables caching
};

// The result caches' counters, cumulative across every batch the engine has served.
struct BatchEngineStats {
  uint64_t cache_lookups = 0;  // interned queries that consulted a range's cache
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

  // The range (and thread) count.
  int shards() const { return shards_; }
  size_t cache_entries_per_shard() const {
    return caches_.empty() ? 0 : caches_.front().capacity();
  }
  BatchEngineStats stats() const;

 private:
  // One range through its cache, run as a depth-2 software pipeline: while query
  // j's walk (or cache copy) completes, query j+1's interner lookup has already run
  // and ResultCache::Begin has prefetched its set's line — so a hit's set read
  // lands in cache and its tag is never recomputed.  hosts[pos] resolves into
  // results[pos]; the spans are the same length.  Returns the number resolved.
  size_t ResolveCachedRun(std::span<const std::string_view> hosts,
                          std::span<BatchLookup> results, ResultCache* cache) const;

  const FrozenRouteSet* routes_;
  Resolver resolver_;
  int shards_;
  std::unique_ptr<ThreadPool> pool_;    // null when shards_ == 1
  std::vector<ResultCache> caches_;     // one per range; empty when disabled
  std::vector<size_t> range_resolved_;  // per-range hit counts, one write each
};

// How many routes differ between a replaced image and the build that replaces it,
// matched by name: a route whose bytes or cost changed, a new route and a removed
// one each count once.  Ids play no part, so the two may number names any way.
size_t CountChangedRoutes(const FrozenRouteSet& replaced, const RouteSet& built);

}  // namespace exec
}  // namespace pathalias

#endif  // SRC_EXEC_BATCH_ENGINE_H_
