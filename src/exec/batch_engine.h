// Parallel batch resolution over a frozen route image.
//
// FrozenBatchEngine is the front end to Resolver::ResolveBatch that `routedb batch`
// and routedbd resolve through.  It splits a batch into one balanced contiguous
// range per thread — range r of N holds slots [count*r/N, count*(r+1)/N) — and
// runs each range through the resolver's window (Resolver::ResolveBatch) into its
// own result slots: inline on the calling thread when there is one range, on a
// small fixed ThreadPool otherwise.  The engine keeps no answer from one batch to
// the next.
//
// Determinism: results[i] depends only on hosts[i] and the route set, so the output
// is byte-identical to the serial resolver at any thread count.  Ranges write
// disjoint result slots, misses included, and the resolved count is the sum of the
// ranges' counts, so it equals the serial path's exactly.
//
// Concurrency contract: the route set is the shared object — any number of engines
// (or raw resolvers) may read one FrozenRouteSet mapping concurrently.  One engine
// instance has one owner: every method runs on the calling thread, one at a time.
// Range r's count is written only by range r's job, which a pool thread picks up
// and hands back through ThreadPool::Run's lock handoff, so no counter needs an
// atomic.  ResolveBatch is fork-join: when it returns, no pool thread is still
// reading the route source.

#ifndef SRC_EXEC_BATCH_ENGINE_H_
#define SRC_EXEC_BATCH_ENGINE_H_

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "src/exec/thread_pool.h"
#include "src/route_db/resolver.h"
#include "src/route_db/route_db.h"

namespace pathalias {
namespace exec {

struct BatchEngineOptions {
  int threads = 1;  // range/thread count; 0 means "all hardware threads"
  // Read by nothing: the engine has no result cache.  perfbench's serve and churn
  // drivers still set it, so it stays until they stop.
  size_t cache_entries = 0;
};

// Counts nothing: the engine has no result cache, so hit_rate() is always 0.
// perfbench's lockstep driver still reports it as exec.cache_hit_rate.
struct BatchEngineStats {
  double hit_rate() const { return 0.0; }
};

class FrozenBatchEngine {
 public:
  FrozenBatchEngine(const FrozenRouteSet* routes, BatchEngineOptions options);
  ~FrozenBatchEngine();

  FrozenBatchEngine(const FrozenBatchEngine&) = delete;
  FrozenBatchEngine& operator=(const FrozenBatchEngine&) = delete;

  // Same contract as Resolver::ResolveBatch — resolves hosts[i] into results[i]
  // over the common prefix of the two spans and returns the number that matched —
  // with the same results, bit for bit.
  size_t ResolveBatch(std::span<const std::string_view> hosts,
                      std::span<BatchLookup> results);

  // The update flow: switches the engine to `fresh` routes, whatever its name ids.
  // Nothing outlives a batch, so this only repoints the resolver: after it returns
  // the engine holds NO reference to the old source, and since no batch is in
  // flight between calls the caller may unmap it at once (src/net's
  // RolloverController frees it at its next RetireDrained).
  void AdoptRoutes(const FrozenRouteSet* fresh) {
    resolver_ = Resolver(fresh, ResolveOptions{});
  }
  // The form that took the changed ids; `ids` is ignored.  Kept for perfbench's
  // churn replay and lockstep driver, which still pass them.
  void AdoptRoutes(const FrozenRouteSet* fresh, std::span<const NameId> /*ids*/) {
    AdoptRoutes(fresh);
  }

  // The range (and thread) count.
  int shards() const { return shards_; }
  // Kept for perfbench's lockstep driver; see BatchEngineStats.
  BatchEngineStats stats() const { return {}; }

 private:
  Resolver resolver_;
  int shards_;
  std::unique_ptr<ThreadPool> pool_;    // null when shards_ == 1
  std::vector<size_t> range_resolved_;  // per-range hit counts, one write each
};

}  // namespace exec
}  // namespace pathalias

#endif  // SRC_EXEC_BATCH_ENGINE_H_
