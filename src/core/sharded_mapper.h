// Domain-sharded parallel mapping for very large maps.
//
// The single-threaded Mapper drains one global heap in strict (cost, hops, name)
// order — exact, but serial by construction.  On USENET-scale maps (100k–1M hosts)
// most shortest-path work is *local*: a host under .cs.rutgers.edu is reached
// through its domain subtree, and only the subtree's boundary (its gateways, nets
// and backbone links) interacts with the rest of the graph.  ShardedMapper exploits
// that structure:
//
//   * the graph is partitioned by domain-suffix subtree — the interner's precomputed
//     suffix chains name the partition (every dotted name walks to its top-level
//     domain; undotted hosts share one "flat" group) — and the groups are bin-packed
//     into N shards;
//   * each round, every shard drains its own heap in parallel (ThreadPool from
//     src/exec).  Intra-shard relaxations apply directly; relaxations that cross a
//     shard boundary are queued as offers in a per-shard outbox;
//   * between rounds a serial coordinator applies all offers (shard-index order,
//     emission order within a shard — deterministic) and the next round begins;
//     rounds repeat until every heap is empty and no offers remain, i.e. a global
//     shortest-path fixpoint over the inter-shard frontier costs;
//   * back-link passes run at global quiescence, exactly where the serial run's
//     pass boundaries fall, so the invented links (and hence the final graph) are
//     identical.
//
// Because shards drain concurrently, labels are *not* extracted in global key
// order; the relax rule is therefore order-independent (label-correcting rather
// than label-setting).  A tie between equal-(cost, hops) candidates from distinct
// parents goes to the parent a full Mapper::Run() provably elects.  Under
// prefer_fewer_hops every non-alias relaxation strictly increases (cost, hops), so
// the full run extracts labels in (cost, hops) order:
//   * parents at different (cost, hops): the smaller popped, hence relaxed, first
//     and wins;
//   * parents at equal (cost, hops), neither reached over an alias edge: all such
//     labels are queued before their plateau starts draining, so they pop in
//     LabelLess order and the LabelLess-least parent wins;
//   * an alias edge (zero cost, zero hops) keeps a candidate inside its parent's
//     plateau, where pop order follows label creation, not LabelLess.  A tie whose
//     winner depends on that order (either arrival over an alias edge, or either
//     parent reached over one) cannot be decided locally — the run *refuses* and
//     falls back to the exact single-shard mapper.
// Fallback is also taken when the map is small, the partition is
// degenerate (one subtree dominates), or non-default mapping options are in play.
// Either way the produced routes are byte-identical to Mapper::Run()'s — the
// golden and fuzz tests, and CI, assert exactly that.

#ifndef SRC_CORE_SHARDED_MAPPER_H_
#define SRC_CORE_SHARDED_MAPPER_H_

#include <cstddef>
#include <string>

#include "src/core/mapper.h"

namespace pathalias {

struct ShardOptions {
  // Number of shards to partition into; <= 1 never engages (plain Mapper runs).
  int shards = 0;
  // Sharding overhead only pays on large maps; below this many nodes the exact
  // single-shard mapper runs.  Tests lower it to force engagement on small maps.
  size_t min_nodes = 4096;
  // If the largest suffix-subtree bin holds more than this share of all nodes the
  // partition is degenerate (a flat 1986-style map, say) and sharding won't help.
  double max_group_share = 0.90;
  // Safety valve: a fixpoint that hasn't converged after this many drain/merge
  // rounds falls back.  Rounds scale with the inter-shard path diameter, which is
  // tiny in practice (single digits on the 100k/1M mapgen maps).
  int max_rounds = 1000;
  // Worker threads (including the caller); 0 = min(shards, hardware width).
  int threads = 0;
};

// What the sharded run did — or why it didn't.  `engaged == false` means the
// exact single-shard mapper produced the result; `fallback_reason` says why.
struct ShardStats {
  bool engaged = false;
  std::string fallback_reason;
  int shards_used = 0;
  size_t groups = 0;               // domain-suffix subtrees found
  size_t flat_nodes = 0;           // nodes with no domain suffix (one shared group)
  size_t largest_shard_nodes = 0;
  size_t rounds = 0;               // parallel drain / serial merge rounds
  size_t cross_offers = 0;         // boundary relaxations merged by the coordinator
};

// Drop-in parallel replacement for Mapper::Run() with a byte-identical-output
// guarantee.  Holds a Mapper internally both for the shared cost model and as the
// fallback path, so a ShardedMapper is always safe to use regardless of map shape.
class ShardedMapper {
 public:
  ShardedMapper(Graph* graph, MapOptions options, ShardOptions shard_options);

  // Maps from graph->local(), in parallel when the map warrants it.  Heap/relax
  // counters in the Result reflect whichever engine ran (the sharded schedule does
  // different — though deterministic — amounts of speculative work); the labels,
  // routes and final per-node state are identical to Mapper::Run()'s either way.
  Mapper::Result Run();

  const ShardStats& stats() const { return stats_; }

 private:
  struct State;  // shard bookkeeping, defined in the .cc

  const char* GateReason() const;
  const char* BuildPartition(State& state);
  PathLabel* MakeLabel(State& state, Node* node);
  void RelaxInto(State& state, PathLabel& from, Link& link);
  void DrainShard(State& state, int shard);
  const char* FirstRefusal(const State& state) const;
  const char* RunRounds(State& state);
  Mapper::Result Fallback(std::string reason);
  Mapper::Result Finalize(State& state, Mapper::Result result);

  Graph* graph_;
  MapOptions options_;
  ShardOptions shard_options_;
  Mapper mapper_;
  ShardStats stats_;
};

}  // namespace pathalias

#endif  // SRC_CORE_SHARDED_MAPPER_H_
