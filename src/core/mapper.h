// The shortest-path mapper (paper §Calculating shortest paths, §Cost calculation).
//
// A sparse-graph variant of Dijkstra's algorithm: breadth-first search driven by a
// binary-heap priority queue, extracting vertices in increasing path-cost order.  The
// three vertex sets of the paper — mapped / queued / unmapped — correspond here to
// label.state; the heap index (0 == not queued) lives in the label exactly as the
// original kept it in the node.  Running time is e·log v; the dense baseline in
// src/baseline regenerates the paper's v² comparison (experiment E8).
//
// The cost of a path is the sum of its edge weights *plus heuristics* (the paper is
// explicit that this "sullies our weighted graph model"):
//   * alias edges cost nothing "by definition";
//   * dead links, dead (terminal) hosts, and entry into a gatewayed network anywhere
//     but a gateway add kInfinity;
//   * a link from a subdomain up to its parent domain adds kInfinity (preventing
//     absurdities like caip!seismo.css.gov.edu.rutgers!%s);
//   * once a path has passed through a domain, every further link out of a real host
//     adds kInfinity (the ARPANET may not be used as a relay);
//   * mixing routing syntax is penalized: extending a route that already uses RIGHT
//     ('@') syntax with a LEFT link always, the reverse optionally (the paper's own
//     example output duke!research!ucbvax!%s@mit-ai requires LEFT-then-RIGHT to pass);
//   * adjust {host(n)} biases every path through the host.
// Penalties are finite: a penalized route is still a route, it just loses to any clean
// one.  Negative adjustments cannot make a path cheaper than its prefix (Dijkstra's
// invariant), so traversal cost is clamped below at the predecessor's cost.
//
// Two modes:
//   * default — one label per node; syntax/domain taint is approximated as node state,
//     faithfully reproducing the 1986 behavior including its known flaw (paper
//     §Problems: the tree commits to the 425+∞ route to motown);
//   * two_label — the "modified algorithm that maintains the second-best path when the
//     shortest path to a host goes by way of a domain" the paper reports experimenting
//     with: Dijkstra over (vertex, via-domain) pairs.  A node's reported route is its
//     cheapest label, but children may extend the clean label (experiment E10).
//
// Back links (paper §Back links): after the heap drains, links out of unreachable
// hosts are mirrored ("invented") from their mapped neighbors and the search resumes,
// yielding routes "generated by implication, rather than by explicit declaration".

#ifndef SRC_CORE_MAPPER_H_
#define SRC_CORE_MAPPER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/graph/graph.h"

namespace pathalias {

// Which heuristic penalties a path absorbed (bits accumulate along the tree path).
enum PenaltyBit : uint32_t {
  kPenaltyDeadLink = 1u << 0,
  kPenaltyDeadHost = 1u << 1,     // relayed through a terminal host
  kPenaltyGateway = 1u << 2,      // entered a gatewayed net away from a gateway
  kPenaltyUpDomain = 1u << 3,     // traversed subdomain → parent domain
  kPenaltyDomainRelay = 1u << 4,  // continued past a domain (ARPANET relay rule)
  kPenaltySyntax = 1u << 5,       // ambiguous syntax mixing
};

// One Dijkstra label: a (vertex, taint) state with its best-known path.
struct PathLabel {
  Node* node = nullptr;
  PathLabel* parent = nullptr;
  Link* via = nullptr;
  Cost cost = kUnreached;
  int32_t hops = 0;
  int32_t heap_index = 0;  // 0 == not in the heap
  uint8_t taint = 0;        // 1 if the path passed through a domain
  uint32_t penalties = 0;   // PenaltyBit mask accumulated along the path
  bool mapped = false;
  bool best = false;  // provides its node's reported cost/route
  bool has_left = false;
  bool has_right = false;
  // Shortest-path-tree child list, built by the route printer.
  PathLabel* child = nullptr;
  PathLabel* sibling = nullptr;
};

struct MapOptions {
  // The "second-best path" extension (paper §Problems).
  bool two_label = false;

  // Penalize LEFT-syntax routes extended with a RIGHT link.  Off by default: the
  // paper's own example output ends ...ucbvax!%s@mit-ai without penalty; leftmost-!
  // mailers relay such routes correctly.  RIGHT-then-LEFT is always penalized — no
  // parse of a!user@b delivers by way of b then a.
  bool penalize_left_then_right = false;

  // Break cost ties in favor of shorter paths ("experience shows that the per-hop
  // overhead in time and reliability is so high that it is important to keep paths
  // short").  Off: ties fall to name order only — the ablation of experiment E14.
  bool prefer_fewer_hops = true;

  // Invent reverse links for unreachable hosts and continue mapping.
  bool back_links = true;
  int max_back_link_passes = 16;

  // Build the heap inside the retired hash table's slot array (paper §Calculating
  // shortest paths).  Ignored (with owned storage substituted) if the table was
  // already stolen or is too small.
  bool reuse_hash_table_storage = true;

  // Hosts ("foo") or links ("foo!bar") whose relaxations should be traced (-t).
  std::vector<std::string> trace;
};

class Mapper {
 public:
  struct Result {
    size_t mapped_hosts = 0;       // real hosts with a route (placeholders excluded)
    size_t mapped_labels = 0;
    size_t label_count = 0;
    size_t unreachable_hosts = 0;  // after back-link passes
    size_t invented_links = 0;
    size_t back_link_passes = 0;
    size_t heap_pushes = 0;
    size_t heap_pops = 0;
    size_t relaxations = 0;
    size_t mixed_syntax_routes = 0;     // routes using both ! and @ (mostly benign)
    size_t syntax_penalized_routes = 0;  // routes actually charged kPenaltySyntax (E11)
    size_t penalized_routes = 0;         // routes charged any penalty at all
    bool heap_storage_reused = false;
    // heap_storage_reused came from the arena's donation list (a retired table from an
    // earlier growth) rather than the interner's current probe table — the two_label
    // fallback, where the current table (~1.27v slots) cannot hold 2v+2 labels.
    bool heap_storage_from_donation = false;
    std::vector<Node*> unreachable;      // deterministic (declaration order)
    std::vector<PathLabel*> labels;      // every label created (printer input)
    // Resolves node NameIds for consumers that only hold the Result (route printer);
    // points at the graph's interner and shares its lifetime.
    const NameInterner* names = nullptr;
  };

  Mapper(Graph* graph, MapOptions options);

  // Runs the mapping from graph->local() (must be set).  Resets any prior mapping
  // state on the nodes, so a graph can be mapped repeatedly (benchmarks do).
  Result Run();

  // The heuristic traversal cost described above; exposed so the dense-Dijkstra
  // baseline prices paths identically (experiment E8 compares algorithms, not models).
  // When `penalty_bits` is non-null it receives the PenaltyBits this edge incurred.
  Cost CostOf(const PathLabel& prev, const Link& link, uint32_t* penalty_bits = nullptr) const;

  // Taint/syntax bookkeeping shared with the dense baseline.
  static uint8_t TaintAfter(const PathLabel& prev, const Node& to);
  static void PropagateSyntax(const PathLabel& prev, const Link& link, PathLabel& to);

 private:
  // The domain-sharded parallel mapper reuses CostOf/taint/syntax plus the private
  // back-link and final-accounting passes so the two produce identical results.
  friend class ShardedMapper;

  void ApplyTraceRequests();
  PathLabel* MakeLabel(Node* node, uint8_t taint);
  void Relax(PathLabel& from, Link& link, struct MapperHeap& heap, Result& result);
  // Recomputes the label-derived aggregates (mapped/unreachable/penalty counts) by
  // scanning the graph — shared by Run's and ShardedMapper::Run's final accounting.
  void CollectFinalStats(Result& result) const;
  // Mirrors each link from an unreachable host to a mapped neighbor as an invented
  // neighbor→host link; returns how many it invented.  The graph records every
  // neighbor it gives (or flags with) an invented link, so the pass that follows
  // re-relaxes from Graph::InventedLinkHolders() instead of scanning every node.
  size_t InventBackLinks(Result& result);

  Graph* graph_;
  MapOptions options_;
  Result* result_ = nullptr;  // active only inside Run()
};

}  // namespace pathalias

#endif  // SRC_CORE_MAPPER_H_
