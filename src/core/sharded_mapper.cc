#include "src/core/sharded_mapper.h"

#include <algorithm>
#include <memory>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/exec/thread_pool.h"
#include "src/support/binary_heap.h"

namespace pathalias {
namespace {

// Mapper.cc keeps its heap order and index hook file-local; the sharded engine
// needs the same order for its per-shard heaps, so it carries its own copies.
struct ShardLabelLess {
  const NameInterner* names = nullptr;

  bool operator()(const PathLabel* a, const PathLabel* b) const {
    if (a->cost != b->cost) {
      return a->cost < b->cost;
    }
    if (a->hops != b->hops) {
      return a->hops < b->hops;
    }
    if (a->node->name != b->node->name) {
      return NameLess(*a->node, *b->node, *names);
    }
    return a->taint < b->taint;
  }
};

struct ShardLabelIndexHook {
  static void SetIndex(PathLabel* label, int32_t index) { label->heap_index = index; }
  static int32_t GetIndex(const PathLabel* label) { return label->heap_index; }
};

struct ShardHeap : BinaryHeap<PathLabel*, ShardLabelLess, ShardLabelIndexHook> {
  using BinaryHeap::BinaryHeap;
};

// The parent-side facts a label's stored state was computed from, snapshotted at
// apply time.  Two jobs:
//   * thread safety — during a parallel drain, tie election must compare against
//     the incumbent parent's key, but that parent may live in another shard and be
//     concurrently rewritten by its owner.  The snapshot is owned by the child's
//     shard, so reads never cross a shard boundary mid-round;
//   * staleness detection — if a re-relaxation over the stored support edge finds
//     the snapshot out of date, the label was built from values that no longer
//     hold (see RelaxInto).
struct Support {
  Cost cost = 0;
  int32_t hops = 0;
  uint8_t taint = 0;
  bool via_alias = false;
};

// A relaxation whose target lives in another shard, deferred to the coordinator.
struct Offer {
  PathLabel* from;
  Link* link;
};

struct ShardState {
  ShardHeap heap;
  std::vector<Node*> members;  // dense local index, graph order within the shard
  std::vector<Offer> outbox;
  size_t pushes = 0;
  size_t pops = 0;
  size_t relaxations = 0;
  const char* refusal = nullptr;

  explicit ShardState(ShardLabelLess less) : heap(less) {}

  void Refuse(const char* reason) {
    if (refusal == nullptr) {
      refusal = reason;
    }
  }
};

}  // namespace

struct ShardedMapper::State {
  std::vector<int32_t> shard_of;        // by node->order
  std::vector<Support> support;         // by node->order, owned by the node's shard
  PathLabel* labels = nullptr;          // arena pool, one slot per node->order
  std::vector<std::unique_ptr<ShardState>> shards;
  exec::ThreadPool* workers = nullptr;
};

ShardedMapper::ShardedMapper(Graph* graph, MapOptions options, ShardOptions shard_options)
    : graph_(graph),
      options_(std::move(options)),
      shard_options_(shard_options),
      mapper_(graph, options_) {}

const char* ShardedMapper::GateReason() const {
  if (shard_options_.shards <= 1) {
    return "shard count <= 1";
  }
  // The parallel schedule reproduces the default mapping mode only: the exactness
  // argument (monotone (cost, hops) keys, parent election at ties; see the header)
  // holds under these gates and no others.
  if (options_.two_label) {
    return "two-label mode";
  }
  if (!options_.trace.empty()) {
    return "trace requests";
  }
  if (!options_.prefer_fewer_hops) {
    return "hop tie-break disabled";
  }
  if (graph_->local() == nullptr) {
    return "no local host";
  }
  if (graph_->node_count() < shard_options_.min_nodes) {
    return "map below sharding threshold";
  }
  return nullptr;
}

namespace {

// The partition key: the top of a node's domain-suffix subtree.  "m1.cs.rutgers"
// walks its interner suffix chain to ".rutgers"; a top-level domain (".rutgers"
// itself — dotted, but chainless) roots its own group; undotted hosts have no
// chain and share the kNoName ("flat") group.
NameId GroupRoot(const NameInterner& names, const Node& node) {
  NameId last = kNoName;
  for (NameId s = names.Suffix(node.name); s != kNoName; s = names.Suffix(s)) {
    last = s;
  }
  if (last != kNoName) {
    return last;
  }
  std::string_view name = names.View(node.name);
  return (!name.empty() && name.front() == '.') ? node.name : kNoName;
}

}  // namespace

const char* ShardedMapper::BuildPartition(State& state) {
  const NameInterner& names = graph_->names();
  size_t node_count = graph_->node_count();
  state.shard_of.assign(node_count, 0);

  // Groups in first-encounter (graph) order — deterministic input to the packer.
  struct Group {
    NameId root;
    size_t size = 0;
  };
  std::vector<Group> groups;
  std::unordered_map<NameId, size_t> group_index;
  std::vector<size_t> group_of(node_count, 0);
  for (Node* node : graph_->nodes()) {
    NameId root = GroupRoot(names, *node);
    auto [it, inserted] = group_index.try_emplace(root, groups.size());
    if (inserted) {
      groups.push_back(Group{root, 0});
    }
    ++groups[it->second].size;
    group_of[static_cast<size_t>(node->order)] = it->second;
    if (root == kNoName) {
      ++stats_.flat_nodes;
    }
  }
  stats_.groups = groups.size();

  size_t largest_group = 0;
  for (const Group& group : groups) {
    largest_group = std::max(largest_group, group.size);
  }
  if (static_cast<double>(largest_group) >
      shard_options_.max_group_share * static_cast<double>(node_count)) {
    return "degenerate partition (one suffix subtree dominates)";
  }

  // Deterministic greedy bin-packing: groups by size descending (first-encounter
  // order breaks ties), each into the least-loaded shard (lowest index on ties).
  int shard_count = std::min<int>(shard_options_.shards, static_cast<int>(groups.size()));
  std::vector<size_t> order(groups.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return groups[a].size > groups[b].size; });
  std::vector<size_t> load(static_cast<size_t>(shard_count), 0);
  std::vector<int32_t> shard_of_group(groups.size(), 0);
  for (size_t g : order) {
    int best = 0;
    for (int s = 1; s < shard_count; ++s) {
      if (load[static_cast<size_t>(s)] < load[static_cast<size_t>(best)]) {
        best = s;
      }
    }
    shard_of_group[g] = best;
    load[static_cast<size_t>(best)] += groups[g].size;
  }

  ShardLabelLess less{&names};
  state.shards.reserve(static_cast<size_t>(shard_count));
  for (int s = 0; s < shard_count; ++s) {
    state.shards.push_back(std::make_unique<ShardState>(less));
    state.shards.back()->members.reserve(load[static_cast<size_t>(s)]);
  }
  for (Node* node : graph_->nodes()) {
    int32_t shard = shard_of_group[group_of[static_cast<size_t>(node->order)]];
    state.shard_of[static_cast<size_t>(node->order)] = shard;
    state.shards[static_cast<size_t>(shard)]->members.push_back(node);
  }
  stats_.shards_used = shard_count;
  stats_.largest_shard_nodes = *std::max_element(load.begin(), load.end());
  return nullptr;
}

PathLabel* ShardedMapper::MakeLabel(State& state, Node* node) {
  PathLabel* label = new (&state.labels[node->order]) PathLabel();
  label->node = node;
  node->label[0] = label;
  return label;
}

// The order-independent relax rule.  Unlike Mapper::Relax (label-setting: a popped
// label is final, equal-key arrivals lose to whoever came first), shards drain out
// of global key order, so this is label-correcting: every arrival is weighed
// against the stored state on its merits, and the winner of an equal-(cost, hops)
// tie is *elected* by the rule a full run provably follows (see the header
// comment): the parent with the earlier key relaxed first; equal-key parents pop in
// LabelLess order; alias-warped ties (either arrival over an alias edge, or either
// parent's own value reached over one) depend on flood order no local rule can
// reconstruct — those refuse, and the run falls back to the exact serial mapper.
void ShardedMapper::RelaxInto(State& state, PathLabel& from, Link& link) {
  Node* to = link.to;
  if (to->deleted() || from.node->deleted()) {
    return;
  }
  ShardState& owner = *state.shards[static_cast<size_t>(state.shard_of[to->order])];
  ++owner.relaxations;
  uint32_t penalty_bits = 0;
  Cost cost = mapper_.CostOf(from, link, &penalty_bits);
  uint32_t penalties = from.penalties | penalty_bits;
  uint8_t taint = Mapper::TaintAfter(from, *to);
  int32_t hops = from.hops + (link.alias() ? 0 : 1);
  bool from_via_alias = from.via != nullptr && from.via->alias();

  auto apply = [&](PathLabel* label) {
    label->cost = cost;
    label->hops = hops;
    label->parent = &from;
    label->via = &link;
    label->taint = taint;
    label->penalties = penalties;
    Mapper::PropagateSyntax(from, link, *label);
    Support& support = state.support[static_cast<size_t>(to->order)];
    support.cost = from.cost;
    support.hops = from.hops;
    support.taint = from.taint;
    support.via_alias = from_via_alias;
  };
  auto enqueue = [&](PathLabel* label) {
    if (!owner.heap.Contains(label)) {
      owner.heap.Push(label);
      ++owner.pushes;
    }
  };

  PathLabel* label = to->label[0];
  if (label == nullptr) {
    label = MakeLabel(state, to);
    apply(label);
    enqueue(label);
    return;
  }
  if (label->mapped) {
    // Frozen at a back-link pass boundary.  The serial run treats every label from
    // an earlier pass as final ("already mapped"): a cheaper route discovered via
    // invented links does NOT propagate into it — the paper's known 1986 flaw
    // (§Problems), which byte-identity obliges us to reproduce, not repair.
    return;
  }
  if (label->parent == nullptr) {
    return;  // the root label: nothing re-parents it
  }

  bool better = cost < label->cost || (cost == label->cost && hops < label->hops);
  bool equal = cost == label->cost && hops == label->hops;

  if (better) {
    apply(label);
    if (owner.heap.Contains(label)) {
      owner.heap.DecreaseKey(label);
    } else {
      enqueue(label);
    }
    return;
  }

  if (equal) {
    if (label->parent->node == from.node) {
      // Same parent (AddLink dedupes (from, to), so same link too, unless one is
      // an alias edge — and alias vs. real arrivals differ in hops, never tying).
      // Re-apply only if the parent's state actually moved since the stored apply;
      // the field check is what makes the refresh terminate.
      const Support& support = state.support[static_cast<size_t>(to->order)];
      PathLabel probe;
      Mapper::PropagateSyntax(from, link, probe);
      bool changed = label->via != &link || label->taint != taint ||
                     label->penalties != penalties || label->has_left != probe.has_left ||
                     label->has_right != probe.has_right || support.cost != from.cost ||
                     support.hops != from.hops || support.taint != from.taint ||
                     support.via_alias != from_via_alias;
      if (changed) {
        apply(label);  // key unchanged: any heap position stays valid
        enqueue(label);
      }
      return;
    }
    // Distinct parents at an equal key: elect the full run's winner.  The
    // incumbent parent's key/fields come from the child's Support snapshot — never
    // from the (possibly foreign, possibly mid-rewrite) parent label itself.  The
    // incumbent parent's *node* is safe to read: a label's node pointer is set
    // once at creation.
    const Support& support = state.support[static_cast<size_t>(to->order)];
    if (from.parent == label) {
      return;  // cycle echo: the candidate parent is this label's own tree child
    }
    if (support.cost != from.cost || support.hops != from.hops) {
      // Parents at different (cost, hops) popped in that order in the full run.
      bool candidate_first = from.cost < support.cost ||
                             (from.cost == support.cost && from.hops < support.hops);
      if (candidate_first) {
        apply(label);
        enqueue(label);
      }
      return;
    }
    if (link.alias() || (label->via != nullptr && label->via->alias()) ||
        support.via_alias || from_via_alias) {
      owner.Refuse("ambiguous alias tie");
      return;
    }
    // Equal-key parents pop in LabelLess order: cost and hops already tie, so the
    // comparison falls to name, then taint.
    const Node& incumbent = *label->parent->node;
    bool candidate_wins = from.node->name != incumbent.name
                              ? NameLess(*from.node, incumbent, graph_->names())
                              : from.taint < support.taint;
    if (candidate_wins) {
      apply(label);
      enqueue(label);
    }
    return;
  }

  // Worse — normally a no-op.  But if this arrival travels the label's own stored
  // support edge, the label was built from parent values that have since changed
  // for the worse (a tie election upstream flipped a penalty bit).  Repairing in
  // place can let mutually-supporting stale values survive, so refuse; values are
  // otherwise monotone non-increasing, which is what makes the fixpoint exact.
  if (label->parent == &from && label->via == &link) {
    owner.Refuse("stale support after an upstream tie flip");
  }
}

void ShardedMapper::DrainShard(State& state, int shard) {
  ShardState& self = *state.shards[static_cast<size_t>(shard)];
  while (!self.heap.empty() && self.refusal == nullptr) {
    PathLabel* label = self.heap.PopMin();
    ++self.pops;
    // Intra-shard relaxations apply directly (the target's label, support slot and
    // heap all belong to this shard); boundary relaxations are deferred to the
    // serial coordinator, which owns every shard between rounds.
    for (Link* link = label->node->links; link != nullptr; link = link->next) {
      if (state.shard_of[link->to->order] == shard) {
        RelaxInto(state, *label, *link);
      } else {
        self.outbox.push_back(Offer{label, link});
      }
    }
  }
}

const char* ShardedMapper::FirstRefusal(const State& state) const {
  for (const auto& shard : state.shards) {
    if (shard->refusal != nullptr) {
      return shard->refusal;
    }
  }
  return nullptr;
}

// Parallel drains alternating with serial merges until global quiescence.  The
// merge applies outboxes in shard-index order, emission order within — the whole
// schedule is a deterministic function of the round-start state, so reruns (and
// thread counts) cannot change the outcome, only the wall clock.
const char* ShardedMapper::RunRounds(State& state) {
  for (;;) {
    bool any = false;
    for (const auto& shard : state.shards) {
      if (!shard->heap.empty()) {
        any = true;
        break;
      }
    }
    if (!any) {
      return nullptr;
    }
    if (static_cast<int>(++stats_.rounds) > shard_options_.max_rounds) {
      return "round cap exceeded";
    }
    state.workers->Run(static_cast<int>(state.shards.size()),
                       [&](int shard) { DrainShard(state, shard); });
    if (const char* refusal = FirstRefusal(state)) {
      return refusal;
    }
    for (auto& shard : state.shards) {
      stats_.cross_offers += shard->outbox.size();
      for (const Offer& offer : shard->outbox) {
        RelaxInto(state, *offer.from, *offer.link);
      }
      shard->outbox.clear();
    }
    if (const char* refusal = FirstRefusal(state)) {
      return refusal;
    }
  }
}

Mapper::Result ShardedMapper::Fallback(std::string reason) {
  stats_.engaged = false;
  stats_.fallback_reason = std::move(reason);
  // Mapper::Run resets all per-node mapping state, so a partial sharded attempt
  // leaves nothing behind.  A fallback taken after a back-link pass leaves the
  // invented links in the graph; Run reaches their targets in its first drain
  // instead of its own back-link pass — same labels, same routes, fewer recorded
  // passes.
  return mapper_.Run();
}

Mapper::Result ShardedMapper::Finalize(State& state, Mapper::Result result) {
  // Every label is final: one label per node, reported by that node.  The labels
  // list is in graph order rather than the serial run's creation order — the route
  // printer sorts with a total order, so emission cannot tell the difference.
  for (Node* node : graph_->nodes()) {
    PathLabel* label = node->label[0];
    if (label == nullptr) {
      continue;
    }
    label->mapped = true;
    label->best = true;
    node->cost = label->cost;
    node->hops = label->hops;
    node->parent = label->parent != nullptr ? label->parent->node : nullptr;
    node->parent_link = label->via;
    result.labels.push_back(label);
  }
  result.label_count = result.labels.size();
  result.mapped_labels = result.label_count;
  for (const auto& shard : state.shards) {
    result.heap_pushes += shard->pushes;
    result.heap_pops += shard->pops;
    result.relaxations += shard->relaxations;
  }
  mapper_.CollectFinalStats(result);
  return result;
}

Mapper::Result ShardedMapper::Run() {
  stats_ = ShardStats{};
  if (const char* gate = GateReason()) {
    return Fallback(gate);
  }
  State state;
  if (const char* why = BuildPartition(state)) {
    return Fallback(why);
  }
  stats_.engaged = true;

  Mapper::Result result;
  result.names = &graph_->names();
  for (Node* node : graph_->nodes()) {
    node->label[0] = nullptr;
    node->label[1] = nullptr;
    node->parent = nullptr;
    node->parent_link = nullptr;
    node->cost = kUnreached;
    node->hops = 0;
  }
  // One pool slot per node, from the graph's arena (label lifetime matches the
  // serial mapper's); slots are placement-constructed on first reach.
  state.labels = graph_->arena().NewArray<PathLabel>(graph_->node_count());
  state.support.assign(graph_->node_count(), Support{});

  int width = shard_options_.threads > 0 ? shard_options_.threads
                                         : exec::ThreadPool::HardwareWidth();
  width = std::clamp(width, 1, stats_.shards_used);
  exec::ThreadPool workers(width);
  state.workers = &workers;

  Node* local = graph_->local();
  PathLabel* root = MakeLabel(state, local);
  root->cost = 0;
  root->taint = local->domain() ? 1 : 0;
  ShardState& root_shard = *state.shards[static_cast<size_t>(state.shard_of[local->order])];
  root_shard.heap.Push(root);
  ++root_shard.pushes;

  if (const char* why = RunRounds(state)) {
    return Fallback(why);
  }
  if (options_.back_links) {
    while (result.back_link_passes < static_cast<size_t>(options_.max_back_link_passes)) {
      // Back-link invention happens at global quiescence — the same pass boundary
      // the serial run uses — over node costs synced from the final labels, so the
      // candidate scan and AddLink order are identical to Mapper::Run's.  Every
      // label alive at the boundary is frozen (serial marked it mapped when it
      // popped): later passes may reach *new* nodes through it but never rewrite
      // it, even when an invented link exposes a cheaper route — the 1986
      // label-setting behavior the byte-identity guarantee includes.
      for (Node* node : graph_->nodes()) {
        PathLabel* label = node->label[0];
        if (label != nullptr) {
          label->mapped = true;
        }
        node->cost = label != nullptr ? label->cost : kUnreached;
      }
      size_t invented = mapper_.InventBackLinks(result);
      if (invented == 0) {
        break;
      }
      ++result.back_link_passes;
      // Seed the pass from frozen labels only — the labels that existed at the
      // boundary — exactly the serial run's `label->mapped` seeding filter; labels
      // created mid-loop by these very relaxations are not sources until they
      // drain in the rounds below.  Only nodes holding an invented link have any
      // to relax, and the graph lists them in creation order.
      for (Node* node : graph_->InventedLinkHolders()) {
        PathLabel* label = node->label[0];
        if (label == nullptr || !label->mapped) {
          continue;
        }
        for (Link* link = node->links; link != nullptr; link = link->next) {
          if (link->invented()) {
            RelaxInto(state, *label, *link);
          }
        }
      }
      if (const char* refusal = FirstRefusal(state)) {
        return Fallback(refusal);
      }
      if (const char* why = RunRounds(state)) {
        return Fallback(why);
      }
    }
  }
  return Finalize(state, std::move(result));
}

}  // namespace pathalias
