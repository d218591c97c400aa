#include "src/core/mapper.h"

#include <optional>

#include "src/support/binary_heap.h"

namespace pathalias {
namespace {

// Deterministic extraction order: cost, then hop count ("keep paths short"), then name.
// The name tie-break is NameLess: an integer compare of the nodes' name keys, with the
// interner's bytes read only when two distinct names share their first 8 bytes.
struct LabelLess {
  const NameInterner* names = nullptr;
  bool prefer_fewer_hops = true;

  bool operator()(const PathLabel* a, const PathLabel* b) const {
    if (a->cost != b->cost) {
      return a->cost < b->cost;
    }
    if (prefer_fewer_hops && a->hops != b->hops) {
      return a->hops < b->hops;
    }
    if (a->node->name != b->node->name) {
      return NameLess(*a->node, *b->node, *names);
    }
    return a->taint < b->taint;
  }
};

struct LabelIndexHook {
  static void SetIndex(PathLabel* label, int32_t index) { label->heap_index = index; }
  static int32_t GetIndex(const PathLabel* label) { return label->heap_index; }
};

}  // namespace

struct MapperHeap : BinaryHeap<PathLabel*, LabelLess, LabelIndexHook> {
  using BinaryHeap::BinaryHeap;
};

Mapper::Mapper(Graph* graph, MapOptions options) : graph_(graph), options_(std::move(options)) {}

uint8_t Mapper::TaintAfter(const PathLabel& prev, const Node& to) {
  return (prev.taint != 0 || to.domain()) ? 1 : 0;
}

void Mapper::PropagateSyntax(const PathLabel& prev, const Link& link, PathLabel& to) {
  to.has_left = prev.has_left;
  to.has_right = prev.has_right;
  if (link.alias() || link.net_member()) {
    return;  // no operator is emitted for these at print time
  }
  if (link.right_syntax()) {
    to.has_right = true;
  } else {
    to.has_left = true;
  }
}

Cost Mapper::CostOf(const PathLabel& prev, const Link& link, uint32_t* penalty_bits) const {
  if (penalty_bits != nullptr) {
    *penalty_bits = 0;
  }
  if (link.alias()) {
    return prev.cost;  // "by definition"
  }
  auto charge = [&](Cost& cost, uint32_t bit) {
    cost += kInfinity;
    if (penalty_bits != nullptr) {
      *penalty_bits |= bit;
    }
  };
  const Node& from = *prev.node;
  const Node& to = *link.to;
  Cost cost = prev.cost + link.cost;
  if (!from.local()) {
    cost += from.adjust;  // adjust {host(n)}: bias on every path through the host
  }
  if (link.dead()) {
    charge(cost, kPenaltyDeadLink);
  }
  if (from.terminal() && !from.local()) {
    charge(cost, kPenaltyDeadHost);  // dead hosts may receive but not relay
  }
  if (to.gatewayed() && !link.gateway() && !link.invented()) {
    if (to.domain()) {
      // A declared link into a domain is an implicit gateway [R], except going up the
      // domain tree, and except when explicit gateways were declared for it.
      // Going *up* the domain tree (".rutgers.edu" into ".edu") is an integer walk of
      // the interner's precomputed suffix chain — no byte comparisons.
      if (graph_->names().HasSuffix(from.name, to.name)) {
        charge(cost, kPenaltyUpDomain);
      } else if ((to.flags & kNodeExplicitGateways) != 0) {
        charge(cost, kPenaltyGateway);
      }
    } else {
      charge(cost, kPenaltyGateway);  // gatewayed network entered anywhere but a gateway
    }
  }
  // "once a path enters a domain, pathalias penalizes further links" — the ARPANET may
  // not be used as a relay.  Placeholder expansion (net/domain to member) is exempt.
  if (prev.taint != 0 && !from.placeholder()) {
    charge(cost, kPenaltyDomainRelay);
  }
  if (!link.net_member()) {  // net→member edges inherit syntax; no mixing possible here
    if (!link.right_syntax() && prev.has_right) {
      // a!user@b never delivers by way of b then a under any parse.
      charge(cost, kPenaltySyntax);
    } else if (link.right_syntax() && prev.has_left && options_.penalize_left_then_right) {
      charge(cost, kPenaltySyntax);
    }
  }
  if (cost < prev.cost) {
    cost = prev.cost;  // Dijkstra invariant: negative adjustments cannot shorten a prefix
  }
  return cost;
}

void Mapper::ApplyTraceRequests() {
  for (const std::string& request : options_.trace) {
    size_t bang = request.find('!');
    if (bang == std::string::npos) {
      if (Node* node = graph_->Find(request)) {
        node->flags |= kNodeTraced;
      } else {
        graph_->diag().Warn(SourcePos{}, "trace target " + request + " is not in the map");
      }
      continue;
    }
    Node* from = graph_->Find(request.substr(0, bang));
    Node* to = graph_->Find(request.substr(bang + 1));
    bool found = false;
    if (from != nullptr && to != nullptr) {
      for (Link* link = from->links; link != nullptr; link = link->next) {
        if (link->to == to) {
          link->flags |= kLinkTraced;
          found = true;
        }
      }
    }
    if (!found) {
      graph_->diag().Warn(SourcePos{}, "trace target link " + request + " is not in the map");
    }
  }
}

PathLabel* Mapper::MakeLabel(Node* node, uint8_t taint) {
  PathLabel* label = graph_->arena().New<PathLabel>();
  label->node = node;
  label->taint = taint;
  result_->labels.push_back(label);
  ++result_->label_count;
  return label;
}

void Mapper::Relax(PathLabel& from, Link& link, MapperHeap& heap, Result& result) {
  Node* to = link.to;
  if (to->deleted() || from.node->deleted()) {
    return;
  }
  ++result.relaxations;
  uint32_t penalty_bits = 0;
  Cost cost = CostOf(from, link, &penalty_bits);
  uint32_t penalties = from.penalties | penalty_bits;
  uint8_t taint = TaintAfter(from, *to);
  // Default mode keeps one label per node and lets the taint bit ride along as node
  // state — the 1986 approximation.  Two-label mode separates the states.
  uint8_t slot = options_.two_label ? taint : 0;
  int32_t hops = from.hops + (link.alias() ? 0 : 1);

  PathLabel* label = to->label[slot];
  const char* outcome = nullptr;
  if (label == nullptr) {
    label = MakeLabel(to, taint);
    to->label[slot] = label;
    label->cost = cost;
    label->hops = hops;
    label->parent = &from;
    label->via = &link;
    label->taint = taint;
    label->penalties = penalties;
    PropagateSyntax(from, link, *label);
    heap.Push(label);
    ++result.heap_pushes;
    outcome = "queued";
  } else if (!label->mapped) {
    if (cost < label->cost ||
        (cost == label->cost && options_.prefer_fewer_hops && hops < label->hops)) {
      label->cost = cost;
      label->hops = hops;
      label->parent = &from;
      label->via = &link;
      label->taint = taint;
      label->penalties = penalties;
      PropagateSyntax(from, link, *label);
      heap.DecreaseKey(label);
      outcome = "improved";
    } else {
      outcome = "kept";
    }
  } else {
    outcome = "already mapped";
  }
  if (from.node->traced() || to->traced() || link.traced()) {
    graph_->diag().Note(
        SourcePos{}, "trace: " + std::string(graph_->NameOf(from.node)) + " -> " +
                         std::string(graph_->NameOf(to)) + " cost " + std::to_string(cost) +
                         " (" + outcome + ")");
  }
}

void Mapper::CollectFinalStats(Result& result) const {
  result.mapped_hosts = 0;
  result.unreachable_hosts = 0;
  result.mixed_syntax_routes = 0;
  result.syntax_penalized_routes = 0;
  result.penalized_routes = 0;
  result.unreachable.clear();
  for (Node* node : graph_->nodes()) {
    if (node->deleted() || node->placeholder()) {
      continue;
    }
    if (node->cost == kUnreached) {
      ++result.unreachable_hosts;
      result.unreachable.push_back(node);
      continue;
    }
    ++result.mapped_hosts;
    for (uint8_t slot = 0; slot < 2; ++slot) {
      PathLabel* label = node->label[slot];
      if (label == nullptr || !label->best) {
        continue;
      }
      if (label->has_left && label->has_right) {
        ++result.mixed_syntax_routes;
      }
      if ((label->penalties & kPenaltySyntax) != 0) {
        ++result.syntax_penalized_routes;
      }
      if (label->penalties != 0) {
        ++result.penalized_routes;
      }
    }
  }
}

size_t Mapper::InventBackLinks(Result& result) {
  size_t invented = 0;
  // Take a snapshot: AddLink would otherwise extend adjacency lists mid-walk.
  std::vector<std::pair<Node*, Link*>> candidates;
  for (Node* node : graph_->nodes()) {
    if (node->deleted() || node->cost != kUnreached || node->placeholder()) {
      continue;
    }
    for (Link* link = node->links; link != nullptr; link = link->next) {
      if (link->alias() || link->dead() || link->to->deleted()) {
        continue;
      }
      if (link->to->cost != kUnreached) {
        candidates.emplace_back(node, link);
      }
    }
  }
  for (auto [node, link] : candidates) {
    Node* neighbor = link->to;
    Link* back = graph_->AddLink(neighbor, node, link->cost, link->op, link->right_syntax(),
                                 SourcePos{}, kLinkInvented);
    if (back != nullptr && back->invented()) {
      ++invented;
    }
  }
  result.invented_links += invented;
  return invented;
}

Mapper::Result Mapper::Run() {
  Result result;
  result.names = &graph_->names();
  result_ = &result;
  Node* local = graph_->local();
  if (local == nullptr) {
    graph_->diag().Error(SourcePos{}, "no local host set before mapping");
    result_ = nullptr;
    return result;
  }
  for (Node* node : graph_->nodes()) {
    node->label[0] = nullptr;
    node->label[1] = nullptr;
    node->parent = nullptr;
    node->parent_link = nullptr;
    node->cost = kUnreached;
    node->hops = 0;
  }
  ApplyTraceRequests();

  // "since the hash table is no longer needed and is guaranteed to be large enough, we
  // use that space instead of allocating a new array."  The interner's retired probe
  // table plays the original hash table's part.
  size_t max_labels = graph_->node_count() * (options_.two_label ? 2 : 1) + 2;
  PathLabel** storage = nullptr;
  size_t capacity = 0;
  if (options_.reuse_hash_table_storage && !graph_->names().stolen()) {
    auto [ptr, bytes] = graph_->names().StealTable();
    if (bytes / sizeof(PathLabel*) >= max_labels) {
      storage = static_cast<PathLabel**>(ptr);
      capacity = bytes / sizeof(PathLabel*);
    } else {
      if (ptr != nullptr) {
        graph_->arena().Donate(ptr, bytes);
      }
      // two_label needs 2v+2 slots but the table only guarantees ~1.27v.  Retired
      // tables from earlier growths (and oversize-allocation tails) sit on the arena's
      // donation list — steal the largest that fits before giving up on reuse.
      auto [donated, donated_bytes] =
          graph_->arena().TakeDonation(max_labels * sizeof(PathLabel*) + alignof(PathLabel*));
      if (donated != nullptr) {
        auto address = reinterpret_cast<uintptr_t>(donated);
        uintptr_t aligned =
            (address + alignof(PathLabel*) - 1) & ~uintptr_t{alignof(PathLabel*) - 1};
        storage = reinterpret_cast<PathLabel**>(aligned);
        capacity = (donated_bytes - (aligned - address)) / sizeof(PathLabel*);
        result.heap_storage_from_donation = true;
      }
    }
  }
  LabelLess less{&graph_->names(), options_.prefer_fewer_hops};
  std::optional<MapperHeap> heap;
  if (storage != nullptr) {
    heap.emplace(storage, capacity, less);
    result.heap_storage_reused = true;
  } else {
    heap.emplace(less);
  }

  PathLabel* root = MakeLabel(local, local->domain() ? 1 : 0);
  uint8_t root_slot = options_.two_label ? root->taint : 0;
  local->label[root_slot] = root;
  root->cost = 0;
  heap->Push(root);
  ++result.heap_pushes;

  auto drain = [&] {
    while (!heap->empty()) {
      PathLabel* label = heap->PopMin();
      ++result.heap_pops;
      label->mapped = true;
      ++result.mapped_labels;
      Node* node = label->node;
      if (node->cost == kUnreached) {
        // First (hence cheapest) label extracted for this node: it reports the route.
        label->best = true;
        node->cost = label->cost;
        node->hops = label->hops;
        node->parent = label->parent != nullptr ? label->parent->node : nullptr;
        node->parent_link = label->via;
      }
      for (Link* link = node->links; link != nullptr; link = link->next) {
        Relax(*label, *link, *heap, result);
      }
    }
  };

  drain();
  if (options_.back_links) {
    while (result.back_link_passes < static_cast<size_t>(options_.max_back_link_passes)) {
      size_t invented = InventBackLinks(result);
      if (invented == 0) {
        break;
      }
      ++result.back_link_passes;
      // Re-relax the invented links from their (already final) mapped endpoints, then
      // resume the normal extraction loop.  Only nodes holding an invented link have
      // any to relax; walking them in creation order visits the (label, link) pairs
      // a walk of every node would, in the same order.
      for (Node* node : graph_->InventedLinkHolders()) {
        for (uint8_t slot = 0; slot < 2; ++slot) {
          PathLabel* label = node->label[slot];
          if (label == nullptr || !label->mapped) {
            continue;
          }
          for (Link* link = node->links; link != nullptr; link = link->next) {
            if (link->invented()) {
              Relax(*label, *link, *heap, result);
            }
          }
        }
      }
      drain();
    }
  }

  CollectFinalStats(result);
  if (result.heap_storage_from_donation && storage != nullptr) {
    // The heap has drained; recycle the borrowed region for later arena requests.
    graph_->arena().Donate(storage, capacity * sizeof(PathLabel*));
  }
  result_ = nullptr;
  return result;
}

}  // namespace pathalias
