#include "src/baseline/dense_dijkstra.h"

namespace pathalias {
namespace {

// Mirror of the heap mapper's tie-break so both algorithms pick identical trees.
bool LabelBefore(const PathLabel& a, const PathLabel& b, const NameInterner& names) {
  if (a.cost != b.cost) {
    return a.cost < b.cost;
  }
  if (a.hops != b.hops) {
    return a.hops < b.hops;
  }
  return NameLess(*a.node, *b.node, names);
}

}  // namespace

DenseDijkstraResult DenseDijkstra(Graph* graph, const MapOptions& options) {
  DenseDijkstraResult result;
  Node* local = graph->local();
  if (local == nullptr) {
    return result;
  }
  // Pricing must match the production mapper exactly; borrow its cost function.
  MapOptions pricing = options;
  pricing.two_label = false;
  Mapper cost_model(graph, pricing);

  std::span<Node* const> nodes = graph->nodes();
  result.labels.resize(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    result.labels[i].node = nodes[i];
    result.labels[i].cost = kUnreached;
  }
  PathLabel& root = result.labels[static_cast<size_t>(local->order)];
  root.cost = 0;
  root.taint = local->domain() ? 1 : 0;

  for (;;) {
    // Extract-min by full scan: the Θ(v²) loop the paper's heap variant replaces.
    PathLabel* current = nullptr;
    for (PathLabel& label : result.labels) {
      ++result.scans;
      if (label.mapped || label.cost == kUnreached || label.node->deleted()) {
        continue;
      }
      if (current == nullptr || LabelBefore(label, *current, graph->names())) {
        current = &label;
      }
    }
    if (current == nullptr) {
      break;
    }
    current->mapped = true;
    current->best = true;
    ++result.mapped;
    for (Link* link = current->node->links; link != nullptr; link = link->next) {
      Node* to = link->to;
      if (to->deleted()) {
        continue;
      }
      ++result.relaxations;
      PathLabel& target = result.labels[static_cast<size_t>(to->order)];
      if (target.mapped) {
        continue;
      }
      Cost cost = cost_model.CostOf(*current, *link);
      int32_t hops = current->hops + (link->alias() ? 0 : 1);
      if (cost < target.cost || (cost == target.cost && hops < target.hops)) {
        target.cost = cost;
        target.hops = hops;
        target.parent = current;
        target.via = link;
        target.taint = Mapper::TaintAfter(*current, *to);
        Mapper::PropagateSyntax(*current, *link, target);
      }
    }
  }
  return result;
}

}  // namespace pathalias
