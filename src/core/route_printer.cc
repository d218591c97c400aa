#include "src/core/route_printer.h"

#include <algorithm>
#include <cassert>

namespace pathalias {
namespace {

// Same ordering the mapper's heap uses; children are visited cheapest-first.  Names
// resolve lazily through the interner carried in the mapping result.
bool LabelBefore(const PathLabel* a, const PathLabel* b, const NameInterner& names) {
  if (a->cost != b->cost) {
    return a->cost < b->cost;
  }
  if (a->hops != b->hops) {
    return a->hops < b->hops;
  }
  if (a->node->name != b->node->name) {
    return names.View(a->node->name) < names.View(b->node->name);
  }
  if (a->taint != b->taint) {
    return a->taint < b->taint;
  }
  // Shadow (private) instances share a NameId and can tie on every field above;
  // creation order makes the sort total, so the emitted order is a function of
  // the mapping alone — not of how the labels vector happened to be laid out.
  // The sharded mapper's byte-identity guarantee rides on this.
  return a->node->order < b->node->order;
}

// The parent's route with %s replaced by host-op-%s (left) or %s-op-host (right).
std::string Splice(const std::string& parent_route, const std::string& name, char op,
                   bool right) {
  size_t marker = parent_route.find("%s");
  assert(marker != std::string::npos);
  std::string replacement;
  if (right) {
    // An address may carry only one '@'; a second right-hand hop inside an existing
    // user@host form uses the "underground syntax" the paper describes
    // (user%inner@outer): the outer relay rewrites the % to an @ on arrival.
    char effective = op;
    if (op == '@' && parent_route.find('@', marker + 2) != std::string::npos) {
      effective = '%';
    }
    replacement = "%s" + std::string(1, effective) + name;
  } else {
    replacement = name + std::string(1, op) + "%s";
  }
  std::string out = parent_route;
  out.replace(marker, 2, replacement);
  return out;
}

struct Frame {
  const PathLabel* label = nullptr;
  // pathalint: allow(R1): print-walk scratch — output text being composed
  // (domainized names), not a key; see RouteEntry::name.
  std::string display_name;
  std::string route;
  // Suffix appended to successor names while descending a domain chain (the domain's
  // own name, already combined with its domain ancestors').
  // pathalint: allow(R1): print-walk scratch — accumulated ".domain" spelling for
  // the subtree being rendered; exists only during output composition.
  std::string domain_suffix;
  // Syntax captured when this placeholder chain was entered.
  char entry_op = kDefaultOp;
  bool entry_right = false;
  Cost first_hop = 0;
};

// The paper's name-appending rule, tolerant of both declaration conventions: split
// names (.rutgers under .edu → append) and fully qualified ones (.rutgers.edu under
// .edu → already carries the suffix, append nothing).
std::string Domainize(std::string_view name, const Node& parent, const std::string& suffix) {
  if (!parent.domain() || suffix.empty()) {
    return std::string(name);
  }
  if (name.size() > suffix.size() && name.ends_with(suffix)) {
    return std::string(name);
  }
  return std::string(name) + suffix;
}

// The preorder traversal's descent step: the frame for `child` given its parent's
// frame.
Frame MakeChildFrame(const Frame& frame, const PathLabel& child, const NameInterner& names) {
  const PathLabel& label = *frame.label;
  const Node& node = *label.node;
  const Link& via = *child.via;
  const Node& child_node = *child.node;
  Frame next;
  next.label = &child;
  next.first_hop = label.parent == nullptr ? child.cost : frame.first_hop;
  if (via.alias()) {
    // Same machine, other name: the route (and any pending domain context) carries
    // over unchanged; only the displayed name differs.
    next.display_name = std::string(names.View(child_node.name));
    next.route = frame.route;
    next.domain_suffix = frame.domain_suffix;
    next.entry_op = frame.entry_op;
    next.entry_right = frame.entry_right;
  } else if (child_node.placeholder()) {
    // "the route to a network is identical to the route to its parent."
    next.route = frame.route;
    next.display_name = std::string(names.View(child_node.name));
    if (node.placeholder()) {
      next.entry_op = frame.entry_op;  // stay with the syntax used at entry
      next.entry_right = frame.entry_right;
    } else {
      next.entry_op = via.op;
      next.entry_right = via.right_syntax();
    }
    if (child_node.domain()) {
      next.domain_suffix = Domainize(names.View(child_node.name), node, frame.domain_suffix);
    }
  } else {
    // A real host: splice it into the parent's route.  Under a domain its name is
    // extended with the accumulated domain suffix first.
    std::string name = Domainize(names.View(child_node.name), node, frame.domain_suffix);
    char op = node.placeholder() ? frame.entry_op : via.op;
    bool right = node.placeholder() ? frame.entry_right : via.right_syntax();
    next.display_name = name;
    next.route = Splice(frame.route, name, op, right);
  }
  return next;
}

bool Printable(const PathLabel& label) {
  const Node& node = *label.node;
  if (!label.best || node.is_private() || node.deleted()) {
    return false;
  }
  if (node.domain()) {
    // "a top level domain, i.e., a domain whose parent is not also a domain, is shown
    // in the output."
    const Node* parent = label.parent != nullptr ? label.parent->node : nullptr;
    return parent != nullptr && !parent->domain();
  }
  return !node.net();
}

}  // namespace

std::vector<RouteEntry> RoutePrinter::Build() {
  std::vector<RouteEntry> entries;
  entries.reserve(map_->mapped_hosts);
  // Attach each mapped label to its parent's child list.  Pushing in ascending
  // order leaves every child list descending, which is exactly the order the
  // traversal wants to push frames (cheapest child ends up on top of the stack)
  // — no per-node child buffer or reversal on the emission path.
  std::vector<PathLabel*> mapped;
  const PathLabel* root = nullptr;
  for (PathLabel* label : map_->labels) {
    label->child = nullptr;
    label->sibling = nullptr;
  }
  for (PathLabel* label : map_->labels) {
    if (!label->mapped) {
      continue;
    }
    if (label->parent == nullptr) {
      root = label;
      continue;
    }
    mapped.push_back(label);
  }
  const NameInterner& names = *map_->names;
  std::sort(mapped.begin(), mapped.end(), [&names](const PathLabel* a, const PathLabel* b) {
    return LabelBefore(a, b, names);
  });
  for (PathLabel* label : mapped) {
    label->sibling = label->parent->child;
    label->parent->child = label;
  }
  if (root == nullptr) {
    return entries;
  }

  std::vector<Frame> stack;
  Frame root_frame;
  root_frame.label = root;
  root_frame.display_name = std::string(names.View(root->node->name));
  root_frame.route = "%s";
  stack.push_back(std::move(root_frame));

  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    const PathLabel& label = *frame.label;

    if (Printable(label)) {
      Cost cost = options_.first_hop_cost ? frame.first_hop : label.cost;
      entries.push_back(RouteEntry{frame.display_name, frame.route, cost});
    }

    // Child lists are descending, so pushing in list order leaves the cheapest
    // child on top of the stack — it is popped (and printed) first.
    for (const PathLabel* child = label.child; child != nullptr; child = child->sibling) {
      stack.push_back(MakeChildFrame(frame, *child, names));
    }
  }
  return entries;
}

std::string RoutePrinter::Render(const std::vector<RouteEntry>& entries,
                                 const PrintOptions& options) {
  std::string out;
  for (const RouteEntry& entry : entries) {
    if (options.include_costs) {
      out += std::to_string(entry.cost);
      out += '\t';
    }
    out += entry.name;
    out += '\t';
    out += entry.route;
    out += '\n';
  }
  return out;
}

std::string RoutePrinter::SpliceUser(std::string_view route, std::string_view argument) {
  size_t marker = route.find("%s");
  if (marker == std::string_view::npos) {
    return std::string(route);
  }
  std::string out(route);
  out.replace(marker, 2, argument);
  return out;
}

}  // namespace pathalias
