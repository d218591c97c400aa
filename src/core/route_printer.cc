#include "src/core/route_printer.h"

#include <algorithm>
#include <cassert>
#include <charconv>

namespace pathalias {
namespace {

// Same ordering the mapper's heap uses; children are visited cheapest-first.  Names
// order by NameLess, through the interner carried in the mapping result.
bool LabelBefore(const PathLabel* a, const PathLabel* b, const NameInterner& names) {
  if (a->cost != b->cost) {
    return a->cost < b->cost;
  }
  if (a->hops != b->hops) {
    return a->hops < b->hops;
  }
  if (a->node->name != b->node->name) {
    return NameLess(*a->node, *b->node, names);
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

// The parent's route with %s replaced by host-op-%s (left) or %s-op-host (right),
// built in one allocation.
std::string Splice(const std::string& parent_route, const std::string& name, char op,
                   bool right) {
  size_t marker = parent_route.find("%s");
  assert(marker != std::string::npos);
  std::string out;
  out.reserve(parent_route.size() + name.size() + 1);
  out.append(parent_route, 0, marker);
  if (right) {
    // An address may carry only one '@'; a second right-hand hop inside an existing
    // user@host form uses the "underground syntax" the paper describes
    // (user%inner@outer): the outer relay rewrites the % to an @ on arrival.
    char effective = op;
    if (op == '@' && parent_route.find('@', marker + 2) != std::string::npos) {
      effective = '%';
    }
    out += "%s";
    out += effective;
    out += name;
  } else {
    out += name;
    out += op;
    out += "%s";
  }
  out.append(parent_route, marker + 2);
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
    next.route = Splice(frame.route, name, op, right);
    next.display_name = std::move(name);
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
  // Attach each mapped label to its parent's child list, in label order, and note
  // the parents that got two children or more.
  const PathLabel* root = nullptr;
  std::vector<PathLabel*> parents;
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
    PathLabel* parent = label->parent;
    if (parent->child != nullptr && parent->child->sibling == nullptr) {
      parents.push_back(parent);
    }
    label->sibling = parent->child;
    parent->child = label;
  }
  // The label count bounds the printed entries (by under 1% on the 1M-host map),
  // so sizing by it needs no counting pass.
  std::vector<RouteEntry> entries;
  entries.reserve(map_->labels.size());
  if (root == nullptr) {
    return entries;
  }

  // Only the order among siblings reaches the output, so sort each list of two or
  // more, and relink it descending: that is the order the traversal pushes frames
  // in, so the cheapest child ends up on top of the stack.  LabelBefore is a total
  // order, so this is the order one sort of every label would give.
  const NameInterner& names = *map_->names;
  std::vector<PathLabel*> siblings;
  for (PathLabel* parent : parents) {
    siblings.clear();
    for (PathLabel* child = parent->child; child != nullptr; child = child->sibling) {
      siblings.push_back(child);
    }
    std::sort(siblings.begin(), siblings.end(),
              [&names](const PathLabel* a, const PathLabel* b) {
                return LabelBefore(a, b, names);
              });
    parent->child = nullptr;
    for (PathLabel* child : siblings) {
      child->sibling = parent->child;
      parent->child = child;
    }
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

    // Child lists are descending, so pushing in list order leaves the cheapest
    // child on top of the stack — it is popped (and printed) first.  The children
    // are made first so the frame's strings can move into its entry.
    for (const PathLabel* child = label.child; child != nullptr; child = child->sibling) {
      stack.push_back(MakeChildFrame(frame, *child, names));
    }

    if (Printable(label)) {
      Cost cost = options_.first_hop_cost ? frame.first_hop : label.cost;
      entries.push_back(
          RouteEntry{std::move(frame.display_name), std::move(frame.route), cost});
    }
  }
  return entries;
}

std::string RoutePrinter::Render(const std::vector<RouteEntry>& entries,
                                 const PrintOptions& options) {
  char digits[24];
  auto cost_text = [&digits](Cost cost) {
    return std::string_view(digits, std::to_chars(digits, digits + sizeof(digits), cost).ptr);
  };
  size_t size = 0;
  for (const RouteEntry& entry : entries) {
    if (options.include_costs) {
      size += cost_text(entry.cost).size() + 1;
    }
    size += entry.name.size() + entry.route.size() + 2;
  }
  std::string out;
  out.reserve(size);
  for (const RouteEntry& entry : entries) {
    if (options.include_costs) {
      out += cost_text(entry.cost);
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
