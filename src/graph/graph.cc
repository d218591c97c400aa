#include "src/graph/graph.h"

#include <algorithm>

namespace pathalias {

Graph::Graph(Diagnostics* diag) : Graph(diag, Options()) {}

Graph::Graph(Diagnostics* diag, Options options)
    : diag_(diag),
      options_(options),
      names_(&arena_, NameInterner::Options{.fold_case = options.ignore_case,
                                            .initial_capacity = 61}) {}

std::string Graph::Describe(const Node* from, const Node* to) const {
  return std::string(NameOf(from)) + "!" + std::string(NameOf(to));
}

int Graph::BeginFile(std::string_view file_name) {
  files_.emplace_back(file_name);
  current_file_ = static_cast<int>(files_.size()) - 1;
  return current_file_;
}

void Graph::EndFile() { current_file_ = -1; }

Node* Graph::CreateNode(NameId id, bool is_private) {
  Node* node = arena_.New<Node>();
  node->name = id;
  node->order = static_cast<int32_t>(nodes_.size());
  std::string_view name = names_.View(id);
  node->name_key = NameKey(name);
  if (IsDomainName(name)) {
    // Domains are placeholders and always require gateways (paper §Gatewayed networks:
    // "domains and subdomains are assumed to require gateways").
    node->flags |= kNodeDomain | kNodeGatewayed;
  }
  if (is_private) {
    node->flags |= kNodePrivate;
    node->private_file = current_file_;
  }
  nodes_.push_back(node);

  if (id >= by_name_.size()) {
    by_name_.resize(names_.size(), nullptr);
  }
  Node*& chain = by_name_[id];
  if (chain == nullptr) {
    chain = node;
  } else if (is_private) {
    // Private nodes shadow at the head; the global (if any) stays at the tail.
    node->shadow = chain;
    chain = node;
  } else {
    Node* tail = chain;
    while (tail->shadow != nullptr) {
      tail = tail->shadow;
    }
    tail->shadow = node;
  }
  return node;
}

Node* Graph::Find(NameId id) {
  for (Node* node = ChainHead(id); node != nullptr; node = node->shadow) {
    if (Visible(node)) {
      return node;
    }
  }
  return nullptr;
}

Node* Graph::Find(std::string_view name) {
  NameId id = names_.Find(name);
  return id == kNoName ? nullptr : Find(id);
}

Node* Graph::Intern(NameId id) {
  if (Node* existing = Find(id)) {
    return existing;
  }
  return CreateNode(id, /*is_private=*/false);
}

Node* Graph::Intern(std::string_view name) { return Intern(names_.Intern(name)); }

Link* Graph::AddLink(Node* from, Node* to, Cost cost, char op, bool right_syntax,
                     SourcePos pos, uint32_t extra_flags) {
  if (from == to) {
    diag_->Warn(pos, "link from " + std::string(NameOf(from)) + " to itself ignored");
    return nullptr;
  }
  if (cost < 0) {
    diag_->Warn(pos, "negative cost on link " + Describe(from, to) + " clamped to 0");
    cost = 0;
  }
  if ((extra_flags & kLinkInvented) != 0) {
    invented_link_holders_.push_back(from);
  }
  // Duplicate resolution: the same physical link reported twice (usually by the two
  // endpoint sites) keeps the cheaper estimate.
  if (Link* link = link_index_.Find(from, to)) {
    if (link->cost != cost) {
      Severity severity =
          link->decl_file == current_file_ && link->decl_file >= 0 && (extra_flags == 0)
              ? Severity::kWarning
              : Severity::kNote;
      diag_->Report(severity, pos,
                    "duplicate link " + Describe(from, to) + " declared with cost " +
                        std::to_string(cost) + " (previously " + std::to_string(link->cost) +
                        "); keeping the cheaper");
      if (cost < link->cost) {
        link->cost = cost;
        link->op = op;
        if (right_syntax) {
          link->flags |= kLinkRight;
        } else {
          link->flags &= ~static_cast<uint32_t>(kLinkRight);
        }
        link->decl_file = current_file_;
        link->decl_line = pos.line;
      }
    }
    link->flags |= extra_flags;
    return link;
  }
  Link* link = arena_.New<Link>();
  link->to = to;
  link->cost = cost;
  link->op = op;
  link->flags = extra_flags | (right_syntax ? kLinkRight : 0u);
  link->decl_file = current_file_;
  link->decl_line = pos.line;
  if (from->links_tail == nullptr) {
    from->links = link;
  } else {
    from->links_tail->next = link;
  }
  from->links_tail = link;
  link_index_.Insert(from, to, link);
  ++link_count_;
  return link;
}

std::span<Node* const> Graph::InventedLinkHolders() {
  std::sort(invented_link_holders_.begin(), invented_link_holders_.end(),
            [](const Node* a, const Node* b) { return a->order < b->order; });
  invented_link_holders_.erase(
      std::unique(invented_link_holders_.begin(), invented_link_holders_.end()),
      invented_link_holders_.end());
  return invented_link_holders_;
}

void Graph::AddAlias(Node* a, Node* b, SourcePos pos) {
  if (a == b) {
    diag_->Warn(pos, "alias of " + std::string(NameOf(a)) + " to itself ignored");
    return;
  }
  for (Link* link = a->links; link != nullptr; link = link->next) {
    if (link->to == b && link->alias()) {
      return;  // already aliased
    }
  }
  // "A pair of zero cost edges connects aliases."
  for (auto [from, to] : {std::pair{a, b}, std::pair{b, a}}) {
    Link* link = arena_.New<Link>();
    link->to = to;
    link->cost = 0;
    link->flags = kLinkAlias;
    link->decl_file = current_file_;
    link->decl_line = pos.line;
    if (from->links_tail == nullptr) {
      from->links = link;
    } else {
      from->links_tail->next = link;
    }
    from->links_tail = link;
    ++link_count_;
  }
}

Node* Graph::DeclareNet(Node* net, const std::vector<Node*>& members, Cost cost, char op,
                        bool right_syntax, SourcePos pos) {
  if (!net->domain()) {
    net->flags |= kNodeNet;
  }
  for (Node* member : members) {
    if (member == net) {
      diag_->Warn(pos, "network " + std::string(NameOf(net)) + " lists itself as a member");
      continue;
    }
    // "the weight applies only to the edges originating at network members; the weight
    // of edges from the network node to its members is zero."
    AddLink(member, net, cost, op, right_syntax, pos);
    AddLink(net, member, 0, op, right_syntax, pos, kLinkNetMember);
  }
  return net;
}

void Graph::DeclarePrivate(NameId id, SourcePos pos) {
  for (Node* node = ChainHead(id); node != nullptr; node = node->shadow) {
    if (node->is_private() && node->private_file == current_file_) {
      diag_->Warn(pos, "host " + std::string(NameOf(id)) + " is already private in this file");
      return;
    }
  }
  CreateNode(id, /*is_private=*/true);
}

void Graph::DeclarePrivate(std::string_view name, SourcePos pos) {
  DeclarePrivate(names_.Intern(name), pos);
}

void Graph::MarkDeadHost(Node* host, SourcePos pos) {
  (void)pos;
  // A dead host may still receive mail but must not relay it; the mapper charges
  // +kInfinity for every path leaving it.
  host->flags |= kNodeTerminal;
}

void Graph::MarkDeadLink(Node* from, Node* to, SourcePos pos) {
  if (Link* link = link_index_.Find(from, to)) {
    link->flags |= kLinkDead;
    return;
  }
  diag_->Warn(pos, "dead link " + Describe(from, to) + " was never declared; ignored");
}

void Graph::DeleteHost(Node* host, SourcePos pos) {
  (void)pos;
  host->flags |= kNodeDeleted;
}

void Graph::AdjustHost(Node* host, Cost amount, SourcePos pos) {
  (void)pos;
  host->adjust += amount;
}

void Graph::MarkGatewayed(Node* net, SourcePos pos) {
  (void)pos;
  net->flags |= kNodeGatewayed;
}

void Graph::MarkGatewayLink(Node* net, Node* gateway, SourcePos pos) {
  net->flags |= kNodeGatewayed | kNodeExplicitGateways;
  if (Link* link = link_index_.Find(gateway, net)) {
    link->flags |= kLinkGateway;
    return;
  }
  diag_->Note(pos, "gateway " + std::string(NameOf(gateway)) + " had no declared link into " +
                       std::string(NameOf(net)) + "; creating one at zero cost");
  AddLink(gateway, net, 0, kDefaultOp, /*right_syntax=*/false, pos, kLinkGateway);
}

Node* Graph::SetLocal(std::string_view name) {
  Node* node = Find(name);
  if (node == nullptr) {
    diag_->Warn(SourcePos{}, "local host " + std::string(name) +
                                 " does not appear in the map; only trivial routes result");
    node = Intern(name);
  }
  if (local_ != nullptr) {
    local_->flags &= ~static_cast<uint32_t>(kNodeLocal);
  }
  local_ = node;
  node->flags |= kNodeLocal;
  return node;
}

}  // namespace pathalias
