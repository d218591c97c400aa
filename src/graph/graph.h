// The in-memory connectivity graph (paper §Data structures).
//
// Owns the arena every Node/Link lives in, the name interner every NameId resolves
// through, and the semantic rules the input language needs:
//   * private-name scoping — identically named hosts in different files stay distinct
//     (paper §Host name collisions), implemented as shadow chains hanging off the
//     NameId-indexed node vector rather than by deletion;
//   * duplicate-link resolution — the same link declared twice keeps the cheaper cost
//     [R: the paper notes file boundaries matter here but not the rule; cheapest-wins
//     with a warning on conflicting same-file declarations is our reconstruction].
//     The first declaration is found through a (from, to) hash index (LinkIndex), not
//     by walking the source's adjacency list, so a 20,000-member net costs O(members);
//   * network declarations — a net is a single placeholder node with member→net edges
//     at the declared cost and net→member edges at zero ("you pay to get into the City,
//     but you get back to Jersey for free");
//   * aliases — pairs of zero-cost ALIAS edges; "aliases are a property of edges, not
//     vertices", so nosc (ARPANET) and noscvax (UUCP) resolve per-route;
//   * dead / delete / adjust / gatewayed / gateway declarations.

#ifndef SRC_GRAPH_GRAPH_H_
#define SRC_GRAPH_GRAPH_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/link.h"
#include "src/graph/link_index.h"
#include "src/graph/node.h"
#include "src/support/arena.h"
#include "src/support/diag.h"
#include "src/support/interner.h"

namespace pathalias {

class Graph {
 public:
  struct Options {
    bool ignore_case = false;  // -i: fold host names to lower case
  };

  explicit Graph(Diagnostics* diag);
  Graph(Diagnostics* diag, Options options);

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  // --- input file scoping (drives private-name visibility) ---

  // Starts reading a named input file; returns its index.
  int BeginFile(std::string_view file_name);
  void EndFile();
  const std::vector<std::string>& files() const { return files_; }
  int current_file() const { return current_file_; }

  // --- names ---

  // Interns a name (case-normalized per Options) without creating a node.  This is the
  // tokenization entry point: every name the parser sees passes through here once, and
  // all later layers reuse the returned id.
  NameId InternName(std::string_view name) { return names_.Intern(name); }

  // Resolves a node's (or any interned) name.  O(1); the interner owns the bytes.
  std::string_view NameOf(const Node* node) const { return names_.View(node->name); }
  std::string_view NameOf(NameId id) const { return names_.View(id); }

  NameInterner& names() { return names_; }
  const NameInterner& names() const { return names_; }

  // Presizes the interner for `names` names and the link index for `links` links in
  // all, so a caller that can estimate its input spares both tables their growth
  // rehashes.  Estimates only: either table still grows past them.
  void Reserve(size_t names, size_t links) {
    names_.Reserve(names);
    link_index_.Reserve(links);
  }

  // --- node and link construction ---

  // Finds the visible node named `name`, creating a global one if absent.
  Node* Intern(std::string_view name);
  Node* Intern(NameId id);

  // Finds the visible node named `name`; nullptr if none exists.
  Node* Find(std::string_view name);
  Node* Find(NameId id);

  // Adds a directed edge.  Returns the link (a pre-existing one if this declaration
  // duplicates it), or nullptr for a rejected self-link.
  Link* AddLink(Node* from, Node* to, Cost cost, char op, bool right_syntax, SourcePos pos,
                uint32_t extra_flags = 0);

  // Declares `a` and `b` to be the same machine (a pair of zero-cost ALIAS edges).
  void AddAlias(Node* a, Node* b, SourcePos pos);

  // Finds the non-alias from→to link; nullptr if absent.
  Link* FindLink(Node* from, Node* to) const { return link_index_.Find(from, to); }

  // Every node AddLink gave (or flagged with) a kLinkInvented link, in creation order
  // without repeats: the only nodes a back-link pass re-relaxes from.  Invented links
  // outlive a mapping run, so the list spans every run over this graph.
  std::span<Node* const> InventedLinkHolders();

  // NAME = op{members}(cost): placeholder node, member→net at `cost`, net→member at 0.
  Node* DeclareNet(Node* net, const std::vector<Node*>& members, Cost cost, char op,
                   bool right_syntax, SourcePos pos);

  // --- keyword declarations ---

  void DeclarePrivate(NameId id, SourcePos pos);
  void DeclarePrivate(std::string_view name, SourcePos pos);
  void MarkDeadHost(Node* host, SourcePos pos);
  void MarkDeadLink(Node* from, Node* to, SourcePos pos);
  void DeleteHost(Node* host, SourcePos pos);
  void AdjustHost(Node* host, Cost amount, SourcePos pos);
  void MarkGatewayed(Node* net, SourcePos pos);
  // Declares `gateway` a sanctioned entry into `net`: flags the gateway→net link,
  // creating it at zero cost if the map never declared one.
  void MarkGatewayLink(Node* net, Node* gateway, SourcePos pos);

  // --- the distinguished source vertex ---

  // Names the local host (the Dijkstra source).  Creates the node if the map never
  // mentioned it (with a warning: routes will then only cover the local host itself).
  Node* SetLocal(std::string_view name);
  Node* local() const { return local_; }

  // --- introspection ---

  std::span<Node* const> nodes() const { return nodes_; }
  size_t node_count() const { return nodes_.size(); }
  size_t link_count() const { return link_count_; }

  Arena& arena() { return arena_; }
  Diagnostics& diag() { return *diag_; }

 private:
  Node* CreateNode(NameId id, bool is_private);
  std::string Describe(const Node* from, const Node* to) const;
  bool Visible(const Node* node) const {
    return !node->is_private() || node->private_file == current_file_;
  }
  // Shadow-chain head for `id`, or nullptr.  The id-indexed vector replaces the old
  // name-keyed hash table: the interner did the only string hash at tokenization.
  Node* ChainHead(NameId id) const {
    return id < by_name_.size() ? by_name_[id] : nullptr;
  }

  Diagnostics* diag_;
  Options options_;
  Arena arena_;
  NameInterner names_;
  std::vector<Node*> by_name_;  // NameId -> shadow-chain head (private first)
  std::vector<Node*> nodes_;
  // Every non-alias link by (from, to).  It lives as long as the graph: the mapper's
  // back-link pass adds links after parsing ends.
  LinkIndex link_index_;
  std::vector<Node*> invented_link_holders_;  // unsorted, with repeats, until asked for
  std::vector<std::string> files_;
  size_t link_count_ = 0;
  int current_file_ = -1;
  Node* local_ = nullptr;
};

}  // namespace pathalias

#endif  // SRC_GRAPH_GRAPH_H_
