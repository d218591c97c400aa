#include "src/graph/graph.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace pathalias {
namespace {

class GraphTest : public ::testing::Test {
 protected:
  Diagnostics diag;
  Graph graph{&diag};
};

TEST_F(GraphTest, InternReturnsSameNodeForSameName) {
  Node* a = graph.Intern("seismo");
  Node* b = graph.Intern("seismo");
  EXPECT_EQ(a, b);
  EXPECT_EQ(graph.node_count(), 1u);
  EXPECT_EQ(graph.NameOf(a), "seismo");
}

TEST_F(GraphTest, FindDoesNotCreate) {
  EXPECT_EQ(graph.Find("ghost"), nullptr);
  EXPECT_EQ(graph.node_count(), 0u);
}

TEST_F(GraphTest, DomainNamesGetDomainAndGatewayedFlags) {
  Node* domain = graph.Intern(".edu");
  EXPECT_TRUE(domain->domain());
  EXPECT_TRUE(domain->gatewayed());
  EXPECT_TRUE(domain->placeholder());
  Node* host = graph.Intern("edu");
  EXPECT_FALSE(host->domain());
}

TEST_F(GraphTest, CaseFoldingWhenIgnoreCase) {
  Graph folding(&diag, Graph::Options{.ignore_case = true});
  Node* a = folding.Intern("SeIsMo");
  Node* b = folding.Intern("seismo");
  EXPECT_EQ(a, b);
  EXPECT_EQ(folding.NameOf(a), "seismo") << "interner owns the folded copy";
}

TEST_F(GraphTest, CaseMattersByDefault) {
  EXPECT_NE(graph.Intern("Seismo"), graph.Intern("seismo"));
}

TEST_F(GraphTest, AddLinkAppendsInDeclarationOrder) {
  Node* a = graph.Intern("a");
  graph.AddLink(a, graph.Intern("b"), 10, '!', false, {});
  graph.AddLink(a, graph.Intern("c"), 20, '!', false, {});
  ASSERT_NE(a->links, nullptr);
  EXPECT_EQ(graph.NameOf(a->links->to), "b");
  EXPECT_EQ(graph.NameOf(a->links->next->to), "c");
  EXPECT_EQ(graph.link_count(), 2u);
}

TEST_F(GraphTest, SelfLinkRejectedWithWarning) {
  Node* a = graph.Intern("a");
  EXPECT_EQ(graph.AddLink(a, a, 10, '!', false, {}), nullptr);
  EXPECT_EQ(a->links, nullptr);
  EXPECT_EQ(diag.warning_count(), 1);
}

TEST_F(GraphTest, NegativeLinkCostClampedToZero) {
  Node* a = graph.Intern("a");
  Link* link = graph.AddLink(a, graph.Intern("b"), -5, '!', false, {});
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->cost, 0);
  EXPECT_EQ(diag.warning_count(), 1);
}

TEST_F(GraphTest, DuplicateLinkKeepsCheaperCost) {
  Node* a = graph.Intern("a");
  Node* b = graph.Intern("b");
  graph.AddLink(a, b, 300, '!', false, {});
  Link* second = graph.AddLink(a, b, 100, '@', true, {});
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->cost, 100);
  EXPECT_TRUE(second->right_syntax()) << "cheaper declaration's syntax wins";
  EXPECT_EQ(graph.link_count(), 1u) << "no second link created";
  EXPECT_TRUE(diag.Mentions("duplicate link"));
}

TEST_F(GraphTest, DuplicateLinkHigherCostIgnored) {
  Node* a = graph.Intern("a");
  Node* b = graph.Intern("b");
  graph.AddLink(a, b, 100, '!', false, {});
  Link* second = graph.AddLink(a, b, 300, '@', true, {});
  EXPECT_EQ(second->cost, 100);
  EXPECT_FALSE(second->right_syntax());
}

TEST_F(GraphTest, DuplicateLinkSameCostSilent) {
  Node* a = graph.Intern("a");
  Node* b = graph.Intern("b");
  graph.AddLink(a, b, 100, '!', false, {});
  graph.AddLink(a, b, 100, '!', false, {});
  EXPECT_EQ(diag.warning_count(), 0);
  EXPECT_TRUE(diag.diagnostics().empty());
}

TEST_F(GraphTest, AliasCreatesZeroCostEdgePair) {
  Node* princeton = graph.Intern("princeton");
  Node* fun = graph.Intern("fun");
  graph.AddAlias(princeton, fun, {});
  ASSERT_NE(princeton->links, nullptr);
  EXPECT_TRUE(princeton->links->alias());
  EXPECT_EQ(princeton->links->cost, 0);
  EXPECT_EQ(princeton->links->to, fun);
  ASSERT_NE(fun->links, nullptr);
  EXPECT_TRUE(fun->links->alias());
  EXPECT_EQ(fun->links->to, princeton);
}

TEST_F(GraphTest, AliasIsIdempotent) {
  Node* a = graph.Intern("a");
  Node* b = graph.Intern("b");
  graph.AddAlias(a, b, {});
  graph.AddAlias(a, b, {});
  EXPECT_EQ(graph.link_count(), 2u);
}

TEST_F(GraphTest, SelfAliasRejected) {
  Node* a = graph.Intern("a");
  graph.AddAlias(a, a, {});
  EXPECT_EQ(a->links, nullptr);
  EXPECT_EQ(diag.warning_count(), 1);
}

TEST_F(GraphTest, NetDeclarationBuildsTollBoothEdges) {
  // "you pay to get onto a network, but you get off for free."
  Node* net = graph.Intern("ARPA");
  std::vector<Node*> members{graph.Intern("mit-ai"), graph.Intern("ucbvax")};
  graph.DeclareNet(net, members, 95, '@', true, {});
  EXPECT_TRUE(net->net());
  Link* on = graph.FindLink(members[0], net);
  ASSERT_NE(on, nullptr);
  EXPECT_EQ(on->cost, 95);
  EXPECT_TRUE(on->right_syntax());
  Link* off = graph.FindLink(net, members[0]);
  ASSERT_NE(off, nullptr);
  EXPECT_EQ(off->cost, 0);
  EXPECT_TRUE(off->net_member());
}

TEST_F(GraphTest, NetListingItselfWarns) {
  Node* net = graph.Intern("NET");
  graph.DeclareNet(net, {net}, 10, '!', false, {});
  EXPECT_EQ(diag.warning_count(), 1);
  EXPECT_EQ(net->links, nullptr);
}

TEST_F(GraphTest, PrivateShadowsGlobalWithinFile) {
  // The paper's bilbo scenario: two distinct machines with one name.
  graph.BeginFile("first.map");
  Node* global_bilbo = graph.Intern("bilbo");
  graph.AddLink(global_bilbo, graph.Intern("princeton"), 10, '!', false, {});
  graph.EndFile();

  graph.BeginFile("second.map");
  graph.DeclarePrivate("bilbo", {});
  Node* private_bilbo = graph.Intern("bilbo");
  EXPECT_NE(private_bilbo, global_bilbo);
  EXPECT_TRUE(private_bilbo->is_private());
  graph.AddLink(private_bilbo, graph.Intern("wiretap"), 10, '!', false, {});
  graph.EndFile();

  // Outside the declaring file the global node is visible again.
  graph.BeginFile("third.map");
  EXPECT_EQ(graph.Intern("bilbo"), global_bilbo);
  graph.EndFile();
}

TEST_F(GraphTest, ReferencesBeforePrivateDeclarationBindGlobally) {
  graph.BeginFile("a.map");
  Node* early = graph.Intern("frodo");
  graph.DeclarePrivate("frodo", {});
  Node* late = graph.Intern("frodo");
  graph.EndFile();
  EXPECT_NE(early, late);
  EXPECT_FALSE(early->is_private());
  EXPECT_TRUE(late->is_private());
}

TEST_F(GraphTest, TwoFilesCanEachHaveAPrivateInstance) {
  graph.BeginFile("a.map");
  graph.DeclarePrivate("gollum", {});
  Node* first = graph.Intern("gollum");
  graph.EndFile();
  graph.BeginFile("b.map");
  graph.DeclarePrivate("gollum", {});
  Node* second = graph.Intern("gollum");
  graph.EndFile();
  EXPECT_NE(first, second);
  EXPECT_TRUE(first->is_private());
  EXPECT_TRUE(second->is_private());
}

TEST_F(GraphTest, DuplicatePrivateInSameFileWarns) {
  graph.BeginFile("a.map");
  graph.DeclarePrivate("sam", {});
  graph.DeclarePrivate("sam", {});
  graph.EndFile();
  EXPECT_EQ(diag.warning_count(), 1);
}

TEST_F(GraphTest, GlobalCreatedAfterPrivateSharesNameSafely) {
  graph.BeginFile("a.map");
  graph.DeclarePrivate("merry", {});
  Node* private_node = graph.Intern("merry");
  graph.EndFile();
  graph.BeginFile("b.map");
  Node* global_node = graph.Intern("merry");
  graph.EndFile();
  EXPECT_NE(private_node, global_node);
  EXPECT_FALSE(global_node->is_private());
  // And the private file still sees its own if revisited... (a new file id is assigned
  // per BeginFile, so the old private stays hidden — its scope ended.)
  graph.BeginFile("a.map");
  EXPECT_EQ(graph.Intern("merry"), global_node);
  graph.EndFile();
}

TEST_F(GraphTest, DeadHostBecomesTerminal) {
  Node* host = graph.Intern("downvax");
  graph.MarkDeadHost(host, {});
  EXPECT_TRUE(host->terminal());
}

TEST_F(GraphTest, DeadLinkMarksOnlyThatDirection) {
  Node* a = graph.Intern("a");
  Node* b = graph.Intern("b");
  graph.AddLink(a, b, 10, '!', false, {});
  graph.AddLink(b, a, 10, '!', false, {});
  graph.MarkDeadLink(a, b, {});
  EXPECT_TRUE(graph.FindLink(a, b)->dead());
  EXPECT_FALSE(graph.FindLink(b, a)->dead());
}

TEST_F(GraphTest, DeadLinkOnUndeclaredLinkWarns) {
  graph.MarkDeadLink(graph.Intern("x"), graph.Intern("y"), {});
  EXPECT_EQ(diag.warning_count(), 1);
}

TEST_F(GraphTest, DeleteAndAdjust) {
  Node* host = graph.Intern("oldvax");
  graph.DeleteHost(host, {});
  EXPECT_TRUE(host->deleted());
  Node* biased = graph.Intern("slowvax");
  graph.AdjustHost(biased, 100, {});
  graph.AdjustHost(biased, -30, {});
  EXPECT_EQ(biased->adjust, 70);
}

TEST_F(GraphTest, GatewayLinkMarksExistingLink) {
  Node* net = graph.Intern("CSNET");
  Node* gw = graph.Intern("csnet-relay");
  graph.AddLink(gw, net, 300, '@', true, {});
  graph.MarkGatewayLink(net, gw, {});
  EXPECT_TRUE(net->gatewayed());
  EXPECT_TRUE((net->flags & kNodeExplicitGateways) != 0);
  EXPECT_TRUE(graph.FindLink(gw, net)->gateway());
}

TEST_F(GraphTest, GatewayLinkCreatesMissingLinkAtZeroCost) {
  Node* net = graph.Intern("BITNET");
  Node* gw = graph.Intern("psuvax1");
  graph.MarkGatewayLink(net, gw, {});
  Link* link = graph.FindLink(gw, net);
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->cost, 0);
  EXPECT_TRUE(link->gateway());
}

TEST_F(GraphTest, SetLocalOnUnknownHostWarnsAndCreates) {
  Node* local = graph.SetLocal("lonely");
  ASSERT_NE(local, nullptr);
  EXPECT_TRUE(local->local());
  EXPECT_EQ(diag.warning_count(), 1);
  EXPECT_EQ(graph.local(), local);
}

TEST_F(GraphTest, SetLocalMovesTheFlag) {
  graph.Intern("a");
  graph.Intern("b");
  Node* a = graph.SetLocal("a");
  Node* b = graph.SetLocal("b");
  EXPECT_FALSE(a->local());
  EXPECT_TRUE(b->local());
}

TEST_F(GraphTest, BigNetDeclaredTwiceKeepsCheaperCostsWithNotesInOrder) {
  constexpr int kMembers = 5000;
  Node* net = graph.Intern("BIGNET");
  std::vector<Node*> members;
  for (int i = 0; i < kMembers; ++i) {
    members.push_back(graph.Intern("m" + std::to_string(i)));
  }
  graph.BeginFile("a.map");
  graph.DeclareNet(net, members, 500, '!', false, SourcePos{"a.map", 1});
  graph.EndFile();
  graph.BeginFile("b.map");
  graph.DeclareNet(net, members, 200, '@', true, SourcePos{"b.map", 7});
  graph.EndFile();

  EXPECT_EQ(graph.link_count(), 2u * kMembers);
  for (Node* member : members) {
    Link* on = graph.FindLink(member, net);
    ASSERT_NE(on, nullptr);
    EXPECT_EQ(on->cost, 200);
    EXPECT_EQ(on->op, '@');
    EXPECT_TRUE(on->right_syntax());
    EXPECT_EQ(on->decl_file, 1);
    EXPECT_EQ(on->decl_line, 7);
    Link* off = graph.FindLink(net, member);
    ASSERT_NE(off, nullptr);
    EXPECT_EQ(off->cost, 0);
    EXPECT_TRUE(off->net_member());
    EXPECT_EQ(off->decl_file, 0) << "an equal-cost redeclaration keeps the first";
  }
  // One cross-file note per member link, in declaration order; the zero-cost
  // net->member links match their first declaration and say nothing.
  const std::vector<Diagnostic>& notes = diag.diagnostics();
  ASSERT_EQ(notes.size(), static_cast<size_t>(kMembers));
  for (int i = 0; i < kMembers; ++i) {
    EXPECT_EQ(notes[i].severity, Severity::kNote);
    EXPECT_EQ(notes[i].pos, (SourcePos{"b.map", 7}));
    EXPECT_EQ(notes[i].message, "duplicate link m" + std::to_string(i) +
                                    "!BIGNET declared with cost 200 (previously 500); "
                                    "keeping the cheaper");
  }
  int index = 0;
  for (Link* link = net->links; link != nullptr; link = link->next, ++index) {
    ASSERT_LT(index, kMembers);
    EXPECT_EQ(link->to, members[index]);
  }
  EXPECT_EQ(index, kMembers);
}

TEST_F(GraphTest, PrivateShadowAndItsGlobalGetSeparateLinks) {
  graph.BeginFile("a.map");
  Node* global = graph.Intern("bilbo");
  Node* hub = graph.Intern("hub");
  graph.AddLink(global, hub, 10, '!', false, {});
  graph.AddLink(hub, global, 10, '!', false, {});
  graph.EndFile();
  graph.BeginFile("b.map");
  graph.DeclarePrivate("bilbo", {});
  Node* shadow = graph.Intern("bilbo");
  ASSERT_NE(shadow, global);
  graph.AddLink(shadow, hub, 20, '!', false, {});
  graph.AddLink(hub, shadow, 30, '!', false, {});
  graph.EndFile();

  EXPECT_TRUE(diag.diagnostics().empty()) << diag.ToString();
  EXPECT_EQ(graph.link_count(), 4u);
  EXPECT_EQ(graph.FindLink(global, hub)->cost, 10);
  EXPECT_EQ(graph.FindLink(shadow, hub)->cost, 20);
  EXPECT_EQ(graph.FindLink(hub, global)->cost, 10);
  EXPECT_EQ(graph.FindLink(hub, shadow)->cost, 30);
  ASSERT_NE(hub->links, nullptr);
  EXPECT_EQ(hub->links->to, global);
  ASSERT_NE(hub->links->next, nullptr);
  EXPECT_EQ(hub->links->next->to, shadow);
}

// A reference for Graph's link rules that finds every link by walking the source
// node's list.  Nodes are resolved through the graph itself (name scoping is not
// what this models), so the model is keyed by Node*.
class LinkModel {
 public:
  struct ModelLink {
    Node* to;
    Cost cost;
    char op;
    uint32_t flags;
    int32_t decl_file;
    int32_t decl_line;
  };

  explicit LinkModel(const Graph& graph) : graph_(graph) {}

  void AddLink(Node* from, Node* to, Cost cost, char op, bool right, const SourcePos& pos,
               uint32_t extra_flags) {
    if (from == to) {
      Expect(Severity::kWarning, pos, "link from " + Name(from) + " to itself ignored");
      return;
    }
    if (cost < 0) {
      Expect(Severity::kWarning, pos,
             "negative cost on link " + Describe(from, to) + " clamped to 0");
      cost = 0;
    }
    const int32_t file = graph_.current_file();
    if (ModelLink* link = Walk(from, to)) {
      if (link->cost != cost) {
        bool same_file = link->decl_file == file && link->decl_file >= 0 && extra_flags == 0;
        Expect(same_file ? Severity::kWarning : Severity::kNote, pos,
               "duplicate link " + Describe(from, to) + " declared with cost " +
                   std::to_string(cost) + " (previously " + std::to_string(link->cost) +
                   "); keeping the cheaper");
        if (cost < link->cost) {
          link->cost = cost;
          link->op = op;
          link->flags = right ? (link->flags | kLinkRight) : (link->flags & ~kLinkRight);
          link->decl_file = file;
          link->decl_line = pos.line;
        }
      }
      link->flags |= extra_flags;
      return;
    }
    links_[from].push_back(
        ModelLink{to, cost, op, extra_flags | (right ? kLinkRight : 0u), file, pos.line});
  }

  void AddAlias(Node* a, Node* b, const SourcePos& pos) {
    if (a == b) {
      Expect(Severity::kWarning, pos, "alias of " + Name(a) + " to itself ignored");
      return;
    }
    for (const ModelLink& link : links_[a]) {
      if (link.to == b && (link.flags & kLinkAlias) != 0) {
        return;
      }
    }
    const int32_t file = graph_.current_file();
    links_[a].push_back(ModelLink{b, 0, kDefaultOp, kLinkAlias, file, pos.line});
    links_[b].push_back(ModelLink{a, 0, kDefaultOp, kLinkAlias, file, pos.line});
  }

  void DeclareNet(Node* net, const std::vector<Node*>& members, Cost cost, char op, bool right,
                  const SourcePos& pos) {
    for (Node* member : members) {
      if (member == net) {
        Expect(Severity::kWarning, pos, "network " + Name(net) + " lists itself as a member");
        continue;
      }
      AddLink(member, net, cost, op, right, pos, 0);
      AddLink(net, member, 0, op, right, pos, kLinkNetMember);
    }
  }

  void MarkDeadLink(Node* from, Node* to, const SourcePos& pos) {
    if (ModelLink* link = Walk(from, to)) {
      link->flags |= kLinkDead;
      return;
    }
    Expect(Severity::kWarning, pos,
           "dead link " + Describe(from, to) + " was never declared; ignored");
  }

  void MarkGatewayLink(Node* net, Node* gateway, const SourcePos& pos) {
    if (ModelLink* link = Walk(gateway, net)) {
      link->flags |= kLinkGateway;
      return;
    }
    Expect(Severity::kNote, pos,
           "gateway " + Name(gateway) + " had no declared link into " + Name(net) +
               "; creating one at zero cost");
    AddLink(gateway, net, 0, kDefaultOp, false, pos, kLinkGateway);
  }

  void DeclarePrivate(const std::string& name, const SourcePos& pos) {
    if (!privates_.emplace(name, graph_.current_file()).second) {
      Expect(Severity::kWarning, pos, "host " + name + " is already private in this file");
    }
  }

  // The first non-alias from→to link, found by walking from's list.
  ModelLink* Walk(Node* from, Node* to) {
    for (ModelLink& link : links_[from]) {
      if (link.to == to && (link.flags & kLinkAlias) == 0) {
        return &link;
      }
    }
    return nullptr;
  }

  const std::vector<ModelLink>& LinksOf(Node* node) { return links_[node]; }
  const std::vector<Diagnostic>& expected() const { return expected_; }
  size_t link_count() const {
    size_t count = 0;
    for (const auto& [node, links] : links_) {
      count += links.size();
    }
    return count;
  }

 private:
  std::string Name(const Node* node) const { return std::string(graph_.NameOf(node)); }
  std::string Describe(const Node* from, const Node* to) const {
    return Name(from) + "!" + Name(to);
  }
  void Expect(Severity severity, const SourcePos& pos, std::string message) {
    expected_.push_back(Diagnostic{severity, pos, std::move(message)});
  }

  const Graph& graph_;
  std::map<Node*, std::vector<ModelLink>> links_;
  std::set<std::pair<std::string, int>> privates_;
  std::vector<Diagnostic> expected_;
};

TEST(GraphModel, LinkDedupMatchesAListWalkingReference) {
  constexpr char kOps[] = {'!', '@', '%', ':'};
  constexpr Cost kCosts[] = {-5, 0, 10, 10, 50, 100, 300};
  std::vector<std::string> names;
  for (int i = 0; i < 14; ++i) {
    names.push_back("h" + std::to_string(i));
  }
  names.push_back("NET");
  names.push_back(".dom");
  for (uint32_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Diagnostics diag;
    Graph graph(&diag);
    LinkModel model(graph);
    std::mt19937 rng(seed);
    auto pick = [&rng](size_t n) { return static_cast<size_t>(rng() % n); };
    auto node = [&] { return graph.Intern(names[pick(names.size())]); };
    std::string file;
    int line = 0;
    for (int step = 0; step < 1500; ++step) {
      SourcePos pos{file, ++line};
      Cost cost = kCosts[pick(std::size(kCosts))];
      char op = kOps[pick(std::size(kOps))];
      bool right = pick(2) == 0;
      switch (pick(16)) {
        case 0: {  // move to the next file, or out of every file
          if (graph.current_file() >= 0) {
            graph.EndFile();
          }
          if (pick(4) != 0) {
            file = "f" + std::to_string(graph.files().size()) + ".map";
            graph.BeginFile(file);
          } else {
            file.clear();
          }
          line = 0;
          break;
        }
        case 1: {
          Node* a = node();
          Node* b = node();
          graph.AddAlias(a, b, pos);
          model.AddAlias(a, b, pos);
          break;
        }
        case 2:
        case 3: {
          Node* net = node();
          std::vector<Node*> members;
          for (size_t count = 1 + pick(5); count > 0; --count) {
            members.push_back(node());
          }
          graph.DeclareNet(net, members, cost, op, right, pos);
          model.DeclareNet(net, members, cost, op, right, pos);
          break;
        }
        case 4: {
          Node* from = node();
          Node* to = node();
          graph.MarkDeadLink(from, to, pos);
          model.MarkDeadLink(from, to, pos);
          break;
        }
        case 5: {
          Node* net = node();
          Node* gateway = node();
          graph.MarkGatewayLink(net, gateway, pos);
          model.MarkGatewayLink(net, gateway, pos);
          break;
        }
        case 6: {
          const std::string& name = names[pick(names.size())];
          graph.DeclarePrivate(name, pos);
          model.DeclarePrivate(name, pos);
          break;
        }
        default: {  // a declared link, or (rarely) one the mapper invents
          Node* from = node();
          Node* to = node();
          uint32_t extra = pick(8) == 0 ? kLinkInvented : 0u;
          graph.AddLink(from, to, cost, op, right, pos, extra);
          model.AddLink(from, to, cost, op, right, pos, extra);
          break;
        }
      }
    }

    EXPECT_EQ(graph.link_count(), model.link_count());
    for (Node* from : graph.nodes()) {
      const std::vector<LinkModel::ModelLink>& expected = model.LinksOf(from);
      size_t index = 0;
      for (const Link* link = from->links; link != nullptr; link = link->next, ++index) {
        ASSERT_LT(index, expected.size()) << graph.NameOf(from);
        const LinkModel::ModelLink& want = expected[index];
        EXPECT_EQ(link->to, want.to);
        EXPECT_EQ(link->cost, want.cost);
        EXPECT_EQ(link->op, want.op);
        EXPECT_EQ(link->flags, want.flags);
        EXPECT_EQ(link->decl_file, want.decl_file);
        EXPECT_EQ(link->decl_line, want.decl_line);
      }
      EXPECT_EQ(index, expected.size()) << graph.NameOf(from);
      for (Node* to : graph.nodes()) {
        const Link* found = graph.FindLink(from, to);
        const LinkModel::ModelLink* want = model.Walk(from, to);
        ASSERT_EQ(found == nullptr, want == nullptr);
        if (found != nullptr) {
          EXPECT_EQ(found->cost, want->cost);
          EXPECT_EQ(found->flags, want->flags);
          EXPECT_EQ(found->decl_line, want->decl_line);
        }
      }
    }
    const std::vector<Diagnostic>& got = diag.diagnostics();
    ASSERT_EQ(got.size(), model.expected().size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(ToString(got[i]), ToString(model.expected()[i])) << "diagnostic " << i;
      EXPECT_EQ(got[i].severity, model.expected()[i].severity) << "diagnostic " << i;
    }
    // The back-link passes re-relax from exactly the nodes holding an invented link,
    // in creation order.
    std::vector<Node*> holders;
    for (Node* from : graph.nodes()) {
      for (const Link* link = from->links; link != nullptr; link = link->next) {
        if (link->invented()) {
          holders.push_back(from);
          break;
        }
      }
    }
    std::span<Node* const> got_holders = graph.InventedLinkHolders();
    EXPECT_EQ(std::vector<Node*>(got_holders.begin(), got_holders.end()), holders);
  }
}

// --- name keys: NameLess must order exactly as the interned bytes do ---

class NameKeyTest : public ::testing::Test {
 protected:
  // NameLess, checked both ways against std::string_view's byte order.
  void ExpectOrderMatchesBytes(const Graph& graph, const Node* a, const Node* b) {
    std::string_view x = graph.NameOf(a);
    std::string_view y = graph.NameOf(b);
    std::string pair = ::testing::PrintToString(std::string(x)) + " vs " +
                       ::testing::PrintToString(std::string(y));
    EXPECT_EQ(NameLess(*a, *b, graph.names()), x < y) << pair;
    EXPECT_EQ(NameLess(*b, *a, graph.names()), y < x) << pair;
  }

  Diagnostics diag;
};

TEST_F(NameKeyTest, KeyIsTheFirstEightBytesBigEndianZeroPadded) {
  EXPECT_EQ(NameKey(""), 0u);
  EXPECT_EQ(NameKey("a"), 0x6100000000000000u);
  EXPECT_EQ(NameKey("abcdefgh"), 0x6162636465666768u);
  EXPECT_EQ(NameKey("abcdefghij"), NameKey("abcdefgh"));
  EXPECT_EQ(NameKey("\xff"), 0xff00000000000000u) << "bytes are unsigned";
  Graph graph(&diag);
  Node* node = graph.Intern("seismo.css.gov");
  EXPECT_EQ(node->name_key, NameKey("seismo.c"));
}

TEST_F(NameKeyTest, EdgeCasesOrderAsBytes) {
  Graph graph(&diag);
  const std::vector<std::string> names = {
      "abcdefgh1", "abcdefgh2",    // share their first 8 bytes: the bytes decide
      "abcdefgh",  "abcdefgh10",   // a full-key name and its extensions
      "ab",        "abc",          // shorter than 8 bytes, one a prefix of the other
      "abc\xe9",   "abcz",         // a byte >= 0x80 sorts after every ASCII byte
      "\x80",      "~",
      std::string("a\0", 2), "a",  // equal zero-padded keys: the length decides
      "Zeta",      "alpha",        // unfolded: upper case sorts first
      ".edu",      "-x",
  };
  std::vector<Node*> nodes;
  for (const std::string& name : names) {
    nodes.push_back(graph.Intern(std::string_view(name)));
  }
  for (const Node* a : nodes) {
    for (const Node* b : nodes) {
      ExpectOrderMatchesBytes(graph, a, b);
    }
  }
  EXPECT_FALSE(NameLess(*nodes[0], *nodes[0], graph.names())) << "irreflexive";
}

TEST_F(NameKeyTest, FoldedNamesKeyTheFoldedBytes) {
  // Under -i the interner stores the folded bytes, and the key comes from them:
  // "Zeta" sorts after "alpha", which it would not unfolded.
  Graph graph(&diag, Graph::Options{.ignore_case = true});
  Node* zeta = graph.Intern("Zeta");
  Node* alpha = graph.Intern("ALPHA");
  Node* long_name = graph.Intern("ABCDEFGHZ");
  EXPECT_EQ(zeta->name_key, NameKey("zeta"));
  EXPECT_EQ(long_name->name_key, NameKey("abcdefgh"));
  EXPECT_TRUE(NameLess(*alpha, *zeta, graph.names()));
  EXPECT_FALSE(NameLess(*zeta, *alpha, graph.names()));
  Node* other = graph.Intern("abcdefghA");  // folds to "abcdefgha": same key, bytes decide
  EXPECT_TRUE(NameLess(*other, *long_name, graph.names()));
  ExpectOrderMatchesBytes(graph, other, long_name);
}

TEST_F(NameKeyTest, RandomNamesOrderAsBytes) {
  // Short names from a small alphabet, so prefixes, equal keys and high bytes are all
  // common; every pair must order exactly as std::string_view orders the bytes.
  constexpr char kAlphabet[] = {'a', 'b', '.', '-', '0', 'Z', '\x7f', '\x80', '\xfe'};
  for (uint32_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Graph graph(&diag);
    std::mt19937 rng(seed);
    std::vector<Node*> nodes;
    std::string base;
    for (int i = 0; i < 120; ++i) {
      // Half the names extend an 8-byte-or-longer stem, so keys often tie.
      std::string name = rng() % 2 == 0 ? base : std::string();
      for (size_t length = rng() % 11; length > 0; --length) {
        name += kAlphabet[rng() % std::size(kAlphabet)];
      }
      if (name.size() >= 8 && rng() % 4 == 0) {
        base = name.substr(0, 8);
      }
      nodes.push_back(graph.Intern(std::string_view(name)));
    }
    for (const Node* a : nodes) {
      for (const Node* b : nodes) {
        ExpectOrderMatchesBytes(graph, a, b);
      }
    }
  }
}

}  // namespace
}  // namespace pathalias
