#include "src/graph/graph.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace pathalias
