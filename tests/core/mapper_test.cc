#include "src/core/mapper.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/pathalias.h"

namespace pathalias {
namespace {

// Convenience: run the pipeline and index routes by name.
struct Routes {
  RunResult result;
  Diagnostics diag;

  const RouteEntry* Find(std::string_view name) const {
    for (const RouteEntry& entry : result.routes) {
      if (entry.name == name) {
        return &entry;
      }
    }
    return nullptr;
  }
};

Routes Map(std::string_view map_text, std::string local, MapOptions map_options = {}) {
  Routes routes;
  RunOptions options;
  options.local = std::move(local);
  options.map = std::move(map_options);
  routes.result = RunString(map_text, options, &routes.diag);
  return routes;
}

TEST(Mapper, PrefersCheaperRelayOverDirectLink) {
  Routes r = Map("a\tb(100), c(500)\nb\tc(100)\n", "a");
  const RouteEntry* c = r.Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->route, "b!c!%s");
  EXPECT_EQ(c->cost, 200);
}

TEST(Mapper, DirectLinkWinsWhenCheaper) {
  Routes r = Map("a\tb(100), c(150)\nb\tc(100)\n", "a");
  EXPECT_EQ(r.Find("c")->route, "c!%s");
  EXPECT_EQ(r.Find("c")->cost, 150);
}

TEST(Mapper, AliasCostsNothingAndInheritsRoute) {
  // The paper's nosc/noscvax case: the name in a route is the one the predecessor
  // understands; the alias rides along for free.
  Routes r = Map(
      "local\tarpagw(100), noscvax(5000)\n"
      "arpagw\t@nosc(10)\n"
      "nosc = noscvax\n",
      "local");
  const RouteEntry* nosc = r.Find("nosc");
  const RouteEntry* noscvax = r.Find("noscvax");
  ASSERT_NE(nosc, nullptr);
  ASSERT_NE(noscvax, nullptr);
  EXPECT_EQ(nosc->cost, 110);
  EXPECT_EQ(noscvax->cost, 110) << "alias edge is free";
  EXPECT_EQ(nosc->route, "arpagw!%s@nosc");
  EXPECT_EQ(noscvax->route, "arpagw!%s@nosc") << "route uses the ARPANET name";
}

TEST(Mapper, AliasResolvesPerRouteNotPerHost) {
  // When the UUCP side is cheaper, both names route via the UUCP name instead.
  Routes r = Map(
      "local\tarpagw(5000), noscvax(50)\n"
      "arpagw\t@nosc(10)\n"
      "nosc = noscvax\n",
      "local");
  EXPECT_EQ(r.Find("nosc")->route, "noscvax!%s");
  EXPECT_EQ(r.Find("noscvax")->route, "noscvax!%s");
  EXPECT_EQ(r.Find("nosc")->cost, 50);
}

TEST(Mapper, DeadLinkAvoidedWhenAlternativeExists) {
  Routes r = Map("a\tb(100), c(1000)\nb\tc(10)\ndead {b!c}\n", "a");
  EXPECT_EQ(r.Find("c")->route, "c!%s");
  EXPECT_EQ(r.Find("c")->cost, 1000);
}

TEST(Mapper, DeadLinkStillUsedAsLastResort) {
  Routes r = Map("a\tb(100)\nb\tc(10)\ndead {b!c}\n", "a");
  const RouteEntry* c = r.Find("c");
  ASSERT_NE(c, nullptr) << "penalties are finite; the route must still exist";
  EXPECT_GE(c->cost, kInfinity);
  EXPECT_EQ(c->route, "b!c!%s");
  EXPECT_EQ(r.result.map.penalized_routes, 1u);
}

TEST(Mapper, TerminalHostReceivesButDoesNotRelay) {
  Routes r = Map("a\tb(100), d(9000)\nb\tc(10)\ndead {b}\nd\tc(10)\n", "a");
  EXPECT_EQ(r.Find("b")->cost, 100) << "mail TO the dead host is fine";
  EXPECT_EQ(r.Find("c")->route, "d!c!%s") << "mail THROUGH it is not";
  EXPECT_EQ(r.Find("c")->cost, 9010);
}

TEST(Mapper, AdjustPenalizesPathsThroughHost) {
  Routes r = Map("a\tb(100), c(100)\nb\td(100)\nc\td(100)\nadjust {b(+50)}\n", "a");
  EXPECT_EQ(r.Find("d")->route, "c!d!%s");
  EXPECT_EQ(r.Find("d")->cost, 200);
  EXPECT_EQ(r.Find("b")->cost, 100) << "adjust charges transit, not delivery";
}

TEST(Mapper, NegativeAdjustAttractsTraffic) {
  Routes r = Map("a\tb(100), c(100)\nb\td(100)\nc\td(100)\nadjust {b(-50)}\n", "a");
  EXPECT_EQ(r.Find("d")->route, "b!d!%s");
  EXPECT_EQ(r.Find("d")->cost, 150);
}

TEST(Mapper, NegativeAdjustCannotShortenPrefix) {
  // Dijkstra's invariant: traversal cost clamps at the predecessor's cost.
  Routes r = Map("a\tb(100)\nb\tc(10)\nadjust {b(-100000)}\n", "a");
  EXPECT_EQ(r.Find("c")->cost, 100) << "clamped to cost(b), not negative";
}

TEST(Mapper, GatewayedNetRequiresGateway) {
  Routes r = Map(
      "NET = @{x, y}(95)\n"
      "a\tgw(100), rogue(100)\n"
      "gw\t@NET(50)\n"
      "rogue\t@NET(1)\n"
      "gatewayed {NET}\ngateway {NET!gw}\n",
      "a");
  const RouteEntry* x = r.Find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(x->route, "gw!%s@x") << "entry through the declared gateway";
  EXPECT_EQ(x->cost, 150);
}

TEST(Mapper, NonGatewayEntryPenalizedButUsable) {
  Routes r = Map(
      "NET = @{x}(95)\n"
      "a\trogue(100)\n"
      "rogue\t@NET(1)\n"
      "gatewayed {NET}\n",
      "a");
  const RouteEntry* x = r.Find("x");
  ASSERT_NE(x, nullptr);
  EXPECT_GE(x->cost, kInfinity);
}

TEST(Mapper, RightThenLeftSyntaxPenalized) {
  // A route already using RIGHT syntax extended by a LEFT link is ambiguous under
  // every mailer convention; it exists only as a last resort.
  Routes r = Map(
      "a\t@relay(100)\n"
      "relay\tleaf(10)\n",
      "a");
  const RouteEntry* leaf = r.Find("leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_GE(leaf->cost, kInfinity);
  EXPECT_EQ(r.result.map.syntax_penalized_routes, 1u);
  EXPECT_EQ(r.Find("relay")->cost, 100) << "the relay itself is clean";
}

TEST(Mapper, LeftThenRightUnpenalizedByDefault) {
  // The paper's own example output ends ...ucbvax!%s@mit-ai at plain summed cost.
  Routes r = Map("a\tb(100)\nb\t@c(10)\n", "a");
  EXPECT_EQ(r.Find("c")->cost, 110);
  EXPECT_EQ(r.Find("c")->route, "b!%s@c");
  EXPECT_EQ(r.result.map.syntax_penalized_routes, 0u);
  EXPECT_EQ(r.result.map.mixed_syntax_routes, 1u);
}

TEST(Mapper, StrictSyntaxModePenalizesBothDirections) {
  MapOptions options;
  options.penalize_left_then_right = true;
  Routes r = Map("a\tb(100)\nb\t@c(10)\n", "a", options);
  EXPECT_GE(r.Find("c")->cost, kInfinity);
  EXPECT_EQ(r.result.map.syntax_penalized_routes, 1u);
}

TEST(Mapper, BackLinksInventReturnRoutes) {
  // leaf only calls out; its return route is "generated by implication".
  Routes r = Map("hub\tother(100)\nleaf\thub(200)\n", "hub");
  const RouteEntry* leaf = r.Find("leaf");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->route, "leaf!%s");
  EXPECT_EQ(leaf->cost, 200) << "invented link inherits the forward cost";
  EXPECT_EQ(r.result.map.invented_links, 1u);
  EXPECT_EQ(r.result.map.unreachable_hosts, 0u);
}

TEST(Mapper, BackLinkChainsResolveInMultiplePasses) {
  Routes r = Map("hub\tx(10)\na\thub(100)\nb\ta(100)\nc\tb(100)\n", "hub");
  EXPECT_EQ(r.Find("c")->route, "a!b!c!%s");
  EXPECT_EQ(r.Find("c")->cost, 300);
  // The counters as the build before the back-link passes were scoped to the nodes
  // holding invented links recorded them: each pass re-relaxes the same links.
  EXPECT_EQ(r.result.map.back_link_passes, 3u);
  EXPECT_EQ(r.result.map.invented_links, 3u);
  EXPECT_EQ(r.result.map.heap_pushes, 5u);
  EXPECT_EQ(r.result.map.relaxations, 10u);
}

TEST(Mapper, BackLinksCanBeDisabled) {
  MapOptions options;
  options.back_links = false;
  Routes r = Map("hub\tother(100)\nleaf\thub(200)\n", "hub", options);
  EXPECT_EQ(r.Find("leaf"), nullptr);
  EXPECT_EQ(r.result.map.unreachable_hosts, 1u);
  ASSERT_EQ(r.result.map.unreachable.size(), 1u);
  EXPECT_EQ(r.result.map.names->View(r.result.map.unreachable[0]->name), "leaf");
  EXPECT_TRUE(r.diag.Mentions("unreachable"));
}

TEST(Mapper, DeletedHostsAreInvisible) {
  Routes r = Map("a\tb(100)\nb\tc(10)\ndelete {b}\na\tc(5000)\n", "a");
  EXPECT_EQ(r.Find("b"), nullptr);
  EXPECT_EQ(r.Find("c")->cost, 5000) << "may not route through a deleted host";
}

TEST(Mapper, EqualCostPrefersFewerHops) {
  // Both routes to d cost 200; the per-hop overhead argument prefers the short one.
  Routes r = Map("a\tb(100), d(200)\nb\td(100)\n", "a");
  EXPECT_EQ(r.Find("d")->route, "d!%s");
}

TEST(Mapper, EqualCostEqualHopsBreaksTiesByName) {
  Routes r = Map("a\tzeta(100), beta(100)\nzeta\td(100)\nbeta\td(100)\n", "a");
  EXPECT_EQ(r.Find("d")->route, "beta!d!%s");
}

TEST(Mapper, NameTiesPastTheFirstEightBytesStillFollowByteOrder) {
  // The parents share their first 8 bytes, so their name keys tie and the heap falls
  // back to the bytes: "relaypost1" < "relaypost2" < "relaypostz".  The siblings print
  // in the same order (preorder: d follows its parent).
  Routes r = Map(
      "a\trelaypostz(100), relaypost2(100), relaypost1(100)\n"
      "relaypostz\td(100)\nrelaypost2\td(100)\nrelaypost1\td(100)\n",
      "a");
  EXPECT_EQ(r.Find("d")->route, "relaypost1!d!%s");
  std::vector<std::string> order;
  for (const RouteEntry& entry : r.result.routes) {
    order.push_back(entry.name);
  }
  EXPECT_EQ(order, (std::vector<std::string>{"a", "relaypost1", "d", "relaypost2",
                                             "relaypostz"}));
}

TEST(Mapper, UpDomainTraversalPenalized) {
  // caip!seismo.css.gov.edu.rutgers!%s must never happen: the edge from a subdomain up
  // to its parent is essentially infinite.
  Routes r = Map(
      "a\t.rutgers.edu(100)\n"
      ".rutgers.edu\tcaip(0), .edu(0)\n"
      ".edu\tharvard(0)\n",
      "a");
  const RouteEntry* harvard = nullptr;
  for (const RouteEntry& entry : r.result.routes) {
    if (entry.name.starts_with("harvard")) {
      harvard = &entry;
    }
  }
  ASSERT_NE(harvard, nullptr);
  EXPECT_GE(harvard->cost, kInfinity);
  // The absurd domainized name the paper warns about is exactly what the up-traversal
  // would produce — which is why it carries an essentially infinite cost.
  EXPECT_EQ(harvard->name, "harvard.edu.rutgers.edu");
}

TEST(Mapper, ContinuingPastADomainPenalized) {
  // "once a path enters a domain, pathalias penalizes further links."
  Routes r = Map(
      "a\t.dom(100)\n"
      ".dom\tmember(0)\n"
      "member\tbeyond(10)\n",
      "a");
  EXPECT_LT(r.Find("member.dom")->cost, kInfinity);
  const RouteEntry* beyond = r.Find("beyond");
  ASSERT_NE(beyond, nullptr);
  EXPECT_GE(beyond->cost, kInfinity);
}

TEST(Mapper, TraceEmitsNotes) {
  MapOptions options;
  options.trace.push_back("b");
  Routes r = Map("a\tb(100)\nb\tc(10)\n", "a", options);
  EXPECT_TRUE(r.diag.Mentions("trace: a -> b"));
  EXPECT_TRUE(r.diag.Mentions("trace: b -> c"));
}

TEST(Mapper, TraceOfUnknownTargetWarns) {
  MapOptions options;
  options.trace.push_back("nonesuch");
  Routes r = Map("a\tb(100)\n", "a", options);
  EXPECT_TRUE(r.diag.Mentions("trace target"));
}

TEST(Mapper, HeapStorageComesFromHashTable) {
  Routes r = Map("a\tb(100)\n", "a");
  EXPECT_TRUE(r.result.map.heap_storage_reused);
}

TEST(Mapper, SecondRunFallsBackToOwnedHeap) {
  Diagnostics diag;
  Graph graph(&diag);
  Parser parser(&graph);
  parser.ParseFile(InputFile{"m", "a\tb(100)\nb\tc(50)\n"});
  graph.SetLocal("a");
  Mapper mapper(&graph, MapOptions{});
  Mapper::Result first = mapper.Run();
  EXPECT_TRUE(first.heap_storage_reused);
  Mapper::Result second = mapper.Run();
  EXPECT_FALSE(second.heap_storage_reused) << "table already stolen";
  // Same mapping either way.
  EXPECT_EQ(first.mapped_hosts, second.mapped_hosts);
  EXPECT_EQ(graph.Find("c")->cost, 150);
}

TEST(Mapper, TwoLabelHeapStealsDonatedTableWhenInternerTableIsTooSmall) {
  // The ROADMAP note: two_label needs 2v+2 heap slots, the interner table only
  // guarantees ~1.27v.  A retired table on the arena's donation list fills the gap.
  Diagnostics diag;
  Graph graph(&diag);
  Parser parser(&graph);
  std::string map;
  constexpr int kHosts = 60;
  for (int i = 0; i < kHosts; ++i) {
    map += "h" + std::to_string(i) + "\th" + std::to_string((i + 1) % kHosts) + "(100)\n";
  }
  parser.ParseFile(InputFile{"m", map});
  graph.SetLocal("h0");
  size_t needed_slots = 2 * graph.node_count() + 2;
  ASSERT_LT(graph.names().table_capacity(), needed_slots)
      << "fixture must force the donation fallback";
  // Plant a donated region big enough for the heap (stands in for a retired table).
  size_t bytes = needed_slots * sizeof(void*) + 64;
  graph.arena().Donate(graph.arena().Allocate(bytes, alignof(void*)), bytes);

  MapOptions options;
  options.two_label = true;
  Mapper mapper(&graph, options);
  Mapper::Result result = mapper.Run();
  EXPECT_TRUE(result.heap_storage_reused);
  EXPECT_TRUE(result.heap_storage_from_donation);
  EXPECT_EQ(result.mapped_hosts, static_cast<size_t>(kHosts));
  EXPECT_EQ(graph.Find("h1")->cost, 100);
}

TEST(Mapper, TwoLabelWithoutDonationStillMaps) {
  // No donated region and a too-small table: reuse fails, the owned-heap path serves.
  Diagnostics diag;
  Graph graph(&diag);
  Parser parser(&graph);
  std::string map;
  for (int i = 0; i < 60; ++i) {
    map += "g" + std::to_string(i) + "\tg" + std::to_string((i + 1) % 60) + "(100)\n";
  }
  parser.ParseFile(InputFile{"m", map});
  graph.SetLocal("g0");
  MapOptions options;
  options.two_label = true;
  Mapper mapper(&graph, options);
  Mapper::Result result = mapper.Run();
  EXPECT_FALSE(result.heap_storage_from_donation);
  EXPECT_EQ(result.mapped_hosts, 60u);
}

TEST(Mapper, MissingLocalHostIsAnError) {
  Diagnostics diag;
  Graph graph(&diag);
  Mapper mapper(&graph, MapOptions{});
  Mapper::Result result = mapper.Run();
  EXPECT_EQ(result.mapped_hosts, 0u);
  EXPECT_EQ(diag.error_count(), 1);
}

TEST(Mapper, PenaltyBitsAccumulateAlongPath) {
  Routes r = Map(
      "a\tb(10)\nb\tc(10)\nc\td(10)\n"
      "dead {a!b, b}\n",
      "a");
  const RouteEntry* d = r.Find("d");
  ASSERT_NE(d, nullptr);
  EXPECT_GE(d->cost, 2 * kInfinity) << "dead link and dead host both charged";
}

TEST(Mapper, StatsCountsAreConsistent) {
  Routes r = Map("a\tb(1), c(2)\nb\td(3)\nc\td(4)\nd\te(5)\n", "a");
  const auto& stats = r.result.map;
  EXPECT_EQ(stats.mapped_hosts, 5u);
  EXPECT_EQ(stats.heap_pops, stats.heap_pushes);
  EXPECT_EQ(stats.mapped_labels, stats.label_count);
  EXPECT_GE(stats.relaxations, 5u);
}

}  // namespace
}  // namespace pathalias
