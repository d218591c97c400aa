// End-to-end pipeline properties: parse → map → print → (route DB) → resolve, with an
// independent delivery simulator checking that every printed route is actually
// deliverable over the declared connectivity.

#include <gtest/gtest.h>

#include <queue>
#include <unordered_set>

#include "src/core/pathalias.h"
#include "src/image/frozen_route_set.h"
#include "src/mapgen/mapgen.h"
#include "src/route_db/resolver.h"
#include "src/route_db/route_db.h"

namespace pathalias {
namespace {

// Resolves a hop name from a route string to a graph node.  Printed names may be
// domainized (caip.rutgers.edu for node caip), and relays may be private hosts (real
// machines, just not listed) — so scan all nodes rather than using visibility-scoped
// Graph::Find, and fall back to dot-prefixes.
Node* FindHopNode(Graph& graph, const std::string& hop) {
  auto by_name = [&graph](std::string_view name) -> Node* {
    for (Node* node : graph.nodes()) {
      if (graph.NameOf(node) == name) {
        return node;
      }
    }
    return nullptr;
  };
  if (Node* node = by_name(hop)) {
    return node;
  }
  size_t dot = hop.find('.');
  while (dot != std::string::npos && dot > 0) {
    if (Node* node = by_name(std::string_view(hop).substr(0, dot))) {
      return node;
    }
    dot = hop.find('.', dot + 1);
  }
  return nullptr;
}

// All names of the machine `node` belongs to (the alias closure).
std::unordered_set<Node*> AliasClosure(Node* node) {
  std::unordered_set<Node*> closure{node};
  std::queue<Node*> queue;
  queue.push(node);
  while (!queue.empty()) {
    Node* current = queue.front();
    queue.pop();
    for (Link* link = current->links; link != nullptr; link = link->next) {
      if (link->alias() && closure.insert(link->to).second) {
        queue.push(link->to);
      }
    }
  }
  return closure;
}

// True if mail at `from` can be handed to `to` over one declared link, passing through
// any number of placeholder (net/domain) nodes and alias edges on the way.
bool CanHop(Node* from, Node* to) {
  std::unordered_set<Node*> visited;
  std::queue<Node*> queue;
  for (Node* alias : AliasClosure(from)) {
    if (visited.insert(alias).second) {
      queue.push(alias);
    }
  }
  std::unordered_set<Node*> targets = AliasClosure(to);
  while (!queue.empty()) {
    Node* current = queue.front();
    queue.pop();
    for (Link* link = current->links; link != nullptr; link = link->next) {
      Node* next = link->to;
      if (targets.contains(next)) {
        return true;
      }
      bool passthrough = next->placeholder() || link->alias();
      if (passthrough && visited.insert(next).second) {
        queue.push(next);
      }
    }
  }
  return false;
}

// Simulates delivery of `route` (a %s format string) starting at the local host.
// Only meaningful for unpenalized routes: penalized ones are by definition the routes
// whose delivery order is broken.
::testing::AssertionResult Deliverable(Graph& graph, Node* local, const RouteEntry& entry) {
  std::string concrete = RoutePrinter::SpliceUser(entry.route, "USER");
  Address address = ParseAddress(concrete, ParseStyle::kUucpFirst);
  Node* current = local;
  for (const std::string& hop : address.path) {
    Node* next = FindHopNode(graph, hop);
    if (next == nullptr) {
      return ::testing::AssertionFailure()
             << entry.name << ": hop '" << hop << "' of route '" << entry.route
             << "' names no host in the map";
    }
    if (!CanHop(current, next)) {
      return ::testing::AssertionFailure()
             << entry.name << ": no link " << current->name << " -> " << next->name
             << " for route '" << entry.route << "'";
    }
    current = next;
  }
  if (address.user != "USER") {
    return ::testing::AssertionFailure()
           << entry.name << ": user part mangled: '" << address.user << "'";
  }
  return ::testing::AssertionSuccess();
}

void CheckAllRoutesDeliverable(std::string_view map_text, const std::string& local) {
  Diagnostics diag;
  RunOptions options;
  options.local = local;
  RunResult result = RunString(map_text, options, &diag);
  ASSERT_EQ(diag.error_count(), 0) << diag.ToString();
  ASSERT_FALSE(result.routes.empty());
  for (const RouteEntry& entry : result.routes) {
    if (entry.cost >= kInfinity) {
      continue;  // penalized: delivery order known-broken, kept only as last resort
    }
    EXPECT_TRUE(Deliverable(*result.graph, result.graph->local(), entry));
  }
}

TEST(Pipeline, PaperExampleRoutesAreDeliverable) {
  CheckAllRoutesDeliverable(
      "unc\tduke(HOURLY), phs(HOURLY*4)\n"
      "duke\tunc(DEMAND), research(DAILY/2), phs(DEMAND)\n"
      "phs\tunc(HOURLY*4), duke(HOURLY)\n"
      "research\tduke(DEMAND), ucbvax(DEMAND)\n"
      "ucbvax\tresearch(DAILY)\n"
      "ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)\n",
      "unc");
}

TEST(Pipeline, DomainRoutesAreDeliverable) {
  CheckAllRoutesDeliverable(
      "local\tseismo(100), caip(5000)\n"
      "seismo\t.edu(95)\n"
      ".edu\t.rutgers(0)\n"
      ".rutgers\tcaip(0), topaz(0)\n"
      "caip\tlocal(50)\n",
      "local");
}

TEST(Pipeline, AliasAndPrivateRoutesAreDeliverable) {
  CheckAllRoutesDeliverable(
      "private {relay}\n"
      "local\trelay(10)\n"
      "relay\tfar(10)\n"
      "far = faraway\n"
      "faraway\tbeyond(10)\n",
      "local");
}

TEST(Pipeline, GeneratedSmallMapRoutesAreDeliverable) {
  GeneratedMap map = GenerateUsenetMap(MapGenConfig::Small());
  Diagnostics diag;
  RunOptions options;
  options.local = map.local;
  RunResult result = pathalias::Run(map.files, options, &diag);
  ASSERT_EQ(diag.error_count(), 0) << diag.ToString();
  ASSERT_GT(result.routes.size(), 400u);
  int checked = 0;
  for (const RouteEntry& entry : result.routes) {
    if (entry.cost >= kInfinity) {
      continue;
    }
    ASSERT_TRUE(Deliverable(*result.graph, result.graph->local(), entry)) << entry.name;
    ++checked;
  }
  EXPECT_GT(checked, 400);
}

TEST(Pipeline, GeneratedMapRoundTripsThroughRouteDbAndResolver) {
  GeneratedMap map = GenerateUsenetMap(MapGenConfig::Small());
  Diagnostics diag;
  RunOptions options;
  options.local = map.local;
  options.print.include_costs = true;
  RunResult result = pathalias::Run(map.files, options, &diag);

  // text → RouteSet → frozen image survives intact.
  RouteSet from_text = RouteSet::FromText(result.output, &diag);
  EXPECT_EQ(from_text.size(), result.routes.size());
  FrozenImage image(from_text);
  EXPECT_EQ(image.routes().size(), from_text.size());

  // Every mapped, printed host resolves through the resolver.
  Resolver resolver(&image.routes(), ResolveOptions{});
  int resolved = 0;
  for (const RouteEntry& entry : result.routes) {
    Resolution resolution = resolver.Resolve(entry.name + "!user");
    ASSERT_TRUE(resolution.ok) << entry.name << ": " << resolution.error;
    EXPECT_EQ(resolution.route, RoutePrinter::SpliceUser(entry.route, "user"));
    ++resolved;
  }
  EXPECT_GT(resolved, 400);

  // And a realistic address trace mostly resolves (unknown hosts are in the trace on
  // purpose).
  std::vector<std::string> trace = GenerateAddressTrace(map, 300, 5);
  int failures = 0;
  for (const std::string& address : trace) {
    if (!resolver.Resolve(address).ok) {
      ++failures;
    }
  }
  EXPECT_LT(failures, 30);
}

TEST(Pipeline, TwoLabelModeNeverProducesWorseRoutes) {
  GeneratedMap map = GenerateUsenetMap(MapGenConfig::Small());
  Diagnostics diag_a;
  Diagnostics diag_b;
  RunOptions base;
  base.local = map.local;
  RunOptions two = base;
  two.map.two_label = true;
  RunResult a = pathalias::Run(map.files, base, &diag_a);
  RunResult b = pathalias::Run(map.files, two, &diag_b);
  // Index default-mode costs by name.
  std::unordered_map<std::string, Cost> default_costs;
  for (const RouteEntry& entry : a.routes) {
    default_costs[entry.name] = entry.cost;
  }
  for (const RouteEntry& entry : b.routes) {
    auto it = default_costs.find(entry.name);
    if (it != default_costs.end()) {
      EXPECT_LE(entry.cost, it->second) << entry.name;
    }
  }
  EXPECT_LE(b.map.penalized_routes, a.map.penalized_routes);
}

}  // namespace
}  // namespace pathalias
