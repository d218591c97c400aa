// Route generation (paper §Printing the routes).
//
// A preorder traversal of the shortest-path tree.  The root (local host) is labeled
// %s; each child's route is the parent's route with %s replaced by host!%s (LEFT
// syntax) or %s@host (RIGHT syntax).  Routes are carried on the traversal stack, never
// stored in nodes — the paper notes that storing them would cost "hundreds of kbytes".
//
// Special cases, all from the paper:
//   * networks: the route to a network is the route to its parent; the net itself is
//     not printed; network→member edges use the syntax "encountered when entering the
//     network";
//   * domains: act like networks, but the domain's name is appended to the name of its
//     successor (caip under .rutgers under .edu prints as caip.rutgers.edu), and a
//     top-level domain — one whose tree parent is not a domain — IS printed, with its
//     parent's route;
//   * aliases: the aliased host inherits the route verbatim (the name in the route is
//     "the one understood to a host's predecessor"), printed under its own name;
//   * private hosts: labeled but not printed; they may still appear inside other
//     hosts' routes as relays.
//
// Output order is preorder with children sorted by (cost, hops, name), which renders
// the paper's 1981 example byte-for-byte.

#ifndef SRC_CORE_ROUTE_PRINTER_H_
#define SRC_CORE_ROUTE_PRINTER_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/core/mapper.h"
#include "src/graph/graph.h"

namespace pathalias {

struct RouteEntry {
  // pathalint: allow(R1): the output record itself — the domainized display name
  // composed for printing; interner bytes cannot represent the composition.
  std::string name;   // output name (domainized for hosts reached through domains)
  std::string route;  // printf format string containing exactly one %s
  Cost cost = 0;      // total path cost, or first-hop cost under -f
};

struct PrintOptions {
  bool include_costs = false;  // -c: leading cost column (the paper's example shows it)
  bool first_hop_cost = false;  // -f: report the cost of the first hop, not the total
};

class RoutePrinter {
 public:
  RoutePrinter(const Mapper::Result& map, PrintOptions options)
      : map_(&map), options_(options) {}

  // Produces entries in output order.
  std::vector<RouteEntry> Build();

  // Tab-separated lines: "name<TAB>route" or "cost<TAB>name<TAB>route" under -c.
  static std::string Render(const std::vector<RouteEntry>& entries, const PrintOptions& options);

  std::string BuildAndRender() { return Render(Build(), options_); }

  // Replaces the %s in `route` with `argument` (what a mailer does with a route).
  static std::string SpliceUser(std::string_view route, std::string_view argument);

 private:
  const Mapper::Result* map_;
  PrintOptions options_;
};

}  // namespace pathalias

#endif  // SRC_CORE_ROUTE_PRINTER_H_
