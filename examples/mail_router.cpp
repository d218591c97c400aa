// A miniature 1986 mail delivery agent (paper §Integrating pathalias with mailers).
//
//   $ ./build/examples/mail_router
//
// Builds the route database for a campus that gateways a domain, then resolves a batch
// of destination addresses the way a delivery agent would: exact host lookup, the
// paper's domain-suffix search, rightmost-known rewriting of USENET reply paths, and
// loop-test preservation.

#include <cstdio>

#include "src/core/pathalias.h"
#include "src/image/frozen_route_set.h"
#include "src/route_db/resolver.h"
#include "src/route_db/route_db.h"

int main() {
  // A campus: wolf is our machine; seismo gateways the .edu domain tree; a private
  // machine relays the physics cluster.
  constexpr std::string_view kMap =
      "wolf\tduke(DEMAND), seismo(EVENING)\n"
      "duke\twolf(DEMAND), seismo(DEMAND), phs(LOCAL)\n"
      "seismo\t.edu(DEDICATED)\n"
      ".edu\t.rutgers(0)\n"
      ".rutgers\tcaip(0), topaz(0)\n"
      "private {relay}\n"
      "relay\tphysics1(LOCAL), physics2(LOCAL)\n"
      "duke\trelay(LOCAL)\n";

  pathalias::Diagnostics diag;
  pathalias::RunOptions options;
  options.local = "wolf";
  pathalias::RunResult result = pathalias::RunString(kMap, options, &diag);

  // In production this is `pathalias | routedb freeze`; in-process it is FromEntries
  // here plus the in-memory FrozenImage below.
  pathalias::RouteSet routes = pathalias::RouteSet::FromEntries(result.routes);
  std::printf("route database (%zu entries):\n%s\n", routes.size(),
              routes.ToText(/*include_costs=*/false).c_str());

  pathalias::ResolveOptions resolve_options;
  resolve_options.optimize = pathalias::ResolveOptions::Optimize::kRightmostKnown;
  pathalias::FrozenImage image(routes);
  pathalias::Resolver resolver(&image.routes(), resolve_options);

  const char* destinations[] = {
      "phs!honey",                      // plain known host
      "pleasant@caip.rutgers.edu",      // RFC822 into the domain (suffix search)
      "caip.rutgers.edu!pleasant",      // same destination, bang form
      "topaz.rutgers.edu!ron",          // another domain member
      "duke!seismo!caip.rutgers.edu!u", // USENET reply path, shortened from the right
      "physics2!prof",                  // reached through the private relay
      "wolf!duke!wolf!loopcheck",       // loop test: must NOT be optimized away
      "user%phs@duke",                  // the underground percent form
      "mystery!user",                   // unknown host
  };

  std::printf("%-34s %-40s %s\n", "destination", "transport address", "via");
  for (const char* destination : destinations) {
    pathalias::Resolution r = resolver.Resolve(destination);
    if (r.ok) {
      std::printf("%-34s %-40s %s\n", destination, r.route.c_str(), r.via.c_str());
    } else {
      std::printf("%-34s %-40s %s\n", destination, ("<bounce: " + r.error + ">").c_str(),
                  "-");
    }
  }
  return 0;
}
