// Mailer-side route resolution (paper §Output "Domains" and §Integrating pathalias
// with mailers).
//
// Given a destination address and a pathalias route database, produce the concrete
// address to hand to the transport.  Implements, verbatim from the paper:
//   * the domain lookup order — "a search for caip.rutgers.edu; if found, the mailer
//     uses argument pleasant ... Otherwise, a search for .rutgers.edu, followed by a
//     search for .edu", where the argument handed to a domain route is the route
//     relative to its gateway (caip.rutgers.edu!pleasant);
//   * the optimization policy question — "should the mailer simply find a route to the
//     first site in the string, or should it search for the right-most host known to
//     its database?" — as a selectable strategy;
//   * the loop-test caveat — "an overly-enthusiastic optimizer can eliminate them
//     altogether": paths that visit a host twice are never shortened.
//
// The resolver runs against the frozen .pari image (src/image's FrozenRouteSet), the
// one representation every query uses; a RouteSet built in memory is frozen first
// (FrozenImage's RouteSet constructor).  FrozenRouteSet is only forward-declared here
// and the method bodies live in src/image/frozen_resolver.cc, so this layer never
// includes the image subsystem above it.

#ifndef SRC_ROUTE_DB_RESOLVER_H_
#define SRC_ROUTE_DB_RESOLVER_H_

#include <span>
#include <string>
#include <string_view>

#include "src/route_db/address.h"
#include "src/route_db/route_db.h"

namespace pathalias {

class FrozenRouteSet;  // src/image/frozen_route_set.h

struct ResolveOptions {
  ParseStyle parse_style = ParseStyle::kUucpFirst;

  enum class Optimize {
    kNone,            // hand the whole remainder to the first relay, verbatim
    kFirstHop,        // route to the first relay; remainder becomes the argument
    kRightmostKnown,  // route to the rightmost relay the database knows
  };
  Optimize optimize = Optimize::kFirstHop;

  // Never optimize a path that names some host twice (UUCP loop tests).
  bool preserve_loops = true;
};

struct Resolution {
  bool ok = false;
  std::string route;     // final address, %s already substituted
  // pathalint: allow(R1): rendered result for the caller — Resolution is the
  // output edge (mailers print these); the interned form is BatchLookup.
  std::string via;       // database key that matched (host or domain)
  std::string argument;  // what was substituted for %s
  std::string error;     // set iff !ok
};

// One batch lookup outcome: a handle and views into the route set only, no owned
// strings — back-resolve via the set's names() when formatting.
struct BatchLookup {
  RouteView route;               // !route.ok(): no route known
  NameId via = kNoName;          // database key that matched (host or domain suffix)
  bool suffix_match = false;     // a domain suffix hit: prepend the host to the argument
};

// Firehose-style probe/collision/retire counters for the pipelined batch path.
// The counting code compiles in only under PATHALIAS_PROBE_STATS (CMake option of
// the same name); without it ResolveBatchPipelined zeroes the struct and the hot
// loop carries no counter writes at all.  Counters accrue into a caller-local
// struct, so concurrent pipelines over one route set never share state.
// Every lookup leaves exactly once: lookups == window_retirements + deferred_queries.
struct ResolvePipelineStats {
  uint64_t lookups = 0;             // queries launched into the window
  uint64_t slot_collisions = 0;     // occupied slots with a different hash32
  uint64_t candidate_rejects = 0;   // hash32 matches whose bytes differed
  uint64_t window_retirements = 0;  // routed exact names retired inside the window
  uint64_t deferred_queries = 0;    // the rest, finished after the window drains
  uint64_t suffix_memo_hits = 0;    // deferred strangers answered by the batch-local memo

  // True when the counters above are live (PATHALIAS_PROBE_STATS builds).
  static constexpr bool compiled_in() {
#ifdef PATHALIAS_PROBE_STATS
    return true;
#else
    return false;
#endif
  }
};

class Resolver {
 public:
  Resolver(const FrozenRouteSet* routes, ResolveOptions options)
      : routes_(routes), options_(options) {}

  Resolution Resolve(std::string_view destination) const;

  // The paper's lookup: exact host name, then successive domain suffixes, longest
  // first.  On a suffix match the caller must prepend the full host name to the
  // argument.  `matched_key` receives the database key that hit — always a view into
  // the route set's interner (alive as long as the set), never an allocation.
  RouteView Lookup(std::string_view host, std::string_view* matched_key) const;

  // Bulk form of Lookup for mailer delivery scans: resolves hosts[i] into results[i]
  // and returns the number that matched.  Only the common prefix is processed: with
  // results.size() < hosts.size() the surplus hosts are ignored (an empty span of
  // either resolves nothing and returns 0).  A query with no routable shape — empty,
  // all whitespace, undotted and unknown — is a plain miss, never an error.  For a
  // name the interner knows, the domain-suffix walk rides its precomputed suffix
  // chain: after the single hash that locates the name, the fallbacks are
  // id-chasing.  A stranger hashes its dotted suffixes until one is interned.  No
  // query allocates.
  //
  // ResolveBatch runs the software-pipelined loop at kDefaultPipelineWindow (it is
  // ResolveBatchPipelined with the default window); results are byte-identical to
  // ResolveBatchScalar at every window size — enforced by tests, the fuzz harness,
  // and CI against the committed benchmark run.
  size_t ResolveBatch(std::span<const std::string_view> hosts,
                      std::span<BatchLookup> results) const;

  // The one-query-at-a-time reference loop (what ResolveBatch was before the
  // pipeline): each lookup's dependent-miss chain — hash, probe slot, interner
  // entry, by-name index, route record — stalls to completion before the next
  // query starts.  Retained as the golden reference and the empty-table path.
  size_t ResolveBatchScalar(std::span<const std::string_view> hosts,
                            std::span<BatchLookup> results) const;

  // The software pipeline: a window of up to `window` exact probes in flight.  A
  // query is launched (hashed, its first probe slot prefetched), probed the next
  // round (slot, stored hash, bytes), and — when it names an interned host with a
  // route of its own — retired the round after that, its route record prefetched in
  // between; the probe and the retire each start on a line prefetched one round
  // (window-1 other lookups' steps) earlier.  Every other query leaves the window at
  // once and is finished after it drains, in batch order: an interned name without a
  // route by LookupInterned, a stranger by LookupStranger behind a batch-local memo
  // keyed by its bytes from the first dot on.  `window` is clamped to
  // [1, kMaxPipelineWindow]; an empty image's table cannot be probed slot-wise, so it
  // falls back to the scalar loop.  `stats`, when non-null, is zeroed and — in
  // PATHALIAS_PROBE_STATS builds — filled with the counters above for the call.
  size_t ResolveBatchPipelined(std::span<const std::string_view> hosts,
                               std::span<BatchLookup> results, size_t window,
                               ResolvePipelineStats* stats = nullptr) const;

  // Measured sweet spot across map scales: at 1986 scale (8-9k names, cache
  // resident) any window from 4 to 64 is within noise of the best; at 4x-16x
  // scale (L3/DRAM resident) window 1 loses and 8 to 64 are within noise of one
  // another.  24 sits on the plateau of both regimes.
  static constexpr size_t kDefaultPipelineWindow = 24;
  static constexpr size_t kMaxPipelineWindow = 64;

  // One query at a time.  Both are const, allocation-free and mutate nothing, so
  // any number of threads may call them against one route set concurrently.
  //
  // LookupOne: exactly one ResolveBatch slot; Lookup and ResolveBatchScalar resolve
  // each query through it.  A name the interner knows walks from its id
  // (LookupInterned, below); any other goes to LookupStranger.
  BatchLookup LookupOne(std::string_view host) const;
  // LookupStranger: the walk for a query the interner does not know — probe its
  // dotted suffixes until one is interned, then chase that chain.  Any hit is by
  // definition a domain-suffix match.  The window finishes its strangers here.
  BatchLookup LookupStranger(std::string_view host) const;

 private:
  // The walk for a name the interner knows, from its id: the exact route, then the
  // precomputed suffix chain.  LookupOne and the window's routeless interned names
  // call it.
  BatchLookup LookupInterned(NameId id) const;

  const FrozenRouteSet* routes_;
  ResolveOptions options_;
};

}  // namespace pathalias

#endif  // SRC_ROUTE_DB_RESOLVER_H_
