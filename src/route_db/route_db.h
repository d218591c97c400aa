// The route database a mail system consumes (paper §Output, §Integrating pathalias
// with mailers).
//
// pathalias emits "a simple linear file, in the UNIX tradition"; this module parses
// that file back into an indexed set and serializes it.  The RouteSet is the builder
// structure between the route *generator* (src/core) and the .pari image (src/image)
// that every query runs against — the paper's "format appropriate for rapid database
// retrieval".

#ifndef SRC_ROUTE_DB_ROUTE_DB_H_
#define SRC_ROUTE_DB_ROUTE_DB_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/core/route_printer.h"
#include "src/graph/cost.h"
#include "src/support/diag.h"
#include "src/support/interner.h"

namespace pathalias {

struct Route {
  NameId name = kNoName;  // key handle; the RouteSet's interner owns the bytes
  std::string route;      // printf format string with one %s
  Cost cost = -1;         // -1: unknown (the file had no cost column)
};

// A non-owning route record: what the Resolver traffics in.  FrozenRouteSet produces it
// as a view into the image's route-byte pool, so resolution is allocation-free.
struct RouteView {
  NameId name = kNoName;   // key handle; kNoName means "no route known"
  std::string_view route;  // printf format string with one %s; owned by the route set
  Cost cost = -1;

  bool ok() const { return name != kNoName; }
  explicit operator bool() const { return ok(); }
};

class RouteSet {
 public:
  RouteSet() = default;

  // A set with no routes that numbers `ids`' names as `ids` does (interning them
  // in id order reproduces every id).  Routes added next keep those ids and new
  // names append: how an update keeps the name ids of the image it replaces.
  explicit RouteSet(const NameInterner& ids);

  // Later adds of the same name replace earlier ones.
  void Add(std::string_view name, std::string_view route, Cost cost = -1);

  static RouteSet FromEntries(const std::vector<RouteEntry>& entries);

  // Parses pathalias output.  Accepts both layouts: "name<TAB>route" and
  // "cost<TAB>name<TAB>route" (a leading integer column switches to the latter).
  // Loads 16 lines at a time: it splits them, hashes their keys and prefetches each
  // key's first probe slot, then adds them in line order.  So ids, the replacement of
  // a repeated name and the warnings (one per malformed line, in line order) are
  // what adding one line at a time gives.
  static RouteSet FromText(std::string_view text, Diagnostics* diag = nullptr);

  std::string ToText(bool include_costs) const;

  // ToText in name order regardless of insertion history: the canonical form the
  // incremental pipeline's golden-equivalence checks compare byte-for-byte.
  std::string ToSortedText(bool include_costs) const;

  // Exact-name lookup; nullptr if absent.  The string_view form hashes once against
  // the interner; the NameId form is a pure array index.
  const Route* Find(std::string_view name) const;
  const Route* Find(NameId id) const {
    return id < by_name_.size() && by_name_[id] != 0 ? &routes_[by_name_[id] - 1] : nullptr;
  }

  // The interner every route key (and its precomputed domain-suffix chain) lives in.
  const NameInterner& names() const { return names_; }
  std::string_view NameOf(const Route& route) const { return names_.View(route.name); }

  const std::vector<Route>& routes() const { return routes_; }
  size_t size() const { return routes_.size(); }
  bool empty() const { return routes_.empty(); }

 private:
  // Add with the key's hash precomputed by names_.HashOf(name).
  void AddPrehashed(std::string_view name, uint64_t hash, std::string_view route, Cost cost);

  NameInterner names_;
  std::vector<Route> routes_;
  std::vector<uint32_t> by_name_;  // NameId -> route index + 1 (0 = no route)
};

}  // namespace pathalias

#endif  // SRC_ROUTE_DB_ROUTE_DB_H_
