// MapBuilder: the map sources an image is built from, and the routes of their
// last compile.
//
// A MapBuilder keeps the map sources (each file's name and bytes) and the last
// emitted RouteSet; the graph and the mapper result live only while a compile
// runs.  Build() compiles once.  Resume() takes kept sources without compiling.
// Update() brings the routes to what a from-scratch run over the edited inputs
// would produce:
//
//   1. byte check — a file whose bytes equal the kept copy is unchanged, and an
//      update that changes nothing returns without compiling (a resumed builder
//      always compiles on its first Update);
//   2. compile — every kept source goes through pathalias::CompileMap, the
//      pipeline a pathalias run uses: parse into a fresh graph, map and emit in
//      full (back links, paper §Back links, are a fixpoint over the whole graph).
//      RouteSet::FromEntries numbers the emitted names afresh, in emission order,
//      on every compile;
//   3. count — CountChangedRoutes compares the new routes with the last
//      routes() by name.  After Resume there are no last routes, so every route
//      counts; the update step counts against the replaced image instead.
//
// Golden equivalence: after any Build/Resume/Update sequence, routes() is
// ToSortedText byte-identical to a from-scratch pipeline over the current inputs
// — the randomized-edit fuzz test enforces this per edit.
//
// Diagnostics: diag() holds the last compile's diagnostics only, so a fixed
// file's errors go away and a long-lived builder's record does not grow.

#ifndef SRC_INCR_MAP_BUILDER_H_
#define SRC_INCR_MAP_BUILDER_H_

#include <span>
#include <string>
#include <vector>

#include "src/parser/parser.h"
#include "src/route_db/route_db.h"
#include "src/support/diag.h"

namespace pathalias {
namespace incr {

// How many routes differ between `replaced` and the `built` set that replaces
// it, matched by name: a route whose bytes or cost changed, a new route and a
// removed one each count once.  Ids play no part, so the two may number names
// any way.  `replaced` is a RouteSet or a FrozenRouteSet: anything with names(),
// FindRouteView(NameId) and size().
template <typename Routes>
size_t CountChangedRoutes(const Routes& replaced, const RouteSet& built) {
  const NameInterner& old_names = replaced.names();
  const NameInterner& new_names = built.names();
  size_t changed = 0;
  size_t kept = 0;  // replaced routes whose name the build routes too
  for (const Route& route : built.routes()) {
    RouteView old_route = replaced.FindRouteView(
        old_names.FindPrehashed(new_names.View(route.name), new_names.HashOf(route.name)));
    if (!old_route.ok()) {
      ++changed;  // new
      continue;
    }
    ++kept;
    if (old_route.route != route.route || old_route.cost != route.cost) {
      ++changed;
    }
  }
  return changed + (replaced.size() - kept);  // ... and the removed ones
}

struct MapBuilderOptions {
  // The Dijkstra source.  Empty: the first host declared across the inputs (the
  // same default the batch pipeline applies), re-derived after every update.
  // pathalint: allow(R1): options boundary — caller-supplied spelling captured
  // before the builder's first graph (and interner) exists.
  std::string local;
};

struct UpdateStats {
  // True when nothing was compiled: every offered file was byte-identical to its
  // kept copy and nothing was removed (a resumed builder always compiles).
  bool patched = false;
  size_t files_changed = 0;    // new, or bytes differ from the kept copy
  size_t files_unchanged = 0;  // byte-identical among the files offered
  size_t routes_changed = 0;   // CountChangedRoutes against the last routes()
};

class MapBuilder {
 public:
  explicit MapBuilder(MapBuilderOptions options);

  MapBuilder(const MapBuilder&) = delete;
  MapBuilder& operator=(const MapBuilder&) = delete;

  // Full pipeline over `files` (parse → graph → map → routes); the files become
  // the kept sources.  False if no local host could be determined; diagnostics
  // explain.
  bool Build(std::vector<InputFile> files);

  // Takes `files` as the kept sources without compiling; the next Update compiles
  // even when nothing changed.
  void Resume(std::vector<InputFile> files);

  // Applies edits: `changed` holds new/updated file contents (unknown names are
  // appended as new files, in order), `removed` names files to drop; names that
  // match no kept file are ignored.  Every other file is reused from the kept
  // sources.
  UpdateStats Update(const std::vector<InputFile>& changed,
                     const std::vector<std::string>& removed = {});

  bool valid() const { return valid_; }
  const RouteSet& routes() const { return routes_; }
  // Always empty: every compile numbers names afresh, so no id names a change.
  // perfbench's churn replay still hands it to FrozenBatchEngine::AdoptRoutes,
  // which ignores it.
  std::span<const NameId> dirty_route_ids() const { return {}; }
  // The kept sources, in input order: what a state dir saves.
  const std::vector<InputFile>& artifacts() const { return artifacts_; }
  const std::string& local_name() const { return local_name_; }
  Diagnostics& diag() { return diag_; }

 private:
  // Compiles artifacts_ into a fresh routes_.  False if no local host could be
  // determined.
  bool Rebuild();

  MapBuilderOptions options_;
  Diagnostics diag_;
  bool valid_ = false;

  std::vector<InputFile> artifacts_;
  bool resumed_ = false;  // set by Resume until the next compile
  // pathalint: allow(R1): survives interner replacement — every compile discards
  // the graph and its interner, so a NameId would dangle; the builder re-derives
  // the id from these bytes on each compile.
  std::string local_name_;

  RouteSet routes_;
};

}  // namespace incr
}  // namespace pathalias

#endif  // SRC_INCR_MAP_BUILDER_H_
