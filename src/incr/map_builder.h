// MapBuilder: the incremental parse→build→map→emit pipeline.
//
// A MapBuilder keeps the map sources (each file's name and bytes) and the last
// emitted RouteSet; the graph and the mapper result live only while a compile
// runs.  Build() compiles once in a fresh id space.  Resume() takes kept sources
// without compiling.  Update() brings the routes to what a from-scratch run over
// the edited inputs would produce:
//
//   1. byte check — a file whose bytes equal the kept copy is unchanged, and an
//      update that changes nothing returns without compiling (a resumed builder
//      always compiles on its first Update);
//   2. compile — every kept source is parsed into a fresh graph by the production
//      Parser, and the map and emit phases run in full (back links, paper §Back
//      links, are a fixpoint over the whole graph);
//   3. renumber — the last routes()' id space is interned in id order into a
//      fresh RouteSet and the emission is added: names keep their ids across a
//      builder's updates and new names append.  After Resume there are no last
//      routes, so the first Update numbers names afresh.
//
// Golden equivalence: after any Build/Resume/Update sequence, routes() is
// ToSortedText byte-identical to a from-scratch pipeline over the current inputs
// — the randomized-edit fuzz test enforces this per edit.
//
// Diagnostics: diag() holds the last compile's diagnostics only, so a fixed
// file's errors go away and a long-lived builder's record does not grow.
//
// Dirty ids: after an Update, dirty_route_ids() lists every id whose route bytes
// or cost differ from the previous routes(): an identical route is not dirty, an
// erased name keeps its id, and a re-add dirties that id again.  A resumed
// builder holds no previous routes, so its first Update lists every routed id;
// its caller counts the changes against the replaced image by name instead
// (exec::CountChangedRoutes).

#ifndef SRC_INCR_MAP_BUILDER_H_
#define SRC_INCR_MAP_BUILDER_H_

#include <string>
#include <vector>

#include "src/parser/parser.h"
#include "src/route_db/route_db.h"
#include "src/support/diag.h"

namespace pathalias {
namespace incr {

struct MapBuilderOptions {
  // The Dijkstra source.  Empty: the first host declared across the inputs (the
  // same default the batch pipeline applies), re-derived after every update.
  // pathalint: allow(R1): options boundary — caller-supplied spelling captured
  // before the builder's first graph (and interner) exists.
  std::string local;
  bool ignore_case = false;  // -i; fixed for the builder's lifetime
};

struct UpdateStats {
  // True when nothing was compiled: every offered file was byte-identical to its
  // kept copy and nothing was removed (a resumed builder always compiles).
  bool patched = false;
  size_t files_changed = 0;    // new, or bytes differ from the kept copy
  size_t files_unchanged = 0;  // byte-identical among the files offered
  size_t routes_changed = 0;   // dirty_route_ids().size()
};

class MapBuilder {
 public:
  explicit MapBuilder(MapBuilderOptions options);

  MapBuilder(const MapBuilder&) = delete;
  MapBuilder& operator=(const MapBuilder&) = delete;

  // Full pipeline over `files` (parse → graph → map → routes) in a fresh id
  // space; the files become the kept sources.  False if no local host could be
  // determined; diagnostics explain.
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
  // Route keys changed by the last Build/Update, in routes().names() id space.
  const std::vector<NameId>& dirty_route_ids() const { return dirty_route_ids_; }
  // The kept sources, in input order: what a state dir saves.
  const std::vector<InputFile>& artifacts() const { return artifacts_; }
  const std::string& local_name() const { return local_name_; }
  Diagnostics& diag() { return diag_; }

 private:
  // Compiles artifacts_ and renumbers the emission in routes_' id space into a
  // fresh routes_, recording the dirty ids against the previous routes_.
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
  std::vector<NameId> dirty_route_ids_;
};

}  // namespace incr
}  // namespace pathalias

#endif  // SRC_INCR_MAP_BUILDER_H_
