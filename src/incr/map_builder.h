// MapBuilder: the incremental parse→build→map→emit pipeline.
//
// A MapBuilder owns what the batch pipeline recomputes from scratch on every run:
// the per-file parse artifacts (src/incr/artifact.h), the live Graph, the Mapper
// result (the shortest-path tree), and the emitted RouteSet.  Build() runs the full
// pipeline once; Update() takes the changed files and brings everything to the
// state a from-scratch run over the edited inputs would produce, in two steps:
//
//   1. digest check — files whose bytes didn't change are not even re-lexed, and
//      an update that changes nothing returns without touching anything;
//   2. replay — the retained artifacts replay into a fresh graph (no lexing or
//      parsing for any unchanged file), the map and emit phases run in full, and
//      the emitted entries land through RouteSet::ApplyDelta, so route-set NameIds
//      stay stable and the dirty-id list stays precise.
//
// This is the paper's answer to a changed map — rerun pathalias — minus the lexer
// and parser for every file that did not change.  Back links (paper §Back links)
// are a fixpoint over the whole graph, so the map phase always runs in full.
//
// Golden equivalence: after any Build/Update sequence, routes() is content-identical
// (ToSortedText byte-identical) to a from-scratch pipeline over the current inputs —
// the randomized-edit fuzz test enforces this per edit.
//
// Dirty ids: dirty_route_ids() after each update is exactly the set of route keys
// whose bytes changed, in the RouteSet's interner space.  Those ids are stable only
// within this builder's life: a builder loaded from a state dir numbers names in
// emission order, so its ids need not match an image another builder wrote.  A
// serving layer therefore diffs the served and the refrozen image
// (exec::DiffRoutes) before AdoptRoutes, and never reads this builder's routes().

#ifndef SRC_INCR_MAP_BUILDER_H_
#define SRC_INCR_MAP_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/mapper.h"
#include "src/graph/graph.h"
#include "src/incr/artifact.h"
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
  // True when no replay was needed: every offered file was digest-unchanged and
  // nothing was removed.  False: the retained artifacts replayed.
  bool patched = false;
  size_t files_reparsed = 0;   // digest mismatch: lexer + parser ran
  size_t files_unchanged = 0;  // digest match among the files offered
  size_t routes_changed = 0;   // routes actually replaced/erased
};

class MapBuilder {
 public:
  explicit MapBuilder(MapBuilderOptions options);

  MapBuilder(const MapBuilder&) = delete;
  MapBuilder& operator=(const MapBuilder&) = delete;

  // Full pipeline over `files` (parse → artifacts → graph → map → routes).
  // False if no local host could be determined; diagnostics explain.
  bool Build(const std::vector<InputFile>& files);

  // Same, from pre-parsed artifacts (the state-dir load path: no lexing at all).
  bool BuildFromArtifacts(std::vector<FileArtifact> artifacts);

  // Applies edits: `changed` holds new/updated file contents (unknown names are
  // appended as new files, in order), `removed` names files to drop.  Everything
  // else is reused from the retained artifacts.
  UpdateStats Update(const std::vector<InputFile>& changed,
                     const std::vector<std::string>& removed = {});

  bool valid() const { return valid_; }
  const RouteSet& routes() const { return routes_; }
  // Route keys changed by the last Build/Update, in routes().names() id space.
  const std::vector<NameId>& dirty_route_ids() const { return dirty_route_ids_; }
  const std::vector<FileArtifact>& artifacts() const { return artifacts_; }
  const std::string& local_name() const { return local_name_; }
  const MapBuilderOptions& options() const { return options_; }
  const Graph* graph() const { return graph_.get(); }
  const Mapper::Result& map() const { return map_; }
  Diagnostics& diag() { return diag_; }

 private:
  // Replays artifacts_ into a fresh graph, maps, emits, and diffs into routes_.
  bool Rebuild();
  // Re-derives the effective local host name from artifacts_; empty when none.
  std::string ComputeLocalName() const;
  // Applies printer `entries` (a full emission) to routes_ via ApplyDelta.
  void CommitEmission(const std::vector<RouteEntry>& entries);

  MapBuilderOptions options_;
  Diagnostics diag_;
  bool valid_ = false;

  std::vector<FileArtifact> artifacts_;
  std::unique_ptr<Graph> graph_;
  Mapper::Result map_;
  // pathalint: allow(R1): survives interner replacement — every rebuild discards
  // the graph and its interner, so a NameId would dangle; the builder re-derives
  // the id from these bytes after each rebuild.
  std::string local_name_;

  RouteSet routes_;
  std::vector<NameId> dirty_route_ids_;
};

}  // namespace incr
}  // namespace pathalias

#endif  // SRC_INCR_MAP_BUILDER_H_
