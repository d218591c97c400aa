// MapBuilder: the incremental parse→build→map→emit pipeline.
//
// A MapBuilder owns what the batch pipeline recomputes from scratch on every run:
// the map sources themselves (each file's name and bytes), the live Graph, the
// Mapper result (the shortest-path tree), and the emitted RouteSet.  Build() runs
// the full pipeline once; Update() takes the changed files and brings everything
// to the state a from-scratch run over the edited inputs would produce, in two
// steps:
//
//   1. byte check — a file whose bytes equal the retained copy is unchanged, and
//      an update that changes nothing returns without touching anything;
//   2. rebuild — every retained source is parsed into a fresh graph by the
//      production Parser, the map and emit phases run in full, and the emitted
//      entries land through RouteSet::ApplyDelta, so route-set NameIds stay
//      stable and the dirty-id list stays precise.
//
// This is the paper's answer to a changed map — rerun pathalias — kept warm: the
// route set, its ids and the dirty list survive between runs.  Back links (paper
// §Back links) are a fixpoint over the whole graph, so the map phase always runs
// in full.
//
// Golden equivalence: after any Build/Update sequence, routes() is content-identical
// (ToSortedText byte-identical) to a from-scratch pipeline over the current inputs —
// the randomized-edit fuzz test enforces this per edit.
//
// Diagnostics: diag() holds the last build's diagnostics only.  Every rebuild
// starts from a cleared record, so a fixed file's errors go away and a long-lived
// builder's record does not grow with each update.
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
  // True when no rebuild was needed: every offered file was byte-identical to its
  // retained copy and nothing was removed.  False: every retained file was parsed
  // again.
  bool patched = false;
  size_t files_changed = 0;    // new, or bytes differ from the retained copy
  size_t files_unchanged = 0;  // byte-identical among the files offered
  size_t routes_changed = 0;   // routes actually replaced/erased
};

class MapBuilder {
 public:
  explicit MapBuilder(MapBuilderOptions options);

  MapBuilder(const MapBuilder&) = delete;
  MapBuilder& operator=(const MapBuilder&) = delete;

  // Full pipeline over `files` (parse → graph → map → routes); the files become
  // the retained sources.  False if no local host could be determined;
  // diagnostics explain.
  bool Build(std::vector<InputFile> files);

  // Applies edits: `changed` holds new/updated file contents (unknown names are
  // appended as new files, in order), `removed` names files to drop; names that
  // match no retained file are ignored.  Every other file is reused from the
  // retained sources.
  UpdateStats Update(const std::vector<InputFile>& changed,
                     const std::vector<std::string>& removed = {});

  bool valid() const { return valid_; }
  const RouteSet& routes() const { return routes_; }
  // Route keys changed by the last Build/Update, in routes().names() id space.
  const std::vector<NameId>& dirty_route_ids() const { return dirty_route_ids_; }
  // The retained sources, in input order: what a state dir saves.
  const std::vector<InputFile>& artifacts() const { return artifacts_; }
  const std::string& local_name() const { return local_name_; }
  const MapBuilderOptions& options() const { return options_; }
  const Graph* graph() const { return graph_.get(); }
  const Mapper::Result& map() const { return map_; }
  Diagnostics& diag() { return diag_; }

 private:
  // Parses artifacts_ into a fresh graph, maps, emits, and diffs into routes_.
  bool Rebuild();
  // Applies printer `entries` (a full emission) to routes_ via ApplyDelta.
  void CommitEmission(const std::vector<RouteEntry>& entries);

  MapBuilderOptions options_;
  Diagnostics diag_;
  bool valid_ = false;

  std::vector<InputFile> artifacts_;
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
