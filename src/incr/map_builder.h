// MapBuilder: the incremental parse→build→map→emit pipeline.
//
// A MapBuilder owns what the batch pipeline recomputes from scratch on every run:
// the per-file parse artifacts (src/incr/artifact.h), the live Graph, the retained
// Mapper result (the shortest-path tree), and the emitted RouteSet.  Build() runs the
// full pipeline once; Update() takes the changed files and brings everything to the
// state a from-scratch rebuild of the edited inputs would produce, by the cheapest
// sound route available:
//
//   1. digest check — files whose bytes didn't change are not even re-lexed;
//   2. in-place patch — when every changed file holds diffable declarations (hosts,
//      links, aliases, and the dead/delete/adjust/gatewayed/gateway keywords — nets
//      and private scoping are the remaining exceptions) and the gates below hold,
//      the artifact diff yields the touched (from, to) pairs, host states, alias
//      pairs, and orphaned/new names; effective winners (costs, dead/gateway/
//      net-member link flags, terminal/deleted/gatewayed host flags, adjust sums)
//      are recomputed across all files; the live graph is patched (links added,
//      removed, recosted, reflagged; alias edges added/removed; host state set;
//      nodes retired/revived), Mapper::Patch recomputes just the affected region,
//      RoutePrinter::BuildEntryFor regenerates just the dirty routes, and
//      RouteSet::ApplyDelta swaps them in;
//   3. replay rebuild — otherwise the retained artifacts replay into a fresh graph
//      (skipping the lexer for every unchanged file) and the map/emit phases run in
//      full; the resulting entries still land through ApplyDelta, so route-set
//      NameIds stay stable and the dirty-id list stays precise.
//
// Golden equivalence: after any Build/Update sequence, routes() is content-identical
// (ToSortedText byte-identical) to a from-scratch pipeline over the current inputs —
// the randomized-edit fuzz test enforces this per edit.  The patch path is forced
// back to a replay rebuild whenever a gate it depends on fails; the reasons surface
// in UpdateStats::rebuild_reason and are documented in the README ("when a full
// rebuild is still forced").
//
// Cache coherence: dirty_route_ids() after each update is exactly the set of route
// keys whose bytes changed, in the RouteSet's stable interner space — what a serving
// layer feeds to exec::FrozenBatchEngine::AdoptRoutes after refreezing an image
// (ids survive the freeze), making flush-the-world unnecessary.  Serving engines
// read frozen images, never this builder's live routes().

#ifndef SRC_INCR_MAP_BUILDER_H_
#define SRC_INCR_MAP_BUILDER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
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
  bool patched = false;         // true: in-place patch; false: replay rebuild ran
  std::string rebuild_reason;   // set when !patched
  size_t files_reparsed = 0;    // digest mismatch: lexer + parser ran
  size_t files_unchanged = 0;   // digest match among the files offered
  size_t dirty_nodes = 0;       // mapper region size (patched only)
  size_t routes_changed = 0;    // routes actually replaced/erased
  // Non-plain work the in-place patch absorbed (all zero on a replay rebuild, and
  // on updates that only touched plain host/link declarations):
  size_t alias_edits = 0;       // alias edge pairs added to / removed from the live graph
  size_t link_flag_edits = 0;   // dead/gateway/net-member link-flag changes applied
  size_t host_state_edits = 0;  // terminal/deleted/gatewayed/adjust host changes applied
  // The re-mapped dirty region contained alias edges — the patch path ran where the
  // old alias gate would have forced a replay (patched only).
  bool region_has_aliases = false;
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

  // Full build over `files`, reusing any artifact in `prior` whose digest matches —
  // the one-shot CLI flow (`pathalias --incremental`): unchanged files skip the
  // lexer and parser entirely, then one replay + map + emit runs.  The counters
  // (when non-null) report how many files were actually reparsed vs reused.
  bool BuildReusing(const std::vector<InputFile>& files, std::vector<FileArtifact> prior,
                    size_t* files_reparsed = nullptr, size_t* files_reused = nullptr);

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
  struct LinkDecl {
    Cost cost;
    char op;
    bool right;
    bool operator==(const LinkDecl&) const = default;
  };
  // The effective (post duplicate-resolution, post keyword-declaration) link state
  // for a touched pair: absent, or a winner plus the declaration-derived flags.
  struct PairState {
    bool present = false;
    LinkDecl winner{0, kDefaultOp, false};
    bool dead = false;        // a dead {a!b} found the link declared
    bool gateway = false;     // a gateway {net!host} sanctioned (or created) it
    bool net_member = false;  // a net declaration generated it (net → member)
  };
  // The effective declaration-derived state of a touched host.
  struct HostState {
    bool dead = false;           // dead {a}: terminal
    bool deleted = false;        // delete {a}
    bool gatewayed = false;      // gatewayed {a} or gateway {a!...}
    bool explicit_gateways = false;  // gateway {a!...}
    Cost adjust = 0;             // adjust {a(n)} sum
    bool operator==(const HostState&) const = default;
  };

  // Replays artifacts_ into a fresh graph, maps, emits, and diffs into routes_.
  bool FullRebuild();
  // The in-place path; false when any gate fails (reason in *why), in which case
  // the caller falls back to FullRebuild().
  bool TryPatch(const std::vector<size_t>& changed_indices,
                const std::vector<FileArtifact>& old_artifacts, UpdateStats* stats,
                std::string* why);
  // Re-derives the effective local host name from artifacts_; empty when none.
  std::string ComputeLocalName() const;
  // Applies printer `entries` (a full emission) to routes_ via ApplyDelta and
  // refreshes the emitted-name bookkeeping.
  void CommitFullEmission(const std::vector<RouteEntry>& entries);
  // Per-artifact symbol→NameId resolution against the current graph's interner.
  const std::vector<NameId>& SymbolIds(size_t artifact_index);

  MapBuilderOptions options_;
  Diagnostics diag_;
  bool valid_ = false;

  std::vector<FileArtifact> artifacts_;
  // Lazily resolved symbol ids per artifact; entries tagged with graph_generation_.
  std::vector<std::pair<uint64_t, std::vector<NameId>>> symbol_ids_;
  uint64_t graph_generation_ = 0;

  std::unique_ptr<Graph> graph_;
  Mapper::Result map_;
  // pathalint: allow(R1): survives interner replacement — every full rebuild
  // discards the graph and its interner, so a NameId would dangle; the builder
  // re-derives the id from these bytes after each rebuild.
  std::string local_name_;

  RouteSet routes_;
  std::vector<NameId> dirty_route_ids_;
  // node->order → display name currently in routes_ ("" = not emitted), plus a
  // name→count census to detect display-name collisions (two nodes printing the
  // same name), which the delta path cannot reproduce ("later preorder entry wins").
  std::vector<std::string> emitted_by_order_;
  std::unordered_map<std::string, uint32_t> emitted_count_;
  bool emitted_collision_ = false;
  // Names retired from the live graph (refcount reached zero); revived on re-add.
  std::unordered_set<NameId> retired_names_;
};

}  // namespace incr
}  // namespace pathalias

#endif  // SRC_INCR_MAP_BUILDER_H_
