// RolloverController: route updates for a serving process, swapped in between
// batches so no reply is torn or mixed.
//
// Owns the pieces a long-lived server needs to swap its mapping under live
// traffic: the current FrozenImage, the FrozenBatchEngine resolving against it,
// an optionally-resident incr::MapBuilder for in-process updates, and the old
// mappings that a swap took out of service.  An update runs to completion on the
// serving thread, so queries that arrive meanwhile wait until it ends.
//
// One way into service, reached from routedbd's two triggers:
//
//   ReloadFromSources() — SIGHUP.  Re-reads the configured map files and runs the
//   routedb-update flow in process: MapBuilder::Update (a byte check against the
//   retained sources, then a rebuild that parses every file), and when a route
//   changed, ImageWriter::Refreeze (temp + rename, so concurrent opens never see
//   a torn image) and SaveStateDir.  Then the adopt step.  The builder stays
//   resident, so repeated HUPs skip the state-dir load and the build of the
//   previous state that a one-shot `routedb update` pays.
//
//   CheckImage() — the file watch.  The adopt step alone, for an image some OTHER
//   process replaced (routedb update's rename).  The resident builder no longer
//   describes that image, so an adopted replacement drops it.
//
// The adopt step stats the image and, when the file is not the one being served,
// opens it and asks exec::DiffRoutes for the ids whose routes changed.  The diff
// first verifies that the fresh interner keeps every served NameId, because
// nothing else guarantees it: a builder loaded from the state dir numbers names
// in emission order, while a one-shot update appends its new names at the end.
// Compatible images hot-swap via AdoptRoutes and keep the warm cache; an
// incompatible one replaces the whole engine — correct, just colder.
//
// The OLD image is not unmapped inside the swap: it goes on the retired list,
// and the next RetireDrained() — which routedbd calls at the end of every loop
// turn — frees it.  AdoptRoutes re-homes the caches onto the fresh image (an
// incompatible swap discards the old engine), so by then nothing references the
// old mapping at all.
//
// Threading: one owner.  All methods run on the serving thread, between batches
// (the AdoptRoutes contract); the engine's batches are fork-join, so no pool
// thread still reads the old image once a batch has returned.

#ifndef SRC_NET_ROLLOVER_H_
#define SRC_NET_ROLLOVER_H_

#include <sys/stat.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/exec/batch_engine.h"
#include "src/image/frozen_route_set.h"
#include "src/incr/map_builder.h"

namespace pathalias {
namespace net {

struct RolloverOptions {
  std::string image_path;              // the .pari image to serve and watch
  std::vector<std::string> map_files;  // sources for the SIGHUP reload path; empty
                                       //   disables ReloadFromSources
  exec::BatchEngineOptions engine;     // forwarded to the serving engine
};

enum class ReloadOutcome {
  kApplied,  // a fresh mapping is live; the old one is queued for retirement
  kNoop,     // nothing changed — same engine, same image, no work done
  kError,    // reload failed; the PREVIOUS mapping is still serving, untouched
};

class RolloverController {
 public:
  explicit RolloverController(RolloverOptions options) : options_(std::move(options)) {}

  // Opens the image and builds the serving engine.  False (with *error set) if the
  // image is missing or invalid.
  bool Start(std::string* error);

  // The serving engine.  The pointer is stable across rollovers (AdoptRoutes swaps
  // its internals) except after an incompatible swap, which replaces the engine
  // object — re-fetch after every reload, which costs nothing.
  exec::FrozenBatchEngine* engine() { return engine_.get(); }
  const FrozenRouteSet* routes() const { return &current_->routes(); }

  // SIGHUP: re-read options_.map_files, run the in-process update pipeline, then
  // the adopt step.  kNoop when no route changed and the image on disk is the one
  // being served (no refreeze, no swap — image mtime untouched).  *detail gets a
  // one-line human summary either way (the reason, on kError).
  ReloadOutcome ReloadFromSources(std::string* detail);

  // File-watch: the adopt step for an image replaced on disk (rename by an
  // external `routedb update`).  kNoop when the file is unchanged.  Cheap when
  // nothing changed (one stat), so poll freely.
  ReloadOutcome CheckImage(std::string* detail);

  // Unmaps every image a swap has taken out of service.  Returns how many were
  // freed.  Call from the serving loop between batches.
  size_t RetireDrained();

  size_t pending_retirements() const { return retired_.size(); }
  // Monotonic count of successful swaps — lets a test or stats line observe that a
  // rollover actually happened.
  uint64_t generation() const { return generation_; }
  // The publish generation stamped in the image being served
  // (ImageHeader::generation; 0 for pre-stamp images).  The HUP path refuses a
  // <image>.state whose stamp disagrees — see EnsureBuilder.
  uint64_t image_generation() const { return image_generation_; }

 private:
  struct ImageIdentity {
    dev_t dev = 0;
    ino_t inode = 0;
    off_t size = 0;
    int64_t mtime_sec = 0;
    int64_t mtime_nsec = 0;
    bool operator==(const ImageIdentity&) const = default;
  };

  // stat() the served path into *out; false if it cannot be stat'd.
  bool StatImage(ImageIdentity* out) const;
  // Loads <image>.state into the resident builder (first HUP only); false + detail
  // on failure.  Refuses a state dir whose generation stamp disagrees with the
  // served image's.  That pairing comes from a torn update (a crash between the
  // image rename and the manifest rename): the state lacks edits the image
  // already carries, and an update built on it would drop them from any file the
  // daemon does not re-read.  The old map keeps serving until `routedb update`,
  // which re-reads every source the manifest names, re-pairs the two.  (Wrong
  // ids are not the risk: the adopt step checks them against the served image.)
  bool EnsureBuilder(std::string* detail);
  // The adopt step: stat the image; if it is not the one being served, open it
  // and either AdoptRoutes with DiffRoutes' ids or, for another id universe,
  // build the engine cold.  The old image goes on the retired list.
  ReloadOutcome AdoptImage(std::string* detail);

  RolloverOptions options_;
  std::unique_ptr<FrozenImage> current_;
  std::unique_ptr<exec::FrozenBatchEngine> engine_;
  std::unique_ptr<incr::MapBuilder> builder_;  // lazy: loaded on first HUP
  ImageIdentity identity_;                     // what is being served
  std::vector<std::unique_ptr<FrozenImage>> retired_;
  uint64_t generation_ = 0;
  uint64_t image_generation_ = 0;  // ImageHeader::generation of current_
};

}  // namespace net
}  // namespace pathalias

#endif  // SRC_NET_ROLLOVER_H_
