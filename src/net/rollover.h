// The update step, the init step and RolloverController: route updates for a
// published image and for a serving process, swapped in between batches so no
// reply is torn or mixed.
//
// InitializeImage() is `routedb update --init`.  UpdateImage() is the one
// update step; `routedb update` and routedbd's SIGHUP both call it.  It loads
// <image>.state (one manifest that carries every source), pairs it with the
// image on disk, merges the offered files into the kept sources (the byte
// check, incr::MergeSources), compiles once (incr::MapBuilder::Build, in a fresh
// id space), and counts the routes the build changed against the replaced image
// by name (incr::CountChangedRoutes).  Both steps publish the image, then the
// state, through one function.  Nothing survives either step.
//
//   * Pairing.  A torn pair (a crash between the image rename and the manifest
//     rename: the image carries edits the state lacks, and the generation
//     stamps differ), a missing image or one that fails its checksum re-reads
//     every kept source from disk first, and compiles even when no byte
//     changed; if a kept source cannot be read, nothing is published.
//   * Spelling.  An offered file is matched to a kept one by name, as the
//     manifest spells it.  An offered name that matches none but is the same
//     file on disk as a kept one the update does not remove (./mid.map for
//     mid.map) is refused, and nothing is published.
//
// RolloverController owns what a long-lived server needs to swap its mapping
// under live traffic: the current FrozenImage, the FrozenBatchEngine resolving
// against it, and the old mappings a swap took out of service.  An update runs
// to completion on the serving thread, so queries that arrive meanwhile wait.
// SIGHUP runs ReloadFromSources (UpdateImage over the configured map files,
// then the adopt step); the file watch runs the adopt step alone (CheckImage).
// The adopt step hands any image, whatever its name ids (an update's, one from
// `routedb update --init` or `routedb freeze`), to the one engine's
// AdoptRoutes, which points its resolver at it.  Start and the adopt step open
// every image at Verify::kChecksum: an image that fails it is a reload error,
// and the old image keeps serving.  The engine keeps no answer between
// batches, so every batch after the adopt is answered from the new image.
//
// The OLD image is not unmapped inside the swap: it goes on the retired list,
// and the next RetireDrained() — which routedbd calls at the end of every loop
// turn — frees it.  AdoptRoutes leaves the engine no view into the old
// mapping, so by then nothing references it at all.
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

struct UpdateRequest {
  std::string image_path;               // <image_path>.state holds the kept sources
  std::vector<InputFile> changed;       // offered files: new bytes, or new files
  std::vector<std::string> removed;     // kept files to drop; each must name one
  // pathalint: allow(R1): options boundary — the operator's spelling, compared
  // with the state's before any interner exists.
  std::string local;                    // empty: the state's; otherwise must match it
};

enum class UpdateOutcome {
  kPublished,    // the image is published (the state too, unless state_saved says not)
  kNothingToDo,  // every offered file matches its kept bytes; nothing was written
  kError,        // nothing was published; `error` says why
};

struct UpdateReport {
  UpdateOutcome outcome = UpdateOutcome::kError;
  std::string error;
  // How the step paired the state with the image (a torn pair healed); empty
  // when there is nothing to say.
  std::string note;
  bool state_saved = false;
  // Files changed and unchanged, and the routes changed, new or removed against
  // the replaced image, matched by name (every route when no image opened).
  incr::UpdateStats stats;
  size_t routes_total = 0;
  // The local host the published build mapped from.
  std::string local;
  Diagnostics diag;  // the published build's diagnostics
};

// The init step: compiles `files` once, in the order given, from `local` (empty:
// the first host declared), and publishes the image at generation 1, then a
// state dir, of the current format, that keeps every file and `local`.  Every
// file and every route counts as changed.
UpdateReport InitializeImage(const std::string& image_path, std::vector<InputFile> files,
                             const std::string& local);

// The one update step (see the header comment).
UpdateReport UpdateImage(UpdateRequest request);

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
  // On glibc this also sets the process's malloc to keep up to 32 MiB of freed
  // heap, which each reload from sources re-uses (see rollover.cc).
  explicit RolloverController(RolloverOptions options);

  // Opens the image, checksum included, and builds the serving engine.  False
  // (with *error set) if the image is missing, invalid or corrupt.
  bool Start(std::string* error);

  // The serving engine: one object from Start on (AdoptRoutes swaps its internals).
  exec::FrozenBatchEngine* engine() { return engine_.get(); }
  const FrozenRouteSet* routes() const { return &current_->routes(); }

  // SIGHUP: re-read options_.map_files, run UpdateImage, then the adopt step.
  // kNoop when no file changed and the image on disk is the one being served (no
  // refreeze, no swap — image mtime untouched).  *detail gets a one-line human
  // summary either way (the reason, on kError).
  ReloadOutcome ReloadFromSources(std::string* detail);

  // The adopt step, and the file watch: stat the image; if it is not the one
  // being served (a rename by an external `routedb update`, or a SIGHUP's
  // publish), open it, checksum included, and hand it to the engine's
  // AdoptRoutes.  The old image goes on the retired list.  kError when the
  // image fails to open or verify; the next call retries.  kNoop when the file
  // is unchanged: one stat, so poll freely.
  ReloadOutcome CheckImage(std::string* detail);

  // Unmaps every image a swap has taken out of service.  Returns how many were
  // freed.  Call from the serving loop between batches.
  size_t RetireDrained();

  size_t pending_retirements() const { return retired_.size(); }
  // Monotonic count of successful swaps — lets a test or stats line observe that a
  // rollover actually happened.
  uint64_t generation() const { return generation_; }

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

  RolloverOptions options_;
  std::unique_ptr<FrozenImage> current_;
  std::unique_ptr<exec::FrozenBatchEngine> engine_;
  ImageIdentity identity_;  // what is being served
  std::vector<std::unique_ptr<FrozenImage>> retired_;
  uint64_t generation_ = 0;
};

}  // namespace net
}  // namespace pathalias

#endif  // SRC_NET_ROLLOVER_H_
