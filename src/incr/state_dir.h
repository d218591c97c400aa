// StateDir: the on-disk form of a MapBuilder's kept sources.
//
// Layout (all files under one directory):
//   manifest            text: format version, local host, ignore_case, generation,
//                       one line per input file — digest, payload file, input
//                       name — and last a digest of every line before it
//   artifacts/NNNN-DIGEST.pai  one input file's bytes, in file order
//
// The manifest is written last, via durable temp-file + fsync + rename (see
// src/support/durable_file.h), so a crashed save leaves the previous state
// readable.  Digests are FNV-1a-64.  Load recomputes the digest of every payload
// and of the manifest itself, and rejects the directory wholesale on any
// mismatch: a state dir is a cache, and the inputs can always rebuild it.
//
// Manifest format version 3 stores the sources themselves.  Versions 1 and 2
// stored a parse form that is gone, so they are refused like an unrecognized
// future version: with a clean rebuild-the-state-dir error, never parsed on
// faith.
//
// Every state dir accompanies a .pari image, at <image>.state.  The update step
// (net::UpdateImage in src/net/rollover.h, run by `routedb update` and routedbd's
// SIGHUP) loads it on every update and saves it after publishing the image.

#ifndef SRC_INCR_STATE_DIR_H_
#define SRC_INCR_STATE_DIR_H_

#include <optional>
#include <string>
#include <vector>

#include "src/parser/parser.h"

namespace pathalias {
namespace incr {

struct StateDirContents {
  // pathalint: allow(R1): manifest serialization record — bytes round-tripped
  // through the on-disk state dir, read back before any interner is rebuilt.
  std::string local;        // the effective local host the state was built with
  bool ignore_case = false;
  // Publish generation of the .pari image this state was saved alongside
  // (ImageHeader::generation).  0 = unstamped, never checked.  The update step
  // compares the two stamps and treats a mismatch as a torn update, never
  // mix-and-match: it heals the pair by re-reading every source the manifest
  // names.
  uint64_t image_generation = 0;
  // The map sources the state was built from (MapBuilder::artifacts()), in
  // input order.
  std::vector<InputFile> artifacts;
};

// Writes `contents` under `dir` (created if missing).  False on any I/O failure.
bool SaveStateDir(const std::string& dir, const StateDirContents& contents);

// Reads a state directory back.  nullopt (with *error set) on a missing, corrupt
// or other-version manifest, an unreadable payload, or any digest disagreement.
std::optional<StateDirContents> LoadStateDir(const std::string& dir, std::string* error);

}  // namespace incr
}  // namespace pathalias

#endif  // SRC_INCR_STATE_DIR_H_
