// StateDir: the on-disk form of a MapBuilder's retained artifacts.
//
// Layout (all files under one directory):
//   manifest            text header: format version, local host, ignore_case, then
//                       one line per input file — digest, artifact file, input name
//   artifacts/NNNN.pai  serialized FileArtifact (src/incr/artifact.h), in file order
//
// The manifest is written last, via durable temp-file + fsync + rename (see
// src/support/durable_file.h), so a crashed save leaves the previous state
// readable.  Digests live in both the manifest and the artifact bodies; Load
// verifies they agree and rejects the directory wholesale on any mismatch (a
// state dir is a cache — the inputs can always rebuild it).
//
// Manifest format version 2 adds a `generation` line (the publish generation of
// the image this state accompanies); version-1 directories still load, reading
// back generation 0.  Unrecognized future versions are rejected with a clean
// rebuild-needed error, never parsed on faith.
//
// Every state dir accompanies a .pari image, at <image>.state.  Consumers:
// `routedb update <image> <changed-files...>` and routedbd's SIGHUP reload
// (src/net/rollover.h), which both load it into a MapBuilder.

#ifndef SRC_INCR_STATE_DIR_H_
#define SRC_INCR_STATE_DIR_H_

#include <optional>
#include <string>
#include <vector>

#include "src/incr/artifact.h"

namespace pathalias {
namespace incr {

struct StateDirContents {
  // pathalint: allow(R1): manifest serialization record — bytes round-tripped
  // through the on-disk state dir, read back before any interner is rebuilt.
  std::string local;        // the effective local host the state was built with
  bool ignore_case = false;
  // Publish generation of the .pari image this state was saved alongside
  // (ImageHeader::generation).  0 = unstamped: a v1 manifest.  Both consumers
  // compare the two stamps and treat a mismatch as a torn update, never
  // mix-and-match: RolloverController refuses it, and routedb update heals it
  // by re-reading every source the manifest names.
  uint64_t image_generation = 0;
  std::vector<FileArtifact> artifacts;
};

// Writes `contents` under `dir` (created if missing).  False on any I/O failure.
bool SaveStateDir(const std::string& dir, const StateDirContents& contents);

// Reads a state directory back.  nullopt (with *error set) on missing/corrupt
// manifest, unreadable artifacts, or digest disagreement.
std::optional<StateDirContents> LoadStateDir(const std::string& dir, std::string* error);

}  // namespace incr
}  // namespace pathalias

#endif  // SRC_INCR_STATE_DIR_H_
