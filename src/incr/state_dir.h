// StateDir: the on-disk form of the map sources an image was built from.
//
// A state dir is a directory holding one file, `manifest` (format version 5):
//
//   pathalias-state 5
//   local <n>                 then the local host's n bytes and a newline
//   generation <g>
//   file <n> <m>              per input file, in input order: then the name's n
//                             bytes, a newline, the source's m bytes, a newline
//   digest <d>                support::Checksum (src/support/checksum.h) of
//                             every byte before this line, in decimal
//
// Every string is length-prefixed, so any bytes round-trip, a name with a tab or
// a newline included.  A save is one durable publish (temp file + fsync + rename,
// src/support/durable_file.h), so a crashed save leaves the previous manifest
// readable.  A load checks the digest and then every length against the bytes
// left, and rejects the directory wholesale on any mismatch: a state dir is a
// cache, and the inputs can always rebuild it.
//
// Versions 1 and 2 stored a parse form that is gone, version 3 kept each source
// in its own file under artifacts/, and version 4 was this layout sealed with
// FNV-1a.  All four are refused like an unrecognized future version: with a
// clean rebuild-the-state-dir error, never parsed on faith (`routedb update
// --init` rebuilds it).  A save over a version 3 directory removes its
// artifacts/.
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

// Writes `contents` to `dir`/manifest (`dir` is created if missing).  False on
// any I/O failure.
bool SaveStateDir(const std::string& dir, const StateDirContents& contents);

// Reads a state directory back.  nullopt (with *error set) on a missing, corrupt
// or other-version manifest.
std::optional<StateDirContents> LoadStateDir(const std::string& dir, std::string* error);

}  // namespace incr
}  // namespace pathalias

#endif  // SRC_INCR_STATE_DIR_H_
