// ImageWriter: freeze a live NameInterner + RouteSet into a .pari image.
//
// Freezing sizes every section first and allocates the image once.  It then writes each
// section at its offset: the name records and the route records with their
// offset-based string pools, and the probe table rebuilt from the hashes the interner
// recorded at intern time (so freezing works even after the mapper stole the live
// table).  Last it stamps the header with the checksum.  The output is
// position-independent: mmap it anywhere and hand it to ImageView / FrozenRouteSet.

#ifndef SRC_IMAGE_IMAGE_WRITER_H_
#define SRC_IMAGE_IMAGE_WRITER_H_

#include <string>

#include "src/route_db/route_db.h"

namespace pathalias {
namespace image {

class ImageWriter {
 public:
  // Serializes `routes` (and the interner that owns its keys) into a .pari buffer,
  // stamped with `generation` (see ImageHeader::generation; 0 = unstamped).
  static std::string Freeze(const RouteSet& routes, uint64_t generation = 0);

  // Freeze() straight to a file, crash-safely: temp + fsync + rename + parent-dir
  // fsync (support::PublishFileDurably), so `path` is never observable short or
  // torn.  Returns false on I/O failure with *error describing the failed step.
  static bool WriteFile(const RouteSet& routes, const std::string& path,
                        uint64_t generation = 0, std::string* error = nullptr);

  // Rewrites an existing image in place from an updated RouteSet.  Same durable
  // temp+rename commit as WriteFile: a reader that opened (and mmap'd) the old
  // image keeps its intact mapping while new opens see the fresh routes — the
  // update step of the incremental pipeline.  A crash at any point leaves the
  // old image intact or the new one complete, never a torn file at `path`.
  static bool Refreeze(const RouteSet& routes, const std::string& path,
                       uint64_t generation = 0, std::string* error = nullptr);
};

}  // namespace image
}  // namespace pathalias

#endif  // SRC_IMAGE_IMAGE_WRITER_H_
