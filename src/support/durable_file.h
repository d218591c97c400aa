// Crash-safe single-file publish: write-temp, fsync, rename, fsync-parent.
//
// The invariant callers buy: after PublishFileDurably returns true, the bytes
// are at `path` and survive a crash/power-cut; if it returns false (or the
// process dies anywhere inside), `path` holds either its previous content or
// the new content in full — never a short or torn file.  The commit point is
// the rename; everything before it targets `path + ".tmp"`, and the temp file
// is fsynced before the rename so the commit can't publish a name whose data
// blocks are still in flight.  The parent directory is fsynced after the
// rename so the new directory entry itself is durable.
//
// Every fallible step is a failpoint site (see src/support/failpoint.h), named
// `<failpoint_prefix>.{open,write,fsync,close,rename,dirsync}`.  The `.write`
// site simulates the nastiest case — a SHORT write (half the bytes land, then
// the error) — so tests prove the published path is immune to exactly the torn
// state a real ENOSPC mid-write leaves in the temp file.

#ifndef SRC_SUPPORT_DURABLE_FILE_H_
#define SRC_SUPPORT_DURABLE_FILE_H_

#include <string>
#include <string_view>

namespace pathalias {
namespace support {

bool PublishFileDurably(const std::string& path, std::string_view bytes,
                        std::string_view failpoint_prefix, std::string* error);

// A tool's output file (`pathalias -o`, `mapgen --dir`): PublishFileDurably when
// `path` names a regular file or nothing, so a failed write (a full disk, a file
// size limit) leaves the old file whole.  Any other node (a device such as
// /dev/null, a FIFO, a symlink) is written through in place, since a rename
// would replace the node itself.
bool WriteOutputFile(const std::string& path, std::string_view bytes,
                     std::string_view failpoint_prefix, std::string* error);

}  // namespace support
}  // namespace pathalias

#endif  // SRC_SUPPORT_DURABLE_FILE_H_
