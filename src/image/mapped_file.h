// MappedFile: a read-only file mapping with a heap-buffer fallback.
//
// The zero-startup open path: mmap the .pari file and read it in place, paying page
// faults only for the bytes a query actually touches.  Where mmap is unavailable (or
// fails — network filesystems, zero-length files), the file is read into an owned
// buffer instead; callers see the same string_view either way.

#ifndef SRC_IMAGE_MAPPED_FILE_H_
#define SRC_IMAGE_MAPPED_FILE_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace pathalias {
namespace image {

class MappedFile {
 public:
  // With `readahead` the mapping is announced to the kernel as about-to-be-needed
  // (madvise(MADV_WILLNEED)) so page-ins overlap the caller's first probes instead
  // of serializing behind them — the right call for a batch run that will touch
  // most of the image, the wrong one for a single lookup (first slice of the
  // ROADMAP "image generation v2" item).  Advisory: failure is ignored, and the
  // heap-buffer fallback reads everything eagerly anyway.
  static std::optional<MappedFile> Open(const std::string& path, bool readahead = false);

  // Owns bytes already in memory (an image frozen in this process), served exactly
  // like the read fallback.
  static MappedFile FromBuffer(std::string bytes) {
    MappedFile file;
    file.buffer_ = std::move(bytes);
    return file;
  }

  MappedFile(MappedFile&& other) noexcept { *this = std::move(other); }
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  // Stable for the life of the MappedFile, including across moves (the mapping's
  // address does not change when the owning object does).
  std::string_view bytes() const {
    return mapped_ != nullptr ? std::string_view(mapped_, size_) : std::string_view(buffer_);
  }
  bool memory_mapped() const { return mapped_ != nullptr; }

 private:
  MappedFile() = default;

  char* mapped_ = nullptr;  // mmap'd region, or nullptr when using the fallback buffer
  size_t size_ = 0;
  std::string buffer_;  // fallback when mmap is unavailable
};

}  // namespace image
}  // namespace pathalias

#endif  // SRC_IMAGE_MAPPED_FILE_H_
