#include "src/image/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <utility>

#include "src/support/failpoint.h"
#include "src/support/io_retry.h"

namespace pathalias {
namespace image {

std::optional<MappedFile> MappedFile::Open(const std::string& path, bool readahead) {
  MappedFile file;
  if (support::failpoint::Inject("image.open")) {
    return std::nullopt;
  }
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      // An armed "image.mmap" exercises the degraded path below: mmap failure
      // falls back to reading the whole file, never to a failed open.
      void* mapped = support::failpoint::Inject("image.mmap")
                         ? MAP_FAILED
                         : ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                                  MAP_PRIVATE, fd, 0);
      if (mapped != MAP_FAILED) {
        file.mapped_ = static_cast<char*>(mapped);
        file.size_ = static_cast<size_t>(st.st_size);
        if (readahead) {
          // Advisory only: an unsupported advice value must not fail the open.
          (void)::madvise(file.mapped_, file.size_, MADV_WILLNEED);
        }
      }
    }
    ::close(fd);
    if (file.mapped_ != nullptr) {
      return file;
    }
  }
  std::optional<std::string> bytes;
  if (!support::failpoint::Inject("image.read")) {
    bytes = support::ReadFileFully(path, nullptr);
  }
  if (!bytes.has_value()) {
    return std::nullopt;
  }
  file.buffer_ = std::move(*bytes);
  return file;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (mapped_ != nullptr) {
      ::munmap(mapped_, size_);
    }
    mapped_ = std::exchange(other.mapped_, nullptr);
    size_ = std::exchange(other.size_, 0);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (mapped_ != nullptr) {
    ::munmap(mapped_, size_);
  }
}

}  // namespace image
}  // namespace pathalias
