// ImageView: validate a frozen route image and adopt it in place.
//
// An ImageView is a non-owning, typed window over a .pari buffer (usually an mmap'd
// file, sometimes an in-memory string).  Adopt() checks the buffer before any section
// pointer is handed out; after it succeeds, every accessor is a pointer into the
// caller's buffer — zero copies, zero allocations, no fixups.

#ifndef SRC_IMAGE_IMAGE_VIEW_H_
#define SRC_IMAGE_IMAGE_VIEW_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/image/image_format.h"
#include "src/support/interner.h"

namespace pathalias {
namespace image {

class ImageView {
 public:
  enum class Verify {
    // Structural checks only: header identity (magic/version/endianness), section
    // bounds and alignment, id ranges, pool termination, suffix chains that strictly
    // shrink (so every chain walk ends).  O(records) integer work;
    // never touches the byte pools beyond their last byte — this is the zero-startup
    // open path.
    kStructure,
    // Structure plus the FNV-1a payload checksum: detects bit rot anywhere in the
    // image at the cost of one streaming read.
    kChecksum,
  };

  // Validates `buffer` and returns a view into it, or nullopt with a human-readable
  // reason in *error.  The buffer must outlive the view (and anything adopted from it).
  static std::optional<ImageView> Adopt(std::string_view buffer, Verify verify,
                                        std::string* error);

  const ImageHeader& header() const { return *header_; }
  uint32_t name_count() const { return header_->name_count; }
  uint32_t route_count() const { return header_->route_count; }

  // The interner sections, packaged for NameInterner::AdoptFrozen.
  NameInterner::FrozenView interner_view() const;

  const FrozenRoute* routes() const { return routes_; }
  const uint32_t* by_name() const { return by_name_; }
  const char* route_bytes() const { return route_bytes_; }

 private:
  ImageView() = default;

  const ImageHeader* header_ = nullptr;
  const NameInterner::FrozenEntry* names_ = nullptr;
  const NameInterner::FrozenSlot* slots_ = nullptr;
  const FrozenRoute* routes_ = nullptr;
  const uint32_t* by_name_ = nullptr;
  const char* name_bytes_ = nullptr;
  const char* route_bytes_ = nullptr;
};

}  // namespace image
}  // namespace pathalias

#endif  // SRC_IMAGE_IMAGE_VIEW_H_
