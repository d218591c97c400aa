// The .pari frozen route image — on-disk layout.
//
// One relocatable flat-binary file holding a frozen NameInterner and a frozen RouteSet:
// the whole route database a mailer needs, in a form it can open with mmap and read in
// place.  Nothing in the file is a pointer; every reference is an offset from the start
// of the file (sections) or from the start of a byte pool (names, route strings), so
// the image is valid at whatever address the kernel maps it.
//
//   ┌────────────────────┐ 0
//   │ ImageHeader        │ magic "PARI", version, endian marker, checksum, counts,
//   │ (128 bytes)        │ section offsets/sizes
//   ├────────────────────┤ names_offset            (8-aligned)
//   │ FrozenEntry[n]     │ per-name: probe hash, byte-pool offset, length, suffix id
//   ├────────────────────┤ slots_offset
//   │ FrozenSlot[T]      │ the interner's open-addressing probe table (prime T)
//   ├────────────────────┤ routes_offset
//   │ FrozenRoute[r]     │ per-route: key NameId, route-pool offset/length, cost
//   ├────────────────────┤ by_name_offset
//   │ uint32_t[n]        │ NameId -> route index + 1 (0 = this name has no route)
//   ├────────────────────┤ name_bytes_offset
//   │ char[...]          │ NUL-terminated, case-normalized name bytes
//   ├────────────────────┤ route_bytes_offset
//   │ char[...]          │ NUL-terminated route format strings ("duke!phs!%s")
//   └────────────────────┘ file_size
//
// The interner sections reuse NameInterner::FrozenEntry/FrozenSlot verbatim (the live
// probe table already stores slots in frozen layout), so adoption is pointer assignment:
// ImageView validates the buffer, FrozenRouteSet points a read-only interner at it, and
// every Find/Suffix/View runs against the mapping — no re-interning, no copies.
//
// Integrity: the header carries an endian marker (an image written on a little-endian
// host reads back swapped on a big-endian one and is rejected), a structural validation
// pass (section bounds, id ranges, pool termination — O(n) integer checks), and a
// checksum over the whole image (ImageChecksum, below) for callers that want corruption
// detection before trusting the bytes.  routedbd checks it on every image it adopts;
// the one-shot lookups check structure only.
//
// Version 2 replaced version 1's FNV-1a checksum with support::Checksum; the layout is
// otherwise unchanged.  A version 1 image is refused with the commands that rebuild it.

#ifndef SRC_IMAGE_IMAGE_FORMAT_H_
#define SRC_IMAGE_IMAGE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/graph/cost.h"
#include "src/support/checksum.h"
#include "src/support/interner.h"

namespace pathalias {
namespace image {

inline constexpr uint32_t kMagic = 0x49524150;         // "PARI" when read as LE bytes
inline constexpr uint32_t kVersion = 2;
inline constexpr uint32_t kEndianMarker = 0x01020304;  // reads 0x04030201 when foreign

// Header flags (mirror the interner options the image was frozen with).
inline constexpr uint32_t kFlagFoldCase = 1u << 0;
inline constexpr uint32_t kFlagSuffixChains = 1u << 1;

struct ImageHeader {
  uint32_t magic;
  uint32_t version;
  uint32_t endian;
  uint32_t flags;
  uint64_t file_size;  // total image size in bytes, header included
  uint64_t checksum;   // ImageChecksum: the header with this field zeroed, then the rest

  uint32_t name_count;   // interned names (routes + domain-suffix chains)
  uint32_t route_count;
  uint64_t table_capacity;  // probe-table slots; prime, >= 5 (0 only when name_count==0)

  uint64_t names_offset;        // NameInterner::FrozenEntry[name_count]
  uint64_t slots_offset;        // NameInterner::FrozenSlot[table_capacity]
  uint64_t routes_offset;       // FrozenRoute[route_count]
  uint64_t by_name_offset;      // uint32_t[name_count]
  uint64_t name_bytes_offset;   // char[name_bytes_size]
  uint64_t name_bytes_size;
  uint64_t route_bytes_offset;  // char[route_bytes_size]
  uint64_t route_bytes_size;

  // Publish generation: incremented on every refreeze and mirrored into the
  // image's .state manifest, so a consumer can tell whether an image and a
  // state dir were published together.  Images written before this field read
  // back as generation 0 (the bytes were reserved and zeroed), which every
  // consumer treats as "unstamped — trust the bytes, not the pairing".
  uint64_t generation;

  uint8_t reserved[8];  // pads the header to 128 bytes; zeroed
};
static_assert(sizeof(ImageHeader) == 128);

// One route record in frozen layout (the Route struct with the owned string replaced
// by an offset into the route-byte pool).
struct FrozenRoute {
  uint32_t name;          // NameId of the key (host or ".domain")
  uint32_t route_offset;  // into the route-byte pool; NUL-terminated there
  uint32_t route_length;
  uint32_t reserved;
  int64_t cost;           // Cost; -1 when the source had no cost column
};
static_assert(sizeof(FrozenRoute) == 24);

// The image checksum (ImageHeader::checksum): support::Checksum of the header with its
// checksum field zeroed, then of `payload` (every byte after the header) seeded with
// that value.  ImageWriter::Freeze and ImageView::Adopt both hash these two spans: a
// mapped image's header cannot be zeroed in place, and the checksum of the whole image
// would differ from the two pieces chained.
inline uint64_t ImageChecksum(const ImageHeader& header, std::string_view payload) {
  ImageHeader zeroed = header;
  zeroed.checksum = 0;
  const uint64_t head = support::Checksum(
      std::string_view(reinterpret_cast<const char*>(&zeroed), sizeof(zeroed)));
  return support::Checksum(payload, head);
}

inline constexpr size_t AlignUp8(size_t value) { return (value + 7) & ~size_t{7}; }

}  // namespace image
}  // namespace pathalias

#endif  // SRC_IMAGE_IMAGE_FORMAT_H_
