#include "src/image/image_view.h"

#include <cstring>

#include "src/support/primes.h"

namespace pathalias {
namespace image {
namespace {

bool Fail(std::string* error, const char* reason) {
  if (error != nullptr) {
    *error = reason;
  }
  return false;
}

// A section of `count` records of `record_size` bytes at `offset`: inside the file,
// 8-aligned, and free of overflow in the count * size product.
bool SectionOk(const ImageHeader& header, uint64_t offset, uint64_t count,
               uint64_t record_size) {
  if (offset % 8 != 0 || offset < sizeof(ImageHeader) || offset > header.file_size) {
    return false;
  }
  if (record_size != 0 && count > (header.file_size - offset) / record_size) {
    return false;
  }
  return true;
}

}  // namespace

std::optional<ImageView> ImageView::Adopt(std::string_view buffer, Verify verify,
                                          std::string* error) {
  if (buffer.size() < sizeof(ImageHeader)) {
    Fail(error, "image smaller than its header");
    return std::nullopt;
  }
  if (reinterpret_cast<uintptr_t>(buffer.data()) % 8 != 0) {
    // mmap and heap buffers are always 8-aligned; a misaligned buffer means the caller
    // sliced into the middle of something.
    Fail(error, "image buffer is not 8-byte aligned");
    return std::nullopt;
  }
  ImageHeader header;  // copy: the buffer is not guaranteed aligned for uint64_t reads
  std::memcpy(&header, buffer.data(), sizeof(header));

  if (header.magic != kMagic) {
    Fail(error, "bad magic (not a .pari image)");
    return std::nullopt;
  }
  if (header.endian != kEndianMarker) {
    Fail(error, "endianness mismatch (image written on a foreign-endian host)");
    return std::nullopt;
  }
  if (header.version != kVersion) {
    if (error != nullptr) {
      *error = "image version " + std::to_string(header.version) +
               (header.version > kVersion
                    ? " is newer than this binary understands"
                    : " is an older format than this binary reads; rebuild it with "
                      "`routedb freeze` or `routedb update --init`");
    }
    return std::nullopt;
  }
  if (header.file_size != buffer.size()) {
    Fail(error, "file size mismatch (truncated or padded image)");
    return std::nullopt;
  }
  if ((header.flags & ~(kFlagFoldCase | kFlagSuffixChains)) != 0) {
    Fail(error, "unknown header flags");
    return std::nullopt;
  }

  const uint32_t n = header.name_count;
  const uint32_t r = header.route_count;
  if (!SectionOk(header, header.names_offset, n, sizeof(NameInterner::FrozenEntry)) ||
      !SectionOk(header, header.slots_offset, header.table_capacity,
                 sizeof(NameInterner::FrozenSlot)) ||
      !SectionOk(header, header.routes_offset, r, sizeof(FrozenRoute)) ||
      !SectionOk(header, header.by_name_offset, n, sizeof(uint32_t)) ||
      !SectionOk(header, header.name_bytes_offset, header.name_bytes_size, 1) ||
      !SectionOk(header, header.route_bytes_offset, header.route_bytes_size, 1)) {
    Fail(error, "section out of bounds");
    return std::nullopt;
  }
  if (n > 0 && (header.table_capacity < 5 || header.table_capacity <= n)) {
    // Strictly larger than n: the double-hash probe loop terminates only if the table
    // is guaranteed an empty slot.
    Fail(error, "probe table too small for the name set");
    return std::nullopt;
  }
  if (n > 0 && !IsPrime(header.table_capacity)) {
    // A double-hash probe visits every slot only if its stride (1 to capacity - 2)
    // is coprime with the capacity, which a prime capacity guarantees.  A stride
    // sharing a factor with a composite one cycles short of every empty slot.
    Fail(error, "probe table capacity is not prime");
    return std::nullopt;
  }
  if (r > n) {
    Fail(error, "more routes than names");
    return std::nullopt;
  }

  ImageView view;
  view.header_ = reinterpret_cast<const ImageHeader*>(buffer.data());
  const char* base = buffer.data();
  view.names_ =
      reinterpret_cast<const NameInterner::FrozenEntry*>(base + header.names_offset);
  view.slots_ =
      reinterpret_cast<const NameInterner::FrozenSlot*>(base + header.slots_offset);
  view.routes_ = reinterpret_cast<const FrozenRoute*>(base + header.routes_offset);
  view.by_name_ = reinterpret_cast<const uint32_t*>(base + header.by_name_offset);
  view.name_bytes_ = base + header.name_bytes_offset;
  view.route_bytes_ = base + header.route_bytes_offset;

  // Record-level invariants: every offset/length/id a reader will chase stays inside
  // its pool, and every string is NUL-terminated where the reader expects it to be.
  for (uint32_t id = 0; id < n; ++id) {
    const NameInterner::FrozenEntry& entry = view.names_[id];
    if (entry.length >= header.name_bytes_size ||
        entry.bytes_offset > header.name_bytes_size - entry.length - 1) {
      Fail(error, "name entry points outside the name pool");
      return std::nullopt;
    }
    if (view.name_bytes_[entry.bytes_offset + entry.length] != '\0') {
      Fail(error, "name entry is not NUL-terminated");
      return std::nullopt;
    }
    if (entry.suffix != kNoName && entry.suffix >= n) {
      Fail(error, "name entry has an out-of-range suffix id");
      return std::nullopt;
    }
    if (entry.suffix != kNoName && view.names_[entry.suffix].length >= entry.length) {
      // A domain suffix is a proper tail of its name, so every hop of a chain is
      // strictly shorter than the last: the walk terminates.  A stored chain that
      // loops back on itself would spin every resolver that follows it.
      Fail(error, "name entry's suffix is not shorter than the name");
      return std::nullopt;
    }
    if (view.by_name_[id] > r) {
      Fail(error, "by-name index points past the route section");
      return std::nullopt;
    }
  }
  uint64_t occupied_slots = 0;
  for (uint64_t i = 0; i < header.table_capacity; ++i) {
    if (view.slots_[i].id != kNoName) {
      if (view.slots_[i].id >= n) {
        Fail(error, "probe slot holds an out-of-range name id");
        return std::nullopt;
      }
      ++occupied_slots;
    }
  }
  if (occupied_slots != n) {
    // Exactly one slot per name; anything else means a tampered table — and a table
    // with no empty slots would make the probe loop non-terminating.
    Fail(error, "probe table occupancy does not match the name count");
    return std::nullopt;
  }
  for (uint32_t i = 0; i < r; ++i) {
    const FrozenRoute& route = view.routes_[i];
    if (route.name >= n) {
      Fail(error, "route keyed by an out-of-range name id");
      return std::nullopt;
    }
    if (route.route_length >= header.route_bytes_size ||
        route.route_offset > header.route_bytes_size - route.route_length - 1) {
      Fail(error, "route points outside the route pool");
      return std::nullopt;
    }
    if (view.route_bytes_[route.route_offset + route.route_length] != '\0') {
      Fail(error, "route string is not NUL-terminated");
      return std::nullopt;
    }
  }

  if (verify == Verify::kChecksum) {
    if (ImageChecksum(header, buffer.substr(sizeof(ImageHeader))) != header.checksum) {
      Fail(error, "checksum mismatch (corrupted image)");
      return std::nullopt;
    }
  }
  return view;
}

NameInterner::FrozenView ImageView::interner_view() const {
  NameInterner::FrozenView view;
  view.name_bytes = name_bytes_;
  view.name_bytes_size = header_->name_bytes_size;
  view.entries = names_;
  view.entry_count = header_->name_count;
  view.slots = slots_;
  view.table_capacity = header_->table_capacity;
  view.fold_case = (header_->flags & kFlagFoldCase) != 0;
  return view;
}

}  // namespace image
}  // namespace pathalias
