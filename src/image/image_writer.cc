#include "src/image/image_writer.h"

#include <cassert>
#include <cstddef>
#include <cstring>

#include "src/image/image_format.h"
#include "src/support/durable_file.h"
#include "src/support/fastmod.h"
#include "src/support/primes.h"

namespace pathalias {
namespace image {

std::string ImageWriter::Freeze(const RouteSet& routes, uint64_t generation) {
  const NameInterner& names = routes.names();
  const uint32_t name_count = static_cast<uint32_t>(names.size());
  const uint32_t route_count = static_cast<uint32_t>(routes.size());

  // Size every section first, so the image is allocated once and each section is
  // written at its offset.
  size_t name_bytes_size = 0;
  for (uint32_t id = 0; id < name_count; ++id) {
    name_bytes_size += names.View(id).size() + 1;
  }
  size_t route_bytes_size = 0;
  for (const Route& route : routes.routes()) {
    route_bytes_size += route.route.size() + 1;
  }
  assert(name_bytes_size <= UINT32_MAX && "name pool exceeds the u32 offset space");
  assert(route_bytes_size <= UINT32_MAX && "route pool exceeds the u32 offset space");

  // The probe table is rebuilt from the recorded hashes, at its own high-water mark
  // whatever the live table's growth history or fate (StealTable).
  uint64_t capacity = NextPrime(
      static_cast<uint64_t>(static_cast<double>(name_count) / NameInterner::kHighWater) + 2);
  if (capacity < 5) {
    capacity = 5;
  }

  // Lay out sections: fixed-width records first (all 8-aligned), byte pools last.
  ImageHeader header;
  std::memset(&header, 0, sizeof(header));
  header.magic = kMagic;
  header.version = kVersion;
  header.endian = kEndianMarker;
  header.flags = names.fold_case() ? kFlagFoldCase : 0;
  header.flags |= kFlagSuffixChains;  // Intern always records chains for dotted names
  header.name_count = name_count;
  header.route_count = route_count;
  header.table_capacity = capacity;
  header.generation = generation;

  size_t offset = sizeof(ImageHeader);
  header.names_offset = offset;
  offset = AlignUp8(offset + name_count * sizeof(NameInterner::FrozenEntry));
  header.slots_offset = offset;
  offset = AlignUp8(offset + capacity * sizeof(NameInterner::FrozenSlot));
  header.routes_offset = offset;
  offset = AlignUp8(offset + route_count * sizeof(FrozenRoute));
  header.by_name_offset = offset;
  offset = AlignUp8(offset + name_count * sizeof(uint32_t));
  header.name_bytes_offset = offset;
  header.name_bytes_size = name_bytes_size;
  offset = AlignUp8(offset + name_bytes_size);
  header.route_bytes_offset = offset;
  header.route_bytes_size = route_bytes_size;
  offset += route_bytes_size;
  header.file_size = offset;

  // Zero-filled, so padding and the by_name entries of names without a route need
  // no writes.  Records go in with memcpy: the image is a byte buffer, not an array
  // of records.
  std::string out(header.file_size, '\0');
  char* base = out.data();

  // Name entries and pool, in id order (ids are the on-disk keys; order is identity).
  char* entries = base + header.names_offset;
  char* name_bytes = base + header.name_bytes_offset;
  uint32_t name_offset = 0;
  for (uint32_t id = 0; id < name_count; ++id) {
    std::string_view name = names.View(id);
    const NameInterner::FrozenEntry entry{names.HashOf(id), name_offset,
                                          static_cast<uint32_t>(name.size()),
                                          names.Suffix(id), 0};
    std::memcpy(entries + id * sizeof(entry), &entry, sizeof(entry));
    std::memcpy(name_bytes + name_offset, name.data(), name.size());
    name_offset += static_cast<uint32_t>(name.size()) + 1;  // NUL from the zero fill
  }

  // Probe table, with the interner's own insertion scheme (double hashing, stride
  // T-2-(k mod T-2)).
  using Slot = NameInterner::FrozenSlot;
  char* slots = base + header.slots_offset;
  const Slot empty{kNoName, 0};
  for (uint64_t index = 0; index < capacity; ++index) {
    std::memcpy(slots + index * sizeof(Slot), &empty, sizeof(Slot));
  }
  auto occupied = [slots](uint64_t index) {
    NameId id;
    std::memcpy(&id, slots + index * sizeof(Slot) + offsetof(Slot, id), sizeof(id));
    return id != kNoName;
  };
  const FastMod fast_index(capacity);
  const FastMod fast_stride(capacity - 2);
  for (uint32_t id = 0; id < name_count; ++id) {
    uint64_t k = names.HashOf(id);
    uint64_t index = fast_index.Mod(k);
    uint64_t stride = capacity - 2 - fast_stride.Mod(k);
    while (occupied(index)) {
      index += stride;
      if (index >= capacity) {
        index -= capacity;
      }
    }
    const Slot slot{id, static_cast<uint32_t>(k)};
    std::memcpy(slots + index * sizeof(Slot), &slot, sizeof(Slot));
  }

  // Route records and pool, and the NameId -> route index.
  char* frozen_routes = base + header.routes_offset;
  char* by_name = base + header.by_name_offset;
  char* route_bytes = base + header.route_bytes_offset;
  uint32_t route_offset = 0;
  uint32_t count = 0;
  for (const Route& route : routes.routes()) {
    const FrozenRoute record{route.name, route_offset,
                             static_cast<uint32_t>(route.route.size()), 0, route.cost};
    std::memcpy(frozen_routes + count * sizeof(record), &record, sizeof(record));
    ++count;  // by_name holds the route index + 1
    std::memcpy(by_name + route.name * sizeof(count), &count, sizeof(count));
    std::memcpy(route_bytes + route_offset, route.route.data(), route.route.size());
    route_offset += static_cast<uint32_t>(route.route.size()) + 1;
  }

  // The checksum covers the header too, so a flipped header bit (flags, counts,
  // offsets) is as detectable as payload rot.
  header.checksum =
      ImageChecksum(header, std::string_view(out).substr(sizeof(ImageHeader)));
  std::memcpy(base, &header, sizeof(header));
  return out;
}

bool ImageWriter::WriteFile(const RouteSet& routes, const std::string& path,
                            uint64_t generation, std::string* error) {
  std::string buffer = Freeze(routes, generation);
  return support::PublishFileDurably(path, buffer, "image.publish", error);
}

bool ImageWriter::Refreeze(const RouteSet& routes, const std::string& path,
                           uint64_t generation, std::string* error) {
  // The durable publish IS the refreeze discipline: freeze to `path + ".tmp"`,
  // fsync, rename over `path`, fsync the directory.  Concurrent readers keep
  // their old mapping; a crash anywhere leaves old-or-new, never torn.
  return WriteFile(routes, path, generation, error);
}

}  // namespace image
}  // namespace pathalias
