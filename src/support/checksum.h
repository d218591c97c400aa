// The one integrity checksum: every byte the tools write and later trust is
// checked with it.  The .pari image stores it in ImageHeader::checksum
// (src/image/image_format.h), and the state dir's manifest ends with it
// (src/incr/state_dir.h).  It is part of both on-disk formats: a change to any
// constant or step below changes every stored value, and needs a new image
// version and a new manifest version.  tests/support/checksum_test.cc pins
// known answers.
//
// Four independent 64-bit lanes each take every fourth little-endian 8-byte
// word through a multiply-rotate round (xxHash64's round).  No lane waits on
// another, so the core keeps four multiply chains in flight.  On a 4-vCPU Xeon
// VM it hashed 1 MiB at 0.10 ns a byte and 120 MiB at 0.16, against 1.4 for
// FNV-1a, whose one multiply per byte waits on the last.  After the last
// whole 32-byte stripe the lanes fold into one word.  The tail's whole
// words, then its last 0-7 bytes (zero-padded), then the total length, go
// through the same round, so inputs that differ only by trailing zero bytes
// differ.  Thomas Wang's 64-bit integer mix finishes the value.
//
// Each input word enters exactly one round, and a round is one-to-one in its
// word and in its lane.  Every later step is one-to-one in the state it
// carries: later rounds, the lane fold (with the other lanes held fixed) and
// the mix.  So any change confined to one 8-byte word changes the value, and
// every single-bit flip is caught.
//
// The value of a concatenation is not the value of its pieces chained through
// `seed`: a caller that hashes one object in pieces must always cut it at the
// same places (image::ImageChecksum does).

#ifndef SRC_SUPPORT_CHECKSUM_H_
#define SRC_SUPPORT_CHECKSUM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace pathalias {
namespace support {
namespace checksum_internal {

inline constexpr uint64_t kPrime1 = 0x9e3779b185ebca87ull;
inline constexpr uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;

// The little-endian word at `bytes`, which need not be aligned.
inline uint64_t LoadWord(const char* bytes) {
  uint64_t word;
  std::memcpy(&word, bytes, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

inline uint64_t Round(uint64_t lane, uint64_t word) {
  return std::rotl(lane + word * kPrime2, 31) * kPrime1;
}

// Thomas Wang's 64-bit integer mix: every input bit reaches every output bit.
inline uint64_t WangMix(uint64_t key) {
  key = ~key + (key << 21);
  key ^= key >> 24;
  key += (key << 3) + (key << 8);
  key ^= key >> 14;
  key += (key << 2) + (key << 4);
  key ^= key >> 28;
  key += key << 31;
  return key;
}

}  // namespace checksum_internal

inline uint64_t Checksum(std::string_view bytes, uint64_t seed = 0) {
  using checksum_internal::kPrime1;
  using checksum_internal::kPrime2;
  using checksum_internal::LoadWord;
  using checksum_internal::Round;
  const char* at = bytes.data();
  size_t left = bytes.size();
  uint64_t lane0 = seed + kPrime1 + kPrime2;
  uint64_t lane1 = seed + kPrime2;
  uint64_t lane2 = seed;
  uint64_t lane3 = seed - kPrime1;
  for (; left >= 32; at += 32, left -= 32) {
    lane0 = Round(lane0, LoadWord(at));
    lane1 = Round(lane1, LoadWord(at + 8));
    lane2 = Round(lane2, LoadWord(at + 16));
    lane3 = Round(lane3, LoadWord(at + 24));
  }
  uint64_t hash =
      std::rotl(lane0, 1) + std::rotl(lane1, 7) + std::rotl(lane2, 12) + std::rotl(lane3, 18);
  for (; left >= 8; at += 8, left -= 8) {
    hash = Round(hash, LoadWord(at));
  }
  uint64_t last = 0;
  for (size_t i = 0; i < left; ++i) {
    last |= uint64_t{static_cast<unsigned char>(at[i])} << (8 * i);
  }
  hash = Round(hash, last);
  hash = Round(hash, bytes.size());
  return checksum_internal::WangMix(hash);
}

}  // namespace support
}  // namespace pathalias

#endif  // SRC_SUPPORT_CHECKSUM_H_
