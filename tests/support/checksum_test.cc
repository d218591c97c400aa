// support::Checksum is the integrity check of two on-disk formats: the .pari
// image's header checksum and the state dir's manifest digest.  Its value is
// part of those formats, so known answers pin it.  A plain byte-at-a-time
// restatement of the algorithm checks the word loads and the tail handling
// at every length and alignment.  Every single-bit flip of a buffer must
// change the value.  And the image's two-span rule must give one value
// whether the image is being written (ImageWriter::Freeze) or read
// (ImageView::Adopt).

#include "src/support/checksum.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "src/image/image_format.h"
#include "src/image/image_view.h"
#include "src/image/image_writer.h"
#include "src/route_db/route_db.h"

namespace pathalias {
namespace {

using support::Checksum;

uint64_t Rotl(uint64_t value, int bits) { return (value << bits) | (value >> (64 - bits)); }

// The algorithm of checksum.h written out plainly: words assembled byte by byte,
// one loop per phase.
uint64_t ReferenceChecksum(const unsigned char* bytes, size_t size, uint64_t seed) {
  const uint64_t prime1 = 0x9e3779b185ebca87ull;
  const uint64_t prime2 = 0xc2b2ae3d27d4eb4full;
  auto word_at = [bytes, size](size_t at) {
    uint64_t word = 0;
    for (size_t k = 0; k < 8 && at + k < size; ++k) {
      word |= uint64_t{bytes[at + k]} << (8 * k);
    }
    return word;
  };
  auto round = [prime1, prime2](uint64_t lane, uint64_t word) {
    return Rotl(lane + word * prime2, 31) * prime1;
  };
  uint64_t lanes[4] = {seed + prime1 + prime2, seed + prime2, seed, seed - prime1};
  size_t at = 0;
  while (size - at >= 32) {
    for (uint64_t& lane : lanes) {
      lane = round(lane, word_at(at));
      at += 8;
    }
  }
  uint64_t hash = Rotl(lanes[0], 1) + Rotl(lanes[1], 7) + Rotl(lanes[2], 12) + Rotl(lanes[3], 18);
  while (size - at >= 8) {
    hash = round(hash, word_at(at));
    at += 8;
  }
  hash = round(hash, word_at(at));  // the last 0-7 bytes, zero-padded
  hash = round(hash, size);
  // Thomas Wang's 64-bit mix.
  hash = ~hash + (hash << 21);
  hash ^= hash >> 24;
  hash = hash * 265;
  hash ^= hash >> 14;
  hash = hash * 21;
  hash ^= hash >> 28;
  hash = hash * ((uint64_t{1} << 31) + 1);
  return hash;
}

std::string Counting(size_t size) {
  std::string bytes;
  for (size_t i = 0; i < size; ++i) {
    bytes += static_cast<char>(i);
  }
  return bytes;
}

TEST(ChecksumTest, KnownAnswers) {
  const uint64_t seed = 0x123456789abcdef0ull;
  EXPECT_EQ(Checksum(""), 0xc12c5e403d496535ull);
  EXPECT_EQ(Checksum("a"), 0x906361244cf16b62ull);
  EXPECT_EQ(Checksum("pathalias"), 0x1eb02d5927bcc1fcull);
  EXPECT_EQ(Checksum("duke!research!ucbvax!%s"), 0x6aad1c3a680fd834ull);
  EXPECT_EQ(Checksum(Counting(100)), 0xcf405e16ad32f11aull);
  EXPECT_EQ(Checksum("", seed), 0x6f30ee08d995e127ull);
  EXPECT_EQ(Checksum(Counting(100), seed), 0xfbf375566fc1f056ull);
}

TEST(ChecksumTest, EverySingleBitFlipChangesTheValue) {
  std::string buffer(1024, '\0');
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<char>(i * 131 + 7);
  }
  const uint64_t pristine = Checksum(buffer);
  for (size_t bit = 0; bit < buffer.size() * 8; ++bit) {
    buffer[bit / 8] ^= static_cast<char>(1 << (bit % 8));
    ASSERT_NE(Checksum(buffer), pristine) << "bit " << bit;
    buffer[bit / 8] ^= static_cast<char>(1 << (bit % 8));
  }
}

TEST(ChecksumTest, EveryLengthAndAlignmentMatchesThePlainLoop) {
  alignas(8) unsigned char storage[8 + 80];
  for (size_t i = 0; i < sizeof(storage); ++i) {
    storage[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  for (uint64_t seed : {uint64_t{0}, uint64_t{0xfedcba9876543210ull}}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t length = 0; length <= 80; ++length) {
        const unsigned char* start = storage + offset;
        std::string_view bytes(reinterpret_cast<const char*>(start), length);
        ASSERT_EQ(Checksum(bytes, seed), ReferenceChecksum(start, length, seed))
            << "offset " << offset << ", length " << length << ", seed " << seed;
      }
    }
  }
}

// The image checksum is the header (checksum field zeroed) hashed, then the rest
// of the image hashed with that value as the seed.  Freeze stamps it; Adopt, which
// cannot zero a field of a mapped file, recomputes it from a header copy.
TEST(ChecksumTest, ImageTwoSpanRuleMatchesBetweenFreezeAndAdopt) {
  RouteSet routes;
  routes.Add("duke", "duke!%s", 500);
  routes.Add("phs", "duke!phs!%s", 800);
  routes.Add(".edu", "seismo!%s", 100);
  const std::string frozen = image::ImageWriter::Freeze(routes, /*generation=*/3);
  image::ImageHeader header;
  std::memcpy(&header, frozen.data(), sizeof(header));

  std::string zeroed = frozen;
  std::memset(zeroed.data() + offsetof(image::ImageHeader, checksum), 0, sizeof(uint64_t));
  const std::string_view head = std::string_view(zeroed).substr(0, sizeof(header));
  const std::string_view payload = std::string_view(zeroed).substr(sizeof(header));
  EXPECT_EQ(header.checksum, Checksum(payload, Checksum(head)));
  EXPECT_EQ(header.checksum,
            image::ImageChecksum(header, std::string_view(frozen).substr(sizeof(header))));
  // One span over the whole image is a different value: the cut is part of the rule.
  EXPECT_NE(header.checksum, Checksum(zeroed));

  std::string error;
  EXPECT_TRUE(
      image::ImageView::Adopt(frozen, image::ImageView::Verify::kChecksum, &error).has_value())
      << error;
}

}  // namespace
}  // namespace pathalias
