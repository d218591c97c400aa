// Golden bytes at scale: FNV-1a 64 digests of the whole compile on generated maps.
//
// perfbench's compile_1m digests hash the routes in sorted order, so they cannot
// see a change in output order, and nothing else pins the frozen image's bytes.
// These digests pin three things per map, each exactly as produced:
//   * the rendered output of `pathalias -c` (costs column), in output order;
//   * the .pari image ImageWriter::Freeze makes from that output;
//   * the rendered diagnostics, in the order they were reported.
// The maps are the paper-scale generator and two seeds of the usenet-scale
// generator at 20k hosts.
//
// The recorded values were computed by the build of the commit before the
// hash-indexed link dedup, presized interners, per-sibling emission sort and
// in-place freeze, and they must not move: a change to any of them is a change
// to the program's output.
//
// The image digests were re-recorded once, when image format 2 replaced the
// header's FNV-1a checksum with support::Checksum.  Before that, the version 1
// and version 2 images of all three maps were compared with the header's
// version and checksum fields zeroed, and their digests matched: the two
// formats differ in those two fields only.  The output and diagnostics
// digests were not touched.  The digests here are this test's own FNV-1a, not
// the program's checksum, so a change to that checksum moves only the image
// digests.
//
// Each map also pins the mapper's work counters: heap pushes, relaxations,
// invented back links and back-link passes.  Those values were recorded by the
// build of the commit before the integer name keys and the back-link passes
// scoped to invented-link holders; a faster mapper must still do the same work.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <string_view>

#include "src/core/pathalias.h"
#include "src/image/image_writer.h"
#include "src/mapgen/mapgen.h"
#include "src/route_db/route_db.h"

namespace pathalias {
namespace {

struct Digests {
  uint64_t output = 0;
  uint64_t image = 0;
  uint64_t diagnostics = 0;
};

struct Counters {
  size_t heap_pushes = 0;
  size_t relaxations = 0;
  size_t invented_links = 0;
  size_t back_link_passes = 0;
};

// FNV-1a 64: the digest every value below was recorded with.
uint64_t Fnv1a(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char byte : bytes) {
    hash = (hash ^ byte) * 0x00000100000001b3ull;
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof(text), "0x%016" PRIx64, value);
  return text;
}

void ExpectGolden(const MapGenConfig& config, const Digests& recorded,
                  const Counters& counted) {
  GeneratedMap map = GenerateUsenetMap(config);
  RunOptions options;
  options.local = map.local;
  options.print.include_costs = true;
  Diagnostics diag;
  RunResult run = Run(map.files, options, &diag);
  std::string image = image::ImageWriter::Freeze(RouteSet::FromText(run.output));
  EXPECT_EQ(Hex(Fnv1a(run.output)), Hex(recorded.output)) << "rendered output";
  EXPECT_EQ(Hex(Fnv1a(image)), Hex(recorded.image)) << "frozen image";
  EXPECT_EQ(Hex(Fnv1a(diag.ToString())), Hex(recorded.diagnostics)) << "diagnostics";
  EXPECT_EQ(run.map.heap_pushes, counted.heap_pushes);
  EXPECT_EQ(run.map.relaxations, counted.relaxations);
  EXPECT_EQ(run.map.invented_links, counted.invented_links);
  EXPECT_EQ(run.map.back_link_passes, counted.back_link_passes);
}

MapGenConfig Scale20k(uint64_t seed) {
  MapGenConfig config = MapGenConfig::UsenetScale(20000);
  config.seed = seed;
  return config;
}

TEST(ScaleGolden, Usenet1986) {
  ExpectGolden(MapGenConfig::Usenet1986(),
               Digests{0x43ccc256edbe6f99ull, 0xfb704890553596fdull, 0xbfbe572eb6aa6cdcull},
               Counters{8822, 25493, 151, 1});
}

TEST(ScaleGolden, UsenetScale20kSeed1) {
  ExpectGolden(Scale20k(1),
               Digests{0x24dbf222282ebedaull, 0x15e811f98325afb6ull, 0xdc0db78640b7e366ull},
               Counters{20260, 35177, 54, 1});
}

TEST(ScaleGolden, UsenetScale20kSeed2) {
  ExpectGolden(Scale20k(2),
               Digests{0x41364084a8bf2d49ull, 0xe59f2b00506b0af1ull, 0xd3aff8c56a32b586ull},
               Counters{20263, 35070, 53, 1});
}

}  // namespace
}  // namespace pathalias
