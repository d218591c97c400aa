// The frozen route image: freeze → adopt/mmap → resolve must serve exactly the
// RouteSet it was frozen from, and a damaged image must be rejected before anything
// trusts it.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "src/core/pathalias.h"
#include "src/image/frozen_route_set.h"
#include "src/image/image_format.h"
#include "src/image/image_view.h"
#include "src/image/image_writer.h"
#include "src/mapgen/mapgen.h"
#include "src/route_db/resolver.h"
#include "src/route_db/route_db.h"
#include "src/support/failpoint.h"

namespace pathalias {
namespace {

namespace fs = std::filesystem;

// The paper's worked example (§Output): the map whose routes every layer reproduces
// byte-for-byte, which makes it the canonical equivalence fixture.
constexpr std::string_view kPaperInput = R"(unc	duke(HOURLY), phs(HOURLY*4)
duke	unc(DEMAND), research(DAILY/2), phs(DEMAND)
phs	unc(HOURLY*4), duke(HOURLY)
research	duke(DEMAND), ucbvax(DEMAND)
ucbvax	research(DAILY)
ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)
)";

RouteSet PaperRouteSet() {
  Diagnostics diag;
  RunOptions options;
  options.local = "unc";
  RunResult result = RunString(kPaperInput, options, &diag);
  RouteSet set = RouteSet::FromEntries(result.routes);
  // Domain keys exercise the suffix machinery the image must freeze faithfully.
  set.Add(".edu", "seismo!%s", 100);
  set.Add("caip.rutgers.edu", "seismo!caip.rutgers.edu!%s", 195);
  return set;
}

std::optional<image::ImageView> Adopt(const std::string& buffer,
                                      image::ImageView::Verify verify,
                                      std::string* error = nullptr) {
  return image::ImageView::Adopt(buffer, verify, error);
}

TEST(ImageWriter, FreezeProducesValidatedImage) {
  RouteSet routes = PaperRouteSet();
  std::string buffer = image::ImageWriter::Freeze(routes);
  std::string error;
  auto view = Adopt(buffer, image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(view.has_value()) << error;
  EXPECT_EQ(view->route_count(), routes.size());
  EXPECT_EQ(view->name_count(), routes.names().size());
  EXPECT_EQ(view->header().file_size, buffer.size());
}

TEST(ImageWriter, FrozenSetMatchesLiveRouteByRoute) {
  RouteSet routes = PaperRouteSet();
  std::string buffer = image::ImageWriter::Freeze(routes);
  auto view = Adopt(buffer, image::ImageView::Verify::kChecksum);
  ASSERT_TRUE(view.has_value());
  FrozenRouteSet frozen(*view);

  ASSERT_EQ(frozen.size(), routes.size());
  for (uint32_t i = 0; i < routes.size(); ++i) {
    const Route& live = routes.routes()[i];
    RouteView image_route = frozen.RouteAt(i);
    EXPECT_EQ(image_route.name, live.name);
    EXPECT_EQ(image_route.route, live.route);
    EXPECT_EQ(image_route.cost, live.cost);
    EXPECT_EQ(frozen.NameOf(image_route), routes.NameOf(live));
  }
  // Interner equivalence: every id resolves to the same bytes, suffix chain included.
  for (NameId id = 0; id < routes.names().size(); ++id) {
    EXPECT_EQ(frozen.names().View(id), routes.names().View(id));
    EXPECT_EQ(frozen.names().Suffix(id), routes.names().Suffix(id));
    EXPECT_EQ(frozen.names().Find(routes.names().View(id)), id);
  }
}

// The reference check for freezing in memory — the path every RouteSet built in
// process takes to be resolved.  Over the paper's example and the 1986-scale
// generated map: every route comes back through the FrozenImage with identical route
// bytes and cost, an unknown host under a routed domain resolves by domain suffix,
// and views taken before the FrozenImage is moved stay valid after it.
TEST(FrozenImage, InMemoryFreezeServesEveryRouteOfTheSet) {
  std::vector<RouteSet> sets;
  sets.push_back(PaperRouteSet());
  GeneratedMap map = GenerateUsenetMap(MapGenConfig::Usenet1986());
  Diagnostics diag;
  RunOptions options;
  options.local = map.local;
  sets.push_back(RouteSet::FromEntries(pathalias::Run(map.files, options, &diag).routes));
  ASSERT_GT(sets.back().size(), 1000u);

  for (const RouteSet& routes : sets) {
    FrozenImage built(routes);
    std::vector<RouteView> before;
    for (const Route& route : routes.routes()) {
      before.push_back(built.routes().FindRouteView(routes.NameOf(route)));
    }
    FrozenImage image(std::move(built));
    const FrozenRouteSet& frozen = image.routes();
    ASSERT_EQ(frozen.size(), routes.size());
    Resolver resolver(&frozen, ResolveOptions{});

    size_t domains = 0;
    for (size_t i = 0; i < routes.size(); ++i) {
      const Route& route = routes.routes()[i];
      std::string_view name = routes.NameOf(route);
      BatchLookup found = resolver.LookupOne(name);
      ASSERT_TRUE(found.route.ok()) << name;
      EXPECT_FALSE(found.suffix_match) << name;
      EXPECT_EQ(frozen.names().View(found.via), name);
      EXPECT_EQ(found.route.route, route.route) << name;
      EXPECT_EQ(found.route.cost, route.cost) << name;
      EXPECT_EQ(before[i].route.data(), found.route.route.data()) << name;
      EXPECT_EQ(before[i].route, route.route) << name;

      if (name.size() > 1 && name[0] == '.') {
        ++domains;
        std::string stranger = "no-such-host" + std::string(name);
        BatchLookup suffix = resolver.LookupOne(stranger);
        ASSERT_TRUE(suffix.route.ok()) << stranger;
        EXPECT_TRUE(suffix.suffix_match) << stranger;
        EXPECT_EQ(frozen.names().View(suffix.via), name) << stranger;
        EXPECT_EQ(suffix.route.route, route.route) << stranger;
      }
    }
    EXPECT_GT(domains, 0u) << "each map must exercise the domain-suffix fallback";
  }
}

TEST(ImageWriter, EmptyRouteSetFreezesAndMisses) {
  RouteSet routes;
  std::string buffer = image::ImageWriter::Freeze(routes);
  std::string error;
  auto view = Adopt(buffer, image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(view.has_value()) << error;
  FrozenRouteSet frozen(*view);
  EXPECT_TRUE(frozen.empty());
  EXPECT_FALSE(frozen.FindRouteView("anything").ok());
  EXPECT_EQ(frozen.names().Find("anything"), kNoName);
}

TEST(ImageView, RejectsTruncatedImage) {
  std::string buffer = image::ImageWriter::Freeze(PaperRouteSet());
  std::string error;
  for (size_t keep : {size_t{0}, size_t{16}, sizeof(image::ImageHeader),
                      buffer.size() / 2, buffer.size() - 1}) {
    EXPECT_FALSE(
        Adopt(buffer.substr(0, keep), image::ImageView::Verify::kStructure, &error).has_value())
        << "kept " << keep << " bytes";
  }
}

TEST(ImageView, RejectsBadMagicAndVersion) {
  std::string buffer = image::ImageWriter::Freeze(PaperRouteSet());
  std::string error;

  std::string bad_magic = buffer;
  bad_magic[0] = 'X';
  EXPECT_FALSE(Adopt(bad_magic, image::ImageView::Verify::kStructure, &error).has_value());
  EXPECT_NE(error.find("magic"), std::string::npos) << error;

  std::string bad_version = buffer;
  image::ImageHeader header;
  std::memcpy(&header, bad_version.data(), sizeof(header));
  header.version = 999;
  std::memcpy(bad_version.data(), &header, sizeof(header));
  EXPECT_FALSE(Adopt(bad_version, image::ImageView::Verify::kStructure, &error).has_value());
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(ImageView, RejectsForeignEndianImage) {
  std::string buffer = image::ImageWriter::Freeze(PaperRouteSet());
  // Simulate reading a foreign-endian image: byte-swap the endian marker, as the whole
  // header would appear on an opposite-endian host.
  image::ImageHeader header;
  std::memcpy(&header, buffer.data(), sizeof(header));
  header.endian = __builtin_bswap32(header.endian);
  std::memcpy(buffer.data(), &header, sizeof(header));
  std::string error;
  EXPECT_FALSE(Adopt(buffer, image::ImageView::Verify::kStructure, &error).has_value());
  EXPECT_NE(error.find("endian"), std::string::npos) << error;
}

TEST(ImageView, ChecksumCatchesPayloadCorruption) {
  std::string buffer = image::ImageWriter::Freeze(PaperRouteSet());
  // Flip one bit in the middle of the payload (name/route pool area).
  buffer[buffer.size() - 8] ^= 0x40;
  std::string error;
  EXPECT_FALSE(Adopt(buffer, image::ImageView::Verify::kChecksum, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(ImageView, StructureCatchesCorruptedRecords) {
  RouteSet routes = PaperRouteSet();
  std::string pristine = image::ImageWriter::Freeze(routes);
  image::ImageHeader header;
  std::memcpy(&header, pristine.data(), sizeof(header));
  std::string error;

  {  // A by-name slot pointing past the route section.
    std::string corrupt = pristine;
    uint32_t bogus = header.route_count + 7;
    std::memcpy(corrupt.data() + header.by_name_offset, &bogus, sizeof(bogus));
    EXPECT_FALSE(Adopt(corrupt, image::ImageView::Verify::kStructure, &error).has_value());
  }
  {  // A route record keyed by an out-of-range NameId.
    std::string corrupt = pristine;
    image::FrozenRoute route;
    std::memcpy(&route, corrupt.data() + header.routes_offset, sizeof(route));
    route.name = header.name_count + 1;
    std::memcpy(corrupt.data() + header.routes_offset, &route, sizeof(route));
    EXPECT_FALSE(Adopt(corrupt, image::ImageView::Verify::kStructure, &error).has_value());
  }
  {  // A name entry escaping its pool.
    std::string corrupt = pristine;
    NameInterner::FrozenEntry entry;
    std::memcpy(&entry, corrupt.data() + header.names_offset, sizeof(entry));
    entry.bytes_offset = static_cast<uint32_t>(header.name_bytes_size);
    std::memcpy(corrupt.data() + header.names_offset, &entry, sizeof(entry));
    EXPECT_FALSE(Adopt(corrupt, image::ImageView::Verify::kStructure, &error).has_value());
  }
  {  // Header claims more bytes than the buffer holds.
    std::string corrupt = pristine;
    image::ImageHeader lying = header;
    lying.file_size += 4096;
    std::memcpy(corrupt.data(), &lying, sizeof(lying));
    EXPECT_FALSE(Adopt(corrupt, image::ImageView::Verify::kStructure, &error).has_value());
  }
  {  // Unknown header flag bits.
    std::string corrupt = pristine;
    image::ImageHeader lying = header;
    lying.flags |= 1u << 31;
    std::memcpy(corrupt.data(), &lying, sizeof(lying));
    EXPECT_FALSE(Adopt(corrupt, image::ImageView::Verify::kStructure, &error).has_value());
    EXPECT_NE(error.find("flags"), std::string::npos) << error;
  }
  {  // A probe table with every slot filled must be rejected (an unterminated probe
     // loop would otherwise hang the resolver on any miss).
    std::string corrupt = pristine;
    for (uint64_t i = 0; i < header.table_capacity; ++i) {
      NameInterner::FrozenSlot slot;
      char* at = corrupt.data() + header.slots_offset + i * sizeof(slot);
      std::memcpy(&slot, at, sizeof(slot));
      if (slot.id == kNoName) {
        slot.id = 0;
        std::memcpy(at, &slot, sizeof(slot));
      }
    }
    EXPECT_FALSE(Adopt(corrupt, image::ImageView::Verify::kStructure, &error).has_value());
    EXPECT_NE(error.find("occupancy"), std::string::npos) << error;
  }
}

// Regression: kStructure once checked only that a suffix id was in range, so an
// image whose stored chain looped (here .rutgers.edu naming itself) was adopted,
// and the first suffix walk to reach it never returned.
TEST(ImageView, StructureRejectsALoopingSuffixChain) {
  RouteSet routes;
  routes.Add("caip.rutgers.edu", "seismo!caip.rutgers.edu!%s", 195);
  std::string buffer = image::ImageWriter::Freeze(routes);
  image::ImageHeader header;
  std::memcpy(&header, buffer.data(), sizeof(header));
  NameId domain = routes.names().Find(".rutgers.edu");
  ASSERT_NE(domain, kNoName);

  NameInterner::FrozenEntry entry;
  char* at = buffer.data() + header.names_offset + domain * sizeof(entry);
  std::memcpy(&entry, at, sizeof(entry));
  entry.suffix = domain;
  std::memcpy(at, &entry, sizeof(entry));

  std::string error;
  EXPECT_FALSE(Adopt(buffer, image::ImageView::Verify::kStructure, &error).has_value());
  EXPECT_NE(error.find("suffix"), std::string::npos) << error;
}

TEST(ImageView, ChecksumCoversTheHeader) {
  // Flipping a *valid* flag bit (fold_case) leaves the structure plausible but changes
  // lookup semantics; the checksum must still catch it because it covers the header.
  std::string buffer = image::ImageWriter::Freeze(PaperRouteSet());
  image::ImageHeader header;
  std::memcpy(&header, buffer.data(), sizeof(header));
  header.flags ^= image::kFlagFoldCase;
  std::memcpy(buffer.data(), &header, sizeof(header));
  std::string error;
  EXPECT_FALSE(Adopt(buffer, image::ImageView::Verify::kChecksum, &error).has_value());
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(FrozenImage, FileRoundTripThroughMmap) {
  RouteSet routes = PaperRouteSet();
  fs::path path = fs::temp_directory_path() /
                  ("pathalias_image_test_" + std::to_string(getpid()) + ".pari");
  ASSERT_TRUE(image::ImageWriter::WriteFile(routes, path.string()));

  std::string error;
  auto opened =
      FrozenImage::Open(path.string(), image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(opened.has_value()) << error;
  EXPECT_EQ(opened->routes().size(), routes.size());

  Resolver resolver(&opened->routes(), ResolveOptions{});
  std::string_view matched;
  RouteView route = resolver.Lookup("blue.rutgers.edu", &matched);
  ASSERT_TRUE(route.ok());
  EXPECT_EQ(matched, ".edu");
  EXPECT_EQ(route.route, "seismo!%s");

  fs::remove(path);
}

TEST(FrozenImage, OpenRejectsMissingAndCorruptFiles) {
  std::string error;
  EXPECT_FALSE(FrozenImage::Open("/nonexistent/image.pari",
                                 image::ImageView::Verify::kStructure, &error)
                   .has_value());

  fs::path path = fs::temp_directory_path() /
                  ("pathalias_image_test_bad_" + std::to_string(getpid()) + ".pari");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a frozen route image";
  }
  EXPECT_FALSE(
      FrozenImage::Open(path.string(), image::ImageView::Verify::kStructure, &error)
          .has_value());
  fs::remove(path);
}

TEST(ImageWriter, GenerationStampRoundTripsThroughTheFile) {
  RouteSet routes = PaperRouteSet();
  fs::path path = fs::temp_directory_path() /
                  ("pathalias_image_gen_" + std::to_string(getpid()) + ".pari");
  ASSERT_TRUE(image::ImageWriter::WriteFile(routes, path.string(), /*generation=*/17));
  std::string error;
  auto opened =
      FrozenImage::Open(path.string(), image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(opened.has_value()) << error;
  EXPECT_EQ(opened->view().header().generation, 17u);
  // An unstamped freeze reads back as generation 0 (the legacy value).
  std::string unstamped = image::ImageWriter::Freeze(routes);
  auto view = Adopt(unstamped, image::ImageView::Verify::kChecksum);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->header().generation, 0u);
  fs::remove(path);
}

// Crash-safety regression (the historical bug was rename-without-fsync): an
// injected failure at ANY publish step must leave the previously published
// image fully intact and openable — never a short or torn file.
class ImagePublishFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = fs::temp_directory_path() /
            ("pathalias_image_fault_" + std::to_string(getpid()) + ".pari");
    fs::remove(path_);
    fs::remove(path_.string() + ".tmp");
    routes_ = PaperRouteSet();
    ASSERT_TRUE(image::ImageWriter::WriteFile(routes_, path_.string(), /*generation=*/1));
  }
  void TearDown() override {
    support::failpoint::Reset();
    fs::remove(path_);
    fs::remove(path_.string() + ".tmp");
  }

  void ExpectOldImageIntact() {
    std::string error;
    auto opened =
        FrozenImage::Open(path_.string(), image::ImageView::Verify::kChecksum, &error);
    ASSERT_TRUE(opened.has_value()) << error;
    EXPECT_EQ(opened->view().header().generation, 1u);
  }

  fs::path path_;
  RouteSet routes_;
};

TEST_F(ImagePublishFaultTest, FailedRenameNeverTearsThePublishedImage) {
  std::string error;
  ASSERT_TRUE(support::failpoint::Arm("image.publish.rename", "always,errno:EIO"));
  EXPECT_FALSE(
      image::ImageWriter::Refreeze(routes_, path_.string(), /*generation=*/2, &error));
  EXPECT_FALSE(error.empty());
  support::failpoint::Reset();
  ExpectOldImageIntact();
  EXPECT_FALSE(fs::exists(path_.string() + ".tmp"));  // torn temp is unlinked
}

TEST_F(ImagePublishFaultTest, ShortWriteNeverTearsThePublishedImage) {
  std::string error;
  // The .write site lands HALF the bytes then fails — the worst torn-write case.
  ASSERT_TRUE(support::failpoint::Arm("image.publish.write", "always,errno:ENOSPC"));
  EXPECT_FALSE(
      image::ImageWriter::Refreeze(routes_, path_.string(), /*generation=*/2, &error));
  EXPECT_NE(error.find("No space"), std::string::npos) << error;
  support::failpoint::Reset();
  ExpectOldImageIntact();
  EXPECT_FALSE(fs::exists(path_.string() + ".tmp"));
}

TEST_F(ImagePublishFaultTest, FailedFsyncNeverTearsThePublishedImage) {
  std::string error;
  ASSERT_TRUE(support::failpoint::Arm("image.publish.fsync", "always,errno:EIO"));
  EXPECT_FALSE(
      image::ImageWriter::Refreeze(routes_, path_.string(), /*generation=*/2, &error));
  support::failpoint::Reset();
  ExpectOldImageIntact();
}

TEST_F(ImagePublishFaultTest, LeftoverTempJunkFromACrashIsOverwritten) {
  {
    std::ofstream junk(path_.string() + ".tmp", std::ios::binary);
    junk << "half-written image from a crashed publish";
  }
  std::string error;
  ASSERT_TRUE(
      image::ImageWriter::Refreeze(routes_, path_.string(), /*generation=*/2, &error))
      << error;
  auto opened =
      FrozenImage::Open(path_.string(), image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(opened.has_value()) << error;
  EXPECT_EQ(opened->view().header().generation, 2u);
  EXPECT_FALSE(fs::exists(path_.string() + ".tmp"));
}

TEST_F(ImagePublishFaultTest, MmapFailureFallsBackToReadingTheWholeFile) {
  std::string error;
  ASSERT_TRUE(support::failpoint::Arm("image.mmap", "always"));
  auto opened =
      FrozenImage::Open(path_.string(), image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(opened.has_value()) << error;  // read() fallback served the open
  EXPECT_EQ(opened->routes().size(), routes_.size());
}

TEST(FrozenInterner, AdoptedInternerIsReadOnly) {
  RouteSet routes = PaperRouteSet();
  std::string buffer = image::ImageWriter::Freeze(routes);
  auto view = Adopt(buffer, image::ImageView::Verify::kChecksum);
  ASSERT_TRUE(view.has_value());
  NameInterner frozen = NameInterner::AdoptFrozen(view->interner_view());
  EXPECT_TRUE(frozen.frozen());
  EXPECT_EQ(frozen.size(), routes.names().size());
  // Adopted lookups return views into the image buffer, not copies.
  NameId id = frozen.Find("phs");
  ASSERT_NE(id, kNoName);
  const char* bytes = frozen.View(id).data();
  EXPECT_GE(bytes, buffer.data());
  EXPECT_LT(bytes, buffer.data() + buffer.size());
}

}  // namespace
}  // namespace pathalias
