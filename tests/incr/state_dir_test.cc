// State-dir robustness: generation stamping, any bytes in a name or a source
// round-tripping, corrupt/truncated/skewed loads falling back cleanly to
// rebuild-needed (swept over every truncation and bit flip), lengths that run
// past the end, and crash-safe manifest publishing under injected faults.  The
// happy-path round trip lives in incremental_test.cc.

#include "src/incr/state_dir.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/support/checksum.h"
#include "src/support/failpoint.h"

namespace pathalias {
namespace incr {
namespace {

namespace fs = std::filesystem;
namespace failpoint = support::failpoint;

fs::path MakeScratchDir() {
  static int counter = 0;
  fs::path dir = fs::temp_directory_path() /
                 ("pathalias_statedir_test_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter++));
  fs::remove_all(dir);
  return dir;
}

StateDirContents SmallContents() {
  StateDirContents contents;
  contents.local = "hub";
  contents.image_generation = 7;
  contents.artifacts.push_back({"a.map", "hub\talpha(3), beta\n"});
  contents.artifacts.push_back({"b.map", "beta\tgamma(2)\n"});
  return contents;
}

std::string ReadFileText(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileText(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

// Replaces the manifest's digest line with one that matches the bytes before it,
// so only the checks after the digest's can refuse the edit.
std::string Reseal(std::string manifest) {
  manifest.resize(manifest.rfind("digest "));
  return manifest + "digest " + std::to_string(support::Checksum(manifest)) + "\n";
}

// Loads `manifest` from the state dir at `dir`; the error, or "" if it loaded.
std::string LoadError(const fs::path& dir, const std::string& manifest) {
  WriteFileText(dir / "manifest", manifest);
  std::string error;
  if (LoadStateDir(dir.string(), &error).has_value()) {
    return "";
  }
  EXPECT_FALSE(error.empty());
  return error;
}

class StateDirTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeScratchDir(); }
  void TearDown() override {
    failpoint::Reset();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

TEST_F(StateDirTest, GenerationRoundTrips) {
  StateDirContents contents = SmallContents();
  contents.image_generation = 42;
  ASSERT_TRUE(SaveStateDir(dir_.string(), contents));
  std::string error;
  auto loaded = LoadStateDir(dir_.string(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->image_generation, 42u);
  EXPECT_EQ(loaded->artifacts.size(), 2u);
}

// Versions 1 and 2 stored a parse form of each file that this binary no longer
// reads, version 3 kept each source in a payload file of its own, and version 4
// sealed the manifest with FNV-1a: all four get the clean rebuild-needed
// refusal, like a future version.
TEST_F(StateDirTest, OlderVersionsRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  const std::string manifest = ReadFileText(dir_ / "manifest");
  ASSERT_TRUE(manifest.starts_with("pathalias-state 5\n"));
  for (const char* header : {"pathalias-state 1", "pathalias-state 2", "pathalias-state 3",
                             "pathalias-state 4"}) {
    std::string error = LoadError(dir_, header + manifest.substr(17));
    EXPECT_NE(error.find("rebuild the state dir"), std::string::npos) << header << ": " << error;
    EXPECT_EQ(error.find("stored no sources"), std::string::npos) << error;
  }
}

TEST_F(StateDirTest, FutureVersionRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  std::string manifest = ReadFileText(dir_ / "manifest");
  ASSERT_TRUE(manifest.starts_with("pathalias-state 5\n"));
  std::string error = LoadError(dir_, "pathalias-state 9" + manifest.substr(17));
  EXPECT_NE(error.find("newer"), std::string::npos) << error;
}

TEST_F(StateDirTest, TruncatedManifestRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  std::string manifest = ReadFileText(dir_ / "manifest");
  // Chop at every prefix length: no truncation point may crash or misload.
  for (size_t keep = 0; keep < manifest.size(); keep += 7) {
    WriteFileText(dir_ / "manifest", manifest.substr(0, keep));
    std::string error;
    EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value())
        << "prefix of " << keep << " bytes loaded";
    EXPECT_FALSE(error.empty());
  }
}

// A source's length is checked against the bytes left before it is used: a
// length that runs past the end of the manifest is refused, even when the digest
// line was recomputed to match, and nothing past the end is read.
TEST_F(StateDirTest, TruncatedArtifactRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  const std::string manifest = ReadFileText(dir_ / "manifest");
  const std::string last = "file 5 14\nb.map\n";
  const size_t last_at = manifest.find(last);
  ASSERT_NE(last_at, std::string::npos) << manifest;
  ASSERT_EQ(LoadError(dir_, Reseal(manifest)), "") << "the reseal itself must load";
  for (const char* lengths : {"5 15", "5 1000000", "5 18446744073709551615", "999 14",
                              "18446744073709551615 14"}) {
    std::string damaged = manifest;
    damaged.replace(last_at + 5, 4, lengths);
    std::string error = LoadError(dir_, Reseal(damaged));
    EXPECT_NE(error.find("runs past the end"), std::string::npos) << lengths << ": " << error;
  }
  // A record cut after its header line runs past the end as well.
  EXPECT_NE(LoadError(dir_, Reseal(manifest.substr(0, last_at) + "file 5 14\n" +
                                   manifest.substr(manifest.rfind("digest ")))).find(
                "runs past the end"),
            std::string::npos);
}

TEST_F(StateDirTest, DigestMismatchRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  // Same length, other bytes: only the digest can tell.
  std::string manifest = ReadFileText(dir_ / "manifest");
  size_t source_at = manifest.find("alpha(3)");
  ASSERT_NE(source_at, std::string::npos);
  manifest.replace(source_at, 5, "alphz");
  std::string error = LoadError(dir_, manifest);
  EXPECT_NE(error.find("does not match"), std::string::npos) << error;
}

TEST_F(StateDirTest, MalformedGenerationRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  std::string manifest = ReadFileText(dir_ / "manifest");
  size_t generation_at = manifest.find("generation 7\n");
  ASSERT_NE(generation_at, std::string::npos);
  manifest.replace(generation_at, 12, "generation x");
  std::string error = LoadError(dir_, Reseal(manifest));
  EXPECT_NE(error.find("generation"), std::string::npos) << error;
}

// Every string is length-prefixed, so names and sources holding tabs, newlines,
// NULs or text that looks like a manifest line come back byte for byte.
TEST_F(StateDirTest, AnyBytesInNamesAndSourcesRoundTrip) {
  StateDirContents contents;
  contents.local = "hub with spaces\tand a tab";
  contents.image_generation = 3;
  contents.artifacts.push_back({"a\nb.map", "hub\talpha(3)\n"});
  contents.artifacts.push_back({"tab\there.map", std::string("x\0y\nfile 1 1\nz\n\n", 16)});
  contents.artifacts.push_back({"", ""});
  contents.artifacts.push_back({"no-newline.map", "hub\tbeta"});
  ASSERT_TRUE(SaveStateDir(dir_.string(), contents));

  std::string error;
  auto loaded = LoadStateDir(dir_.string(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->local, contents.local);
  EXPECT_EQ(loaded->image_generation, 3u);
  ASSERT_EQ(loaded->artifacts.size(), contents.artifacts.size());
  for (size_t i = 0; i < contents.artifacts.size(); ++i) {
    EXPECT_EQ(loaded->artifacts[i].name, contents.artifacts[i].name) << i;
    EXPECT_EQ(loaded->artifacts[i].content, contents.artifacts[i].content) << i;
  }
}

// Every truncation and every single-bit flip of the manifest is refused with an
// error: its last line digests the rest of it.
TEST_F(StateDirTest, EveryTruncationAndBitFlipIsRefused) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  std::vector<std::string> entries;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    entries.push_back(entry.path().filename().string());
  }
  ASSERT_EQ(entries, std::vector<std::string>{"manifest"});

  const fs::path target = dir_ / "manifest";
  const std::string original = ReadFileText(target);
  auto expect_refused = [&](const std::string& damaged, const std::string& what) {
    WriteFileText(target, damaged);
    std::string error;
    EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value()) << what << " loaded";
    EXPECT_FALSE(error.empty()) << what;
  };
  for (size_t keep = 0; keep < original.size(); ++keep) {
    expect_refused(original.substr(0, keep), "truncation to " + std::to_string(keep));
  }
  for (size_t bit = 0; bit < 8 * original.size(); ++bit) {
    std::string damaged = original;
    damaged[bit / 8] = static_cast<char>(damaged[bit / 8] ^ (1 << (bit % 8)));
    expect_refused(damaged, "flip of bit " + std::to_string(bit));
  }
  WriteFileText(target, original);
  std::string error;
  ASSERT_TRUE(LoadStateDir(dir_.string(), &error).has_value()) << error;
}

// The satellite regression: a crash (injected failure) between writing the
// manifest temp file and renaming it must leave the previously published
// manifest fully intact — loads succeed and see the OLD contents.
TEST_F(StateDirTest, FailedRenameKeepsPreviousManifest) {
  StateDirContents contents = SmallContents();
  ASSERT_TRUE(SaveStateDir(dir_.string(), contents));

  contents.image_generation = 8;
  ASSERT_TRUE(failpoint::Arm("state.publish.rename", "always,errno:ENOSPC"));
  EXPECT_FALSE(SaveStateDir(dir_.string(), contents));
  failpoint::Reset();

  std::string error;
  auto loaded = LoadStateDir(dir_.string(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->image_generation, 7u);  // the OLD publish, not the torn one
}

TEST_F(StateDirTest, ShortWriteNeverTearsPublishedManifest) {
  StateDirContents contents = SmallContents();
  ASSERT_TRUE(SaveStateDir(dir_.string(), contents));
  std::string before = ReadFileText(dir_ / "manifest");

  contents.image_generation = 8;
  // The .write site simulates ENOSPC after half the bytes: the torn bytes live
  // only in the temp file (unlinked on failure), never at the published path.
  ASSERT_TRUE(failpoint::Arm("state.publish.write", "always,errno:ENOSPC"));
  EXPECT_FALSE(SaveStateDir(dir_.string(), contents));
  failpoint::Reset();

  EXPECT_EQ(ReadFileText(dir_ / "manifest"), before);
  std::string error;
  ASSERT_TRUE(LoadStateDir(dir_.string(), &error).has_value()) << error;
}

TEST_F(StateDirTest, FsyncFailureReportsAndKeepsOld) {
  StateDirContents contents = SmallContents();
  ASSERT_TRUE(SaveStateDir(dir_.string(), contents));

  contents.image_generation = 8;
  ASSERT_TRUE(failpoint::Arm("state.publish.fsync", "always,errno:EIO"));
  EXPECT_FALSE(SaveStateDir(dir_.string(), contents));
  failpoint::Reset();

  std::string error;
  auto loaded = LoadStateDir(dir_.string(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->image_generation, 7u);
}

TEST_F(StateDirTest, LeftoverTempFileFromCrashIsRecoveredFrom) {
  // A real crash leaves <manifest>.tmp behind (no unlink ran).  The next save
  // must truncate and overwrite it, and loads must ignore it entirely.
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  WriteFileText(dir_ / "manifest.tmp", "garbage from a crashed publish");

  std::string error;
  ASSERT_TRUE(LoadStateDir(dir_.string(), &error).has_value()) << error;

  StateDirContents contents = SmallContents();
  contents.image_generation = 9;
  ASSERT_TRUE(SaveStateDir(dir_.string(), contents));
  auto loaded = LoadStateDir(dir_.string(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->image_generation, 9u);
}

}  // namespace
}  // namespace incr
}  // namespace pathalias
