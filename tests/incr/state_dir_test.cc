// State-dir robustness: generation stamping, corrupt/truncated/skewed loads
// falling back cleanly to rebuild-needed (swept over every truncation and bit
// flip), and crash-safe manifest publishing under injected faults.  The
// happy-path round trip lives in incremental_test.cc.

#include "src/incr/state_dir.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
  contents.ignore_case = false;
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
// reads: both get the clean rebuild-needed refusal, like a future version.
TEST_F(StateDirTest, OlderVersionsRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  const std::string manifest = ReadFileText(dir_ / "manifest");
  size_t header_at = manifest.find("pathalias-state 3");
  ASSERT_NE(header_at, std::string::npos);
  for (const char* header : {"pathalias-state 1", "pathalias-state 2"}) {
    std::string old_manifest = manifest;
    old_manifest.replace(header_at, 17, header);
    WriteFileText(dir_ / "manifest", old_manifest);

    std::string error;
    EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value()) << header;
    EXPECT_NE(error.find("rebuild the state dir"), std::string::npos) << error;
  }
}

TEST_F(StateDirTest, FutureVersionRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  std::string manifest = ReadFileText(dir_ / "manifest");
  size_t header_at = manifest.find("pathalias-state 3");
  ASSERT_NE(header_at, std::string::npos);
  manifest.replace(header_at, 17, "pathalias-state 9");
  WriteFileText(dir_ / "manifest", manifest);

  std::string error;
  EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value());
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

TEST_F(StateDirTest, TruncatedArtifactRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_ / "artifacts")) {
    std::string bytes = ReadFileText(entry.path());
    ASSERT_GT(bytes.size(), 4u);
    WriteFileText(entry.path(), bytes.substr(0, bytes.size() / 2));
    break;  // one torn payload is enough to poison the directory
  }
  std::string error;
  EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST_F(StateDirTest, DigestMismatchRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  // Corrupt the first digit of the first artifact line's digest.
  std::string manifest = ReadFileText(dir_ / "manifest");
  size_t files_line = manifest.find("files\t");
  ASSERT_NE(files_line, std::string::npos);
  size_t digest_at = manifest.find('\n', files_line) + 1;
  ASSERT_LT(digest_at, manifest.size());
  manifest[digest_at] = manifest[digest_at] == '1' ? '2' : '1';
  WriteFileText(dir_ / "manifest", manifest);

  std::string error;
  EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value());
  EXPECT_NE(error.find("does not match"), std::string::npos) << error;
}

TEST_F(StateDirTest, MalformedGenerationRejectedCleanly) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  std::string manifest = ReadFileText(dir_ / "manifest");
  size_t generation_at = manifest.find("generation\t7");
  ASSERT_NE(generation_at, std::string::npos);
  manifest.replace(generation_at, 12, "generation\tx");
  WriteFileText(dir_ / "manifest", manifest);

  std::string error;
  EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value());
  EXPECT_NE(error.find("generation"), std::string::npos) << error;
}

// Every truncation and every single-bit flip of the manifest and of each
// payload is refused with an error: the payloads' digests sit in the manifest,
// and the manifest's last line digests the rest of it.
TEST_F(StateDirTest, EveryTruncationAndBitFlipIsRefused) {
  ASSERT_TRUE(SaveStateDir(dir_.string(), SmallContents()));
  std::vector<fs::path> targets = {dir_ / "manifest"};
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_ / "artifacts")) {
    targets.push_back(entry.path());
  }
  ASSERT_EQ(targets.size(), 3u);

  for (const fs::path& target : targets) {
    const std::string original = ReadFileText(target);
    auto expect_refused = [&](const std::string& damaged, const std::string& what) {
      WriteFileText(target, damaged);
      std::string error;
      EXPECT_FALSE(LoadStateDir(dir_.string(), &error).has_value())
          << what << " of " << target.filename() << " loaded";
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
  }
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
