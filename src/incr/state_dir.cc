#include "src/incr/state_dir.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "src/support/durable_file.h"
#include "src/support/failpoint.h"
#include "src/support/io_retry.h"

namespace pathalias {
namespace incr {
namespace {

namespace fs = std::filesystem;

// v1 and v2 stored each file as a parse-op stream; v3 stores the source bytes
// and ends the manifest with a digest line.
constexpr int kManifestVersion = 3;

// FNV-1a over raw bytes.
uint64_t DigestBytes(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char byte : bytes) {
    hash = (hash ^ byte) * 0x00000100000001B3ull;
  }
  return hash;
}

// Slot index + digest of the source bytes: content-addressed, so a re-save never
// overwrites a payload an older manifest still references.
std::string ArtifactFileName(size_t index, uint64_t digest) {
  char name[48];
  std::snprintf(name, sizeof(name), "%04zu-%016llx.pai", index,
                static_cast<unsigned long long>(digest));
  return name;
}

// Durable temp + fsync + rename + parent-dir fsync: a crash mid-save leaves the
// previous version intact, and a completed save survives power loss.
bool WriteFileAtomically(const fs::path& path, std::string_view bytes) {
  std::string error;
  return support::PublishFileDurably(path.string(), bytes, "state.publish", &error);
}

std::optional<std::string> ReadWholeFile(const fs::path& path) {
  if (support::failpoint::Inject("state.read")) {
    return std::nullopt;
  }
  return support::ReadFileFully(path.string(), nullptr);
}

}  // namespace

bool SaveStateDir(const std::string& dir, const StateDirContents& contents) {
  std::error_code ec;
  fs::create_directories(fs::path(dir) / "artifacts", ec);
  if (ec) {
    return false;
  }
  // Payloads are content-addressed and written via temp+rename, so a save torn at
  // ANY point leaves the previous manifest's payload set intact and readable; the
  // manifest rename below is the single commit point.
  std::unordered_set<std::string> referenced;
  std::string manifest;
  manifest += "pathalias-state " + std::to_string(kManifestVersion) + "\n";
  manifest += "local\t" + contents.local + "\n";
  manifest += "ignore_case\t" + std::string(contents.ignore_case ? "1" : "0") + "\n";
  manifest += "generation\t" + std::to_string(contents.image_generation) + "\n";
  manifest += "files\t" + std::to_string(contents.artifacts.size()) + "\n";
  for (size_t i = 0; i < contents.artifacts.size(); ++i) {
    const InputFile& source = contents.artifacts[i];
    uint64_t digest = DigestBytes(source.content);
    std::string file_name = ArtifactFileName(i, digest);
    fs::path payload_path = fs::path(dir) / "artifacts" / file_name;
    // Content-addressed: a payload that already holds these bytes stays, so a
    // 1-file update writes one payload, not the whole map's worth.  A damaged
    // one is written again.
    if (ReadWholeFile(payload_path) != source.content &&
        !WriteFileAtomically(payload_path, source.content)) {
      return false;
    }
    manifest += std::to_string(digest) + "\t" + file_name + "\t" + source.name + "\n";
    referenced.insert(std::move(file_name));
  }
  manifest += "digest\t" + std::to_string(DigestBytes(manifest)) + "\n";
  if (!WriteFileAtomically(fs::path(dir) / "manifest", manifest)) {
    return false;
  }
  // Now that the new manifest is committed, drop payloads nothing references.
  // Best-effort: a leftover file is dead weight, never a correctness problem.
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(dir) / "artifacts", ec)) {
    std::string name = entry.path().filename().string();
    if (name.ends_with(".pai") && !referenced.contains(name)) {
      fs::remove(entry.path(), ec);
    }
  }
  return true;
}

std::optional<StateDirContents> LoadStateDir(const std::string& dir, std::string* error) {
  auto fail = [&](std::string message) -> std::optional<StateDirContents> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };
  std::optional<std::string> manifest = ReadWholeFile(fs::path(dir) / "manifest");
  if (!manifest.has_value()) {
    return fail("cannot read manifest");
  }
  if (!manifest->ends_with('\n')) {
    return fail("manifest truncated");
  }
  std::istringstream in(*manifest);
  std::string word;
  int version = 0;
  if (!(in >> word >> version) || word != "pathalias-state" || version < 1) {
    return fail("unrecognized manifest header");
  }
  if (version != kManifestVersion) {
    return fail("manifest version " + std::to_string(version) + " is " +
                (version > kManifestVersion ? "newer than this binary understands"
                                            : "an older format that stored no sources") +
                " — rebuild the state dir");
  }
  StateDirContents contents;
  std::string line;
  std::getline(in, line);  // finish the header line
  auto next_field = [&](std::string_view key, std::string* value) {
    if (!std::getline(in, line)) {
      return false;
    }
    size_t tab = line.find('\t');
    if (tab == std::string::npos || std::string_view(line).substr(0, tab) != key) {
      return false;
    }
    *value = line.substr(tab + 1);
    return true;
  };
  std::string field;
  if (!next_field("local", &contents.local)) {
    return fail("manifest missing local host");
  }
  if (!next_field("ignore_case", &field)) {
    return fail("manifest missing ignore_case");
  }
  contents.ignore_case = field == "1";
  if (!next_field("generation", &field)) {
    return fail("manifest missing generation");
  }
  try {
    contents.image_generation = std::stoull(field);
  } catch (...) {
    return fail("malformed generation");
  }
  if (!next_field("files", &field)) {
    return fail("manifest missing file count");
  }
  size_t count = 0;
  try {
    count = std::stoul(field);
  } catch (...) {
    return fail("malformed file count");
  }
  for (size_t i = 0; i < count; ++i) {
    if (!std::getline(in, line)) {
      return fail("manifest truncated");
    }
    size_t tab1 = line.find('\t');
    size_t tab2 = tab1 == std::string::npos ? std::string::npos : line.find('\t', tab1 + 1);
    if (tab2 == std::string::npos) {
      return fail("malformed manifest line");
    }
    uint64_t digest = 0;
    try {
      digest = std::stoull(line.substr(0, tab1));
    } catch (...) {
      return fail("malformed digest");
    }
    std::string artifact_file = line.substr(tab1 + 1, tab2 - tab1 - 1);
    std::optional<std::string> bytes = ReadWholeFile(fs::path(dir) / "artifacts" / artifact_file);
    if (!bytes.has_value()) {
      return fail("cannot read artifact " + artifact_file);
    }
    if (DigestBytes(*bytes) != digest) {
      return fail("artifact " + artifact_file + " does not match its manifest entry");
    }
    contents.artifacts.push_back(InputFile{line.substr(tab2 + 1), std::move(*bytes)});
  }
  // The last line digests every byte before it, so no damaged field loads.
  const std::streampos sealed = in.tellg();
  if (sealed == std::streampos(-1) || !next_field("digest", &field)) {
    return fail("manifest missing digest");
  }
  uint64_t seal = 0;
  try {
    seal = std::stoull(field);
  } catch (...) {
    return fail("malformed manifest digest");
  }
  if (seal != DigestBytes(std::string_view(*manifest).substr(0, static_cast<size_t>(sealed)))) {
    return fail("manifest does not match its digest");
  }
  return contents;
}

}  // namespace incr
}  // namespace pathalias
