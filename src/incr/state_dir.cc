#include "src/incr/state_dir.h"

#include <charconv>
#include <filesystem>
#include <initializer_list>
#include <string_view>

#include "src/support/checksum.h"
#include "src/support/durable_file.h"
#include "src/support/failpoint.h"
#include "src/support/io_retry.h"

namespace pathalias {
namespace incr {
namespace {

namespace fs = std::filesystem;

// v1 and v2 stored each file as a parse-op stream, v3 kept each source in a
// payload file of its own, v4 sealed the inline sources with FNV-1a; v5 seals
// them with support::Checksum.
constexpr uint64_t kManifestVersion = 5;

// Parses "<key> <n>..." with exactly as many decimal numbers as `numbers` holds.
bool ParseNumbers(std::string_view line, std::string_view key,
                  std::initializer_list<uint64_t*> numbers) {
  if (!line.starts_with(key)) {
    return false;
  }
  line.remove_prefix(key.size());
  for (uint64_t* number : numbers) {
    if (!line.starts_with(' ')) {
      return false;
    }
    line.remove_prefix(1);
    auto [end, ec] = std::from_chars(line.data(), line.data() + line.size(), *number);
    if (ec != std::errc()) {
      return false;
    }
    line.remove_prefix(static_cast<size_t>(end - line.data()));
  }
  return line.empty();
}

// A cursor over the manifest body.  Each read checks the bytes left before it
// takes any.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : rest_(bytes) {}

  // The next "<key> <n>..." line.
  bool Numbers(std::string_view key, std::initializer_list<uint64_t*> numbers) {
    size_t end = rest_.find('\n');
    if (end == std::string_view::npos || !ParseNumbers(rest_.substr(0, end), key, numbers)) {
      return false;
    }
    rest_.remove_prefix(end + 1);
    return true;
  }

  // The next `length` bytes, which a newline must follow.
  bool Bytes(uint64_t length, std::string* bytes) {
    if (length >= rest_.size() || rest_[length] != '\n') {
      return false;
    }
    bytes->assign(rest_.substr(0, length));
    rest_.remove_prefix(length + 1);
    return true;
  }

  bool done() const { return rest_.empty(); }

 private:
  std::string_view rest_;
};

}  // namespace

bool SaveStateDir(const std::string& dir, const StateDirContents& contents) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return false;
  }
  size_t size = 96 + contents.local.size();
  for (const InputFile& source : contents.artifacts) {
    size += 48 + source.name.size() + source.content.size();
  }
  std::string manifest;
  manifest.reserve(size);
  manifest += "pathalias-state " + std::to_string(kManifestVersion) + "\n";
  manifest += "local " + std::to_string(contents.local.size()) + "\n";
  manifest += contents.local + "\n";
  manifest += "generation " + std::to_string(contents.image_generation) + "\n";
  for (const InputFile& source : contents.artifacts) {
    manifest += "file " + std::to_string(source.name.size()) + " " +
                std::to_string(source.content.size()) + "\n";
    manifest += source.name;
    manifest += '\n';
    manifest += source.content;
    manifest += '\n';
  }
  manifest += "digest " + std::to_string(support::Checksum(manifest)) + "\n";
  std::string error;
  if (!support::PublishFileDurably((fs::path(dir) / "manifest").string(), manifest,
                                   "state.publish", &error)) {
    return false;
  }
  // A version 3 directory kept its sources under artifacts/, which nothing reads
  // now.  Best-effort: a leftover is dead weight, never a correctness problem.
  fs::remove_all(fs::path(dir) / "artifacts", ec);
  return true;
}

std::optional<StateDirContents> LoadStateDir(const std::string& dir, std::string* error) {
  auto fail = [&](std::string message) -> std::optional<StateDirContents> {
    if (error != nullptr) {
      *error = std::move(message);
    }
    return std::nullopt;
  };
  std::optional<std::string> read;
  if (!support::failpoint::Inject("state.read")) {
    read = support::ReadFileFully((fs::path(dir) / "manifest").string(), nullptr);
  }
  if (!read.has_value()) {
    return fail("cannot read manifest");
  }
  const std::string_view manifest = *read;
  const size_t header_end = manifest.find('\n');
  uint64_t version = 0;
  if (header_end == std::string_view::npos ||
      !ParseNumbers(manifest.substr(0, header_end), "pathalias-state", {&version}) ||
      version == 0) {
    return fail("unrecognized manifest header");
  }
  if (version != kManifestVersion) {
    return fail("manifest version " + std::to_string(version) + " is " +
                (version > kManifestVersion ? "newer than this binary understands"
                                            : "an older format than this binary reads") +
                " — rebuild the state dir");
  }
  // The last line digests every byte before it, so no damaged field is parsed.
  if (!manifest.ends_with('\n')) {
    return fail("manifest truncated");
  }
  const size_t sealed = manifest.rfind('\n', manifest.size() - 2) + 1;
  uint64_t seal = 0;
  if (sealed <= header_end ||
      !ParseNumbers(manifest.substr(sealed, manifest.size() - 1 - sealed), "digest", {&seal})) {
    return fail("manifest missing digest");
  }
  if (seal != support::Checksum(manifest.substr(0, sealed))) {
    return fail("manifest does not match its digest");
  }

  Reader in(manifest.substr(header_end + 1, sealed - header_end - 1));
  StateDirContents contents;
  uint64_t length = 0;
  if (!in.Numbers("local", {&length}) || !in.Bytes(length, &contents.local)) {
    return fail("malformed local host");
  }
  if (!in.Numbers("generation", {&contents.image_generation})) {
    return fail("malformed generation");
  }
  while (!in.done()) {
    uint64_t name_length = 0;
    InputFile source;
    if (!in.Numbers("file", {&name_length, &length}) || !in.Bytes(name_length, &source.name) ||
        !in.Bytes(length, &source.content)) {
      return fail("source " + std::to_string(contents.artifacts.size()) +
                  " runs past the end of the manifest");
    }
    contents.artifacts.push_back(std::move(source));
  }
  return contents;
}

}  // namespace incr
}  // namespace pathalias
