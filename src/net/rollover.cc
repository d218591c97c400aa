#include "src/net/rollover.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "src/image/image_writer.h"
#include "src/incr/state_dir.h"
#include "src/support/failpoint.h"
#include "src/support/io_retry.h"

namespace pathalias {
namespace net {
namespace {

#if defined(__GLIBC__)
// A reload from sources allocates a whole compile's working set and frees it
// again.  Left to itself, glibc hands most of it back to the kernel at once
// (heap-top trim, and large blocks mapped afresh each time), so every reload
// would fault it all in again: on the 1986 map, about 850 minor faults a reload
// instead of about 30.  A serving process keeps up to this much freed heap for
// the next reload, and trims past it (32 MiB is M_MMAP_THRESHOLD's ceiling).
constexpr size_t kKeptHeapBytes = size_t{32} << 20;
#endif

// Publishes `builder`'s routes as the image at `generation`, then a state that
// keeps its sources and `local`, stamped with the same generation: a crash
// between the two leaves the image ahead of the state, which the next update
// pairs as torn instead of serving a mixed pair.  False (with *error set) when
// the image could not be written; then nothing was published.
bool Publish(const incr::MapBuilder& builder, const std::string& local, uint64_t generation,
             const std::string& image_path, UpdateReport* report, std::string* error) {
  if (!image::ImageWriter::Refreeze(builder.routes(), image_path, generation, error)) {
    return false;
  }
  report->outcome = UpdateOutcome::kPublished;
  report->routes_total = builder.routes().size();
  report->local = builder.local_name();
  report->state_saved = incr::SaveStateDir(
      image_path + ".state",
      {.local = local, .image_generation = generation, .artifacts = builder.artifacts()});
  return true;
}

// An offered file whose name no kept source has is a new file, unless it is a
// kept source under another spelling (./mid.map for mid.map): merged as new, it
// would sit beside the kept copy, whose routes would stay.  A kept source the
// update removes does not stay, so it may come back under a new spelling.
// Returns the refusal for the first such file, or "".  Each kept name is stat'ed
// at most once, and only when some offered name is unknown.
std::string RespelledKeptSource(const std::vector<InputFile>& kept,
                                const std::vector<InputFile>& offered,
                                const std::vector<std::string>& removed) {
  std::unordered_set<std::string_view> kept_names;
  for (const InputFile& source : kept) {
    kept_names.insert(source.name);
  }
  using FileId = std::pair<dev_t, ino_t>;
  std::vector<std::optional<FileId>> kept_ids;  // parallel to `kept`, on first need
  for (const InputFile& file : offered) {
    struct stat st {};
    if (kept_names.contains(file.name) || ::stat(file.name.c_str(), &st) != 0) {
      continue;
    }
    if (kept_ids.empty()) {
      for (const InputFile& source : kept) {
        struct stat kept_st {};
        const bool stays = std::ranges::find(removed, source.name) == removed.end();
        kept_ids.push_back(stays && ::stat(source.name.c_str(), &kept_st) == 0
                               ? std::optional<FileId>(FileId(kept_st.st_dev, kept_st.st_ino))
                               : std::nullopt);
      }
    }
    for (size_t i = 0; i < kept.size(); ++i) {
      if (kept_ids[i] == FileId(st.st_dev, st.st_ino)) {
        return file.name + " is the kept file " + kept[i].name +
               " under another name; offer it as " + kept[i].name;
      }
    }
  }
  return "";
}

}  // namespace

UpdateReport InitializeImage(const std::string& image_path, std::vector<InputFile> files,
                             const std::string& local) {
  UpdateReport report;
  report.stats.files_changed = files.size();
  incr::MapBuilder builder(incr::MapBuilderOptions{.local = local});
  const bool built = builder.Build(std::move(files));
  report.diag = std::move(builder.diag());
  if (!built) {
    report.error = "no routes could be built";
    return report;
  }
  report.stats.routes_changed = builder.routes().size();
  std::string error;
  if (!Publish(builder, local, /*generation=*/1, image_path, &report, &error)) {
    report.error = "cannot write " + image_path + ": " + error;
  }
  return report;
}

UpdateReport UpdateImage(UpdateRequest request) {
  UpdateReport report;
  const std::string& image_path = request.image_path;
  const std::string state_dir = image_path + ".state";
  auto fail = [&report](std::string error) {
    report.outcome = UpdateOutcome::kError;
    report.error = std::move(error);
    return std::move(report);
  };

  std::string error;
  std::optional<incr::StateDirContents> state = incr::LoadStateDir(state_dir, &error);
  if (!state.has_value()) {
    return fail("cannot load " + state_dir + " (" + error +
                "); run `routedb update --init` first");
  }
  if (!request.local.empty() && request.local != state->local) {
    return fail("state was built with local '" + state->local +
                "'; re-run --init to change it");
  }
  for (const std::string& name : request.removed) {
    if (std::ranges::none_of(state->artifacts,
                             [&name](const InputFile& kept) { return kept.name == name; })) {
      return fail("--remove " + name + " names no file in " + state_dir +
                  "; nothing published");
    }
  }
  std::vector<InputFile>& changed = request.changed;
  if (std::string respelled = RespelledKeptSource(state->artifacts, changed, request.removed);
      !respelled.empty()) {
    return fail(respelled + "; nothing published");
  }

  // Pair the state with the image on disk.  Stamps of 0 are pre-generation files
  // and cannot be checked.  A corrupt image pairs with nothing, so the update
  // republishes it even when no source changed.
  std::optional<FrozenImage> replaced = FrozenImage::Open(
      image_path, image::ImageView::Verify::kChecksum, &error, /*readahead=*/true);
  const uint64_t image_generation =
      replaced.has_value() ? replaced->view().header().generation : 0;
  const bool paired = replaced.has_value() &&
                      (image_generation == 0 || state->image_generation == 0 ||
                       image_generation == state->image_generation);
  if (!paired) {
    report.note = (replaced.has_value()
                       ? image_path + " is generation " + std::to_string(image_generation) +
                             " but " + state_dir + " is generation " +
                             std::to_string(state->image_generation) + " (torn update?)"
                       : "cannot pair " + state_dir + " with the image (" + error + ")") +
                  "; re-reading every source and republishing both in step";
    // The image may carry edits the state lacks: offer every kept source as it
    // is on disk, and the merge picks up the ones those edits touched.
    for (const InputFile& source : state->artifacts) {
      if (std::ranges::find(request.removed, source.name) != request.removed.end() ||
          std::ranges::any_of(changed, [&source](const InputFile& file) {
            return file.name == source.name;
          })) {
        continue;
      }
      std::optional<std::string> bytes = support::ReadFileFully(source.name, &error);
      if (!bytes.has_value()) {
        return fail(error + ", which " + state_dir + " names; nothing published");
      }
      changed.push_back({source.name, std::move(*bytes)});
    }
  }

  std::vector<InputFile> sources = std::move(state->artifacts);
  if (!incr::MergeSources(&sources, changed, request.removed, &report.stats) && paired) {
    // The byte check: leave the image and the state directory byte-for-byte (and
    // mtime-for-mtime) alone.
    report.outcome = UpdateOutcome::kNothingToDo;
    return report;
  }

  incr::MapBuilder builder(incr::MapBuilderOptions{.local = state->local});
  const bool built = builder.Build(std::move(sources));
  report.diag = std::move(builder.diag());
  if (!built) {
    return fail("update left no buildable map");
  }
  report.stats.routes_changed =
      replaced.has_value() ? incr::CountChangedRoutes(replaced->routes(), builder.routes())
                           : builder.routes().size();
  const uint64_t generation = std::max(image_generation, state->image_generation) + 1;
  if (!Publish(builder, state->local, generation, image_path, &report, &error)) {
    return fail("cannot rewrite " + image_path + ": " + error);
  }
  return report;
}

RolloverController::RolloverController(RolloverOptions options)
    : options_(std::move(options)) {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, kKeptHeapBytes);
  mallopt(M_TRIM_THRESHOLD, kKeptHeapBytes);
#endif
}

bool RolloverController::StatImage(ImageIdentity* out) const {
  struct stat st;
  if (::stat(options_.image_path.c_str(), &st) != 0) {
    return false;
  }
  out->dev = st.st_dev;
  out->inode = st.st_ino;
  out->size = st.st_size;
  out->mtime_sec = static_cast<int64_t>(st.st_mtim.tv_sec);
  out->mtime_nsec = static_cast<int64_t>(st.st_mtim.tv_nsec);
  return true;
}

bool RolloverController::Start(std::string* error) {
  auto image = FrozenImage::Open(options_.image_path, image::ImageView::Verify::kChecksum,
                                 error, /*readahead=*/true);
  if (!image.has_value()) {
    return false;
  }
  current_ = std::make_unique<FrozenImage>(std::move(*image));
  engine_ = std::make_unique<exec::FrozenBatchEngine>(&current_->routes(), options_.engine);
  StatImage(&identity_);  // best-effort: a failed stat just means CheckImage re-opens
  return true;
}

ReloadOutcome RolloverController::ReloadFromSources(std::string* detail) {
  if (options_.map_files.empty()) {
    *detail = "no map files configured; reload-from-sources disabled";
    return ReloadOutcome::kError;
  }
  // Offer every configured file; the step's byte check turns an all-unchanged
  // set into a no-op.
  UpdateRequest request;
  request.image_path = options_.image_path;
  for (const std::string& path : options_.map_files) {
    std::optional<std::string> bytes = support::ReadFileFully(path, detail);
    if (!bytes.has_value()) {
      return ReloadOutcome::kError;
    }
    request.changed.push_back({path, std::move(*bytes)});
  }
  UpdateReport report = UpdateImage(std::move(request));
#if defined(__GLIBC__)
#if __GLIBC_PREREQ(2, 33)
  // Freed heap past the top stays resident until trimmed: a million-host map
  // leaves about a gigabyte.
  if (mallinfo2().fordblks > kKeptHeapBytes) {
    malloc_trim(0);
  }
#endif
#endif
  if (report.outcome == UpdateOutcome::kError) {
    *detail = report.error;
    return ReloadOutcome::kError;
  }
  std::string note = report.note.empty() ? "" : report.note + "; ";
  if (report.outcome == UpdateOutcome::kPublished && !report.state_saved) {
    // The image is published and sound; the next update pairs the stale state as
    // torn and re-reads every source.  Adopt anyway, but say so.
    note += "warning: cannot save " + options_.image_path + ".state; ";
  }
  // Also when nothing was published: an image an earlier reload published but
  // could not open is still ahead of the served one.
  ReloadOutcome outcome = CheckImage(detail);
  if (outcome == ReloadOutcome::kNoop) {
    *detail = "no route changed (" + std::to_string(report.stats.files_unchanged) +
              " file(s) unchanged)";
  } else if (outcome == ReloadOutcome::kApplied &&
             report.outcome == UpdateOutcome::kPublished) {
    *detail += "; " + std::to_string(report.stats.routes_changed) + " route(s) changed";
  }
  *detail = note + *detail;
  return outcome;
}

ReloadOutcome RolloverController::CheckImage(std::string* detail) {
  ImageIdentity now;
  if (!StatImage(&now)) {
    *detail = "cannot stat " + options_.image_path + "; previous image still serving";
    return ReloadOutcome::kError;
  }
  if (now == identity_) {
    *detail = "image unchanged";
    return ReloadOutcome::kNoop;
  }
  if (support::failpoint::Inject("rollover.reopen")) {
    // identity_ is deliberately NOT updated: the next watch tick or reload sees
    // the same changed file and retries the open — transient failures self-heal.
    *detail = "changed image fails to open: injected failure (rollover.reopen)";
    return ReloadOutcome::kError;
  }
  std::string error;
  auto opened = FrozenImage::Open(options_.image_path, image::ImageView::Verify::kChecksum,
                                  &error, /*readahead=*/true);
  if (!opened.has_value()) {
    // A corrupt image, or the replacer caught mid-write (Refreeze renames
    // atomically, but a copy-based updater would not).  Keep serving; the next
    // poll retries, and the next SIGHUP republishes a corrupt image.
    *detail = "changed image fails to open: " + error;
    return ReloadOutcome::kError;
  }
  retired_.push_back(std::move(current_));
  current_ = std::make_unique<FrozenImage>(std::move(*opened));
  identity_ = now;  // stat'ed before the open: a later replacement is seen next time
  ++generation_;
  engine_->AdoptRoutes(&current_->routes());
  *detail = "image replaced";
  return ReloadOutcome::kApplied;
}

size_t RolloverController::RetireDrained() {
  size_t freed = retired_.size();
  retired_.clear();
  return freed;
}

}  // namespace net
}  // namespace pathalias
