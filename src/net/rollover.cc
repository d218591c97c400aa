#include "src/net/rollover.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "src/image/image_writer.h"
#include "src/incr/state_dir.h"
#include "src/parser/parser.h"
#include "src/support/failpoint.h"

namespace pathalias {
namespace net {

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
  auto image = FrozenImage::Open(options_.image_path, image::ImageView::Verify::kStructure,
                                 error, /*readahead=*/true);
  if (!image.has_value()) {
    return false;
  }
  current_ = std::make_unique<FrozenImage>(std::move(*image));
  image_generation_ = current_->view().header().generation;
  engine_ = std::make_unique<exec::FrozenBatchEngine>(&current_->routes(), options_.engine);
  StatImage(&identity_);  // best-effort: a failed stat just means CheckImage re-opens
  return true;
}

bool RolloverController::EnsureBuilder(std::string* detail) {
  if (builder_ != nullptr) {
    return true;
  }
  std::string state_dir = options_.image_path + ".state";
  std::string error;
  auto state = incr::LoadStateDir(state_dir, &error);
  if (!state.has_value()) {
    *detail = "cannot load " + state_dir + " (" + error +
              "); run `routedb update --init` before HUP-reloading";
    return false;
  }
  // Generation agreement: the state dir must be the one published with the
  // image being served (see the header for why).  Stamps of 0 are
  // pre-generation files and can't be checked.
  if (state->image_generation != 0 && image_generation_ != 0 &&
      state->image_generation != image_generation_) {
    *detail = "generation mismatch: " + state_dir + " is generation " +
              std::to_string(state->image_generation) + " but the served image is " +
              std::to_string(image_generation_) +
              " (torn update?); run `routedb update` to republish both";
    return false;
  }
  incr::MapBuilderOptions builder_options;
  builder_options.local = state->local;
  builder_options.ignore_case = state->ignore_case;
  auto builder = std::make_unique<incr::MapBuilder>(builder_options);
  if (!builder->Build(std::move(state->artifacts))) {
    *detail = "retained state in " + state_dir + " no longer builds";
    return false;
  }
  builder_ = std::move(builder);
  return true;
}

ReloadOutcome RolloverController::ReloadFromSources(std::string* detail) {
  if (options_.map_files.empty()) {
    *detail = "no map files configured; reload-from-sources disabled";
    return ReloadOutcome::kError;
  }
  if (!EnsureBuilder(detail)) {
    return ReloadOutcome::kError;
  }
  // Offer every configured file; the builder's byte check turns an all-unchanged
  // set into a no-op.
  std::vector<InputFile> files;
  files.reserve(options_.map_files.size());
  for (const std::string& path : options_.map_files) {
    std::ifstream in(path);
    if (!in) {
      *detail = "cannot open map file " + path;
      return ReloadOutcome::kError;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    files.push_back({path, std::move(buffer).str()});
  }
  incr::UpdateStats stats = builder_->Update(files);
  if (!builder_->valid()) {
    // The builder's retained state may be damaged too: drop it so the next HUP
    // reloads from the state dir instead of updating on top of a broken graph.
    builder_.reset();
    *detail = "update left no buildable map; previous image still serving";
    return ReloadOutcome::kError;
  }
  std::string note;
  if (!builder_->dirty_route_ids().empty()) {
    // Publish image first, then state, both stamped with the same generation: a
    // crash between the two leaves the image ahead of the state, which the next
    // EnsureBuilder detects as a mismatch instead of serving a mixed pair.
    const uint64_t next_generation = image_generation_ + 1;
    std::string error;
    if (!image::ImageWriter::Refreeze(builder_->routes(), options_.image_path,
                                      next_generation, &error)) {
      // The builder already absorbed the file changes, so a retry would see
      // unchanged sources and no-op with the publish still missing.  Drop it:
      // the next reload rebuilds from the state dir (still paired with the served
      // image) and re-applies the edits as a fresh update.
      builder_.reset();
      *detail = "cannot rewrite " + options_.image_path + ": " + error;
      return ReloadOutcome::kError;
    }
    incr::StateDirContents contents;
    contents.local = builder_->options().local;
    contents.ignore_case = builder_->options().ignore_case;
    contents.image_generation = next_generation;
    contents.artifacts = builder_->artifacts();
    if (!incr::SaveStateDir(options_.image_path + ".state", contents)) {
      // The image is already rewritten and sound; a stale state dir only costs the
      // next update a rebuild.  Adopt anyway, but say so.
      note = "warning: cannot save " + options_.image_path + ".state; ";
    }
  }
  // Also when nothing was published: an image an earlier reload published but
  // could not open is still ahead of the served one.
  ReloadOutcome outcome = AdoptImage(detail);
  if (outcome == ReloadOutcome::kNoop) {
    *detail = "no route changed (" + std::to_string(stats.files_unchanged) +
              " file(s) unchanged)";
  }
  *detail = note + *detail;
  return outcome;
}

ReloadOutcome RolloverController::CheckImage(std::string* detail) {
  ReloadOutcome outcome = AdoptImage(detail);
  if (outcome == ReloadOutcome::kApplied) {
    // The external updater doesn't tell us what changed, and the resident builder
    // no longer describes the file on disk.
    builder_.reset();
  }
  return outcome;
}

ReloadOutcome RolloverController::AdoptImage(std::string* detail) {
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
  auto opened = FrozenImage::Open(options_.image_path, image::ImageView::Verify::kStructure,
                                  &error, /*readahead=*/true);
  if (!opened.has_value()) {
    // Likely caught the replacer mid-write (Refreeze renames atomically, but a
    // copy-based updater would not).  Keep serving; the next poll retries.
    *detail = "changed image fails to open: " + error;
    return ReloadOutcome::kError;
  }
  auto fresh = std::make_unique<FrozenImage>(std::move(*opened));
  std::optional<std::vector<NameId>> dirty =
      exec::DiffRoutes(current_->routes(), fresh->routes());
  retired_.push_back(std::move(current_));
  current_ = std::move(fresh);
  image_generation_ = current_->view().header().generation;
  identity_ = now;  // stat'ed before the open: a later replacement is seen next time
  ++generation_;
  if (!dirty.has_value()) {
    // Different id universe: targeted revocation is meaningless.  Replace the whole
    // engine — cold caches, correct results.  The old engine dies here on the
    // serving thread (between batches), so nothing references the old image.
    engine_ = std::make_unique<exec::FrozenBatchEngine>(&current_->routes(), options_.engine);
    *detail = "image has another id assignment; engine rebuilt cold";
  } else {
    engine_->AdoptRoutes(&current_->routes(), *dirty);
    *detail = "image replaced; " + std::to_string(dirty->size()) + " route(s) changed";
  }
  return ReloadOutcome::kApplied;
}

size_t RolloverController::RetireDrained() {
  size_t freed = retired_.size();
  retired_.clear();
  return freed;
}

}  // namespace net
}  // namespace pathalias
