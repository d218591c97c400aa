#include "src/incr/map_builder.h"

#include <algorithm>
#include <unordered_map>

#include "src/core/pathalias.h"

namespace pathalias {
namespace incr {

MapBuilder::MapBuilder(MapBuilderOptions options) : options_(std::move(options)) {}

bool MapBuilder::Build(std::vector<InputFile> files) {
  artifacts_ = std::move(files);
  valid_ = Rebuild();
  return valid_;
}

void MapBuilder::Resume(std::vector<InputFile> files) {
  artifacts_ = std::move(files);
  routes_ = RouteSet();
  resumed_ = true;
  valid_ = false;
}

bool MapBuilder::Rebuild() {
  diag_.Clear();  // each compile reports only its own diagnostics
  RunOptions options;
  options.local = options_.local;
  RunResult compiled = CompileMap(artifacts_, options, &diag_);
  const Node* local = compiled.graph->local();
  local_name_ = local == nullptr ? std::string() : std::string(compiled.graph->NameOf(local));
  routes_ = RouteSet::FromEntries(compiled.routes);
  resumed_ = false;
  return local != nullptr;
}

UpdateStats MapBuilder::Update(const std::vector<InputFile>& changed,
                               const std::vector<std::string>& removed) {
  UpdateStats stats;

  std::unordered_map<std::string, size_t> index_by_name;  // owned keys: artifacts_ moves
  for (size_t i = 0; i < artifacts_.size(); ++i) {
    index_by_name[artifacts_[i].name] = i;
  }

  // Take real changes (in place, or appended as new files); skip the rest.
  bool edited = false;
  for (const InputFile& file : changed) {
    auto it = index_by_name.find(file.name);
    if (it != index_by_name.end() && artifacts_[it->second].content == file.content) {
      ++stats.files_unchanged;
      continue;
    }
    ++stats.files_changed;
    edited = true;
    if (it != index_by_name.end()) {
      artifacts_[it->second].content = file.content;
    } else {
      index_by_name[file.name] = artifacts_.size();
      artifacts_.push_back(file);
    }
  }
  // Names that match no kept file are ignored.
  if (std::erase_if(artifacts_, [&removed](const InputFile& file) {
        return std::ranges::find(removed, file.name) != removed.end();
      }) > 0) {
    edited = true;
  }

  if (!edited && !resumed_) {
    stats.patched = true;  // nothing to compile
    return stats;
  }
  const RouteSet previous = std::move(routes_);
  valid_ = Rebuild();
  stats.routes_changed = CountChangedRoutes(previous, routes_);
  return stats;
}

}  // namespace incr
}  // namespace pathalias
