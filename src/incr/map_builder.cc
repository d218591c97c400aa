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

bool MapBuilder::Rebuild() {
  diag_.Clear();  // each compile reports only its own diagnostics
  RunOptions options;
  options.local = options_.local;
  RunResult compiled = CompileMap(artifacts_, options, &diag_);
  const Node* local = compiled.graph->local();
  local_name_ = local == nullptr ? std::string() : std::string(compiled.graph->NameOf(local));
  routes_ = RouteSet::FromEntries(compiled.routes);
  return local != nullptr;
}

bool MergeSources(std::vector<InputFile>* sources, const std::vector<InputFile>& changed,
                  const std::vector<std::string>& removed, UpdateStats* stats) {
  std::unordered_map<std::string, size_t> index_by_name;  // owned keys: sources move
  for (size_t i = 0; i < sources->size(); ++i) {
    index_by_name[(*sources)[i].name] = i;
  }

  // Take real changes (in place, or appended as new files); skip the rest.
  bool edited = false;
  for (const InputFile& file : changed) {
    auto it = index_by_name.find(file.name);
    if (it != index_by_name.end() && (*sources)[it->second].content == file.content) {
      ++stats->files_unchanged;
      continue;
    }
    ++stats->files_changed;
    edited = true;
    if (it != index_by_name.end()) {
      (*sources)[it->second].content = file.content;
    } else {
      index_by_name[file.name] = sources->size();
      sources->push_back(file);
    }
  }
  if (std::erase_if(*sources, [&removed](const InputFile& file) {
        return std::ranges::find(removed, file.name) != removed.end();
      }) > 0) {
    edited = true;
  }
  return edited;
}

UpdateStats MapBuilder::Update(const std::vector<InputFile>& changed,
                               const std::vector<std::string>& removed) {
  UpdateStats stats;
  if (!MergeSources(&artifacts_, changed, removed, &stats)) {
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
