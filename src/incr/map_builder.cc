#include "src/incr/map_builder.h"

#include <algorithm>
#include <unordered_map>

#include "src/core/route_printer.h"

namespace pathalias {
namespace incr {

MapBuilder::MapBuilder(MapBuilderOptions options) : options_(std::move(options)) {}

bool MapBuilder::Build(std::vector<InputFile> files) {
  artifacts_ = std::move(files);
  valid_ = Rebuild();
  return valid_;
}

bool MapBuilder::Rebuild() {
  diag_.Clear();  // each build reports only its own diagnostics
  graph_ = std::make_unique<Graph>(&diag_, Graph::Options{.ignore_case = options_.ignore_case});
  Parser parser(graph_.get());
  parser.ParseFiles(artifacts_);
  // The same default the batch pipeline applies: the first host declared.
  local_name_ = options_.local.empty() ? std::string(parser.first_host()) : options_.local;
  if (local_name_.empty()) {
    diag_.Error(SourcePos{}, "no hosts declared and no local host named");
    map_ = Mapper::Result{};
    CommitEmission({});
    return false;
  }
  graph_->SetLocal(local_name_);

  Mapper mapper(graph_.get(), MapOptions{});
  map_ = mapper.Run();
  for (const Node* unreachable : map_.unreachable) {
    diag_.Warn(SourcePos{}, std::string(graph_->NameOf(unreachable)) + " is unreachable");
  }

  RoutePrinter printer(map_, PrintOptions{});
  CommitEmission(printer.Build());
  return true;
}

void MapBuilder::CommitEmission(const std::vector<RouteEntry>& entries) {
  // Reduce the emission to its effective content ("later adds replace earlier
  // ones", matching RouteSet::FromEntries) before diffing against the held set.
  std::unordered_map<std::string_view, size_t> last;  // name → index of winning entry
  for (size_t i = 0; i < entries.size(); ++i) {
    last[entries[i].name] = i;
  }
  std::vector<std::string> erases;
  for (const Route& route : routes_.routes()) {
    std::string_view name = routes_.NameOf(route);
    if (!last.contains(name)) {
      erases.emplace_back(name);
    }
  }
  std::vector<RouteUpsert> upserts;  // in emission order, one per winning entry
  for (size_t i = 0; i < entries.size(); ++i) {
    if (last[entries[i].name] == i) {
      upserts.push_back(RouteUpsert{entries[i].name, entries[i].route, entries[i].cost});
    }
  }
  dirty_route_ids_ = routes_.ApplyDelta(upserts, erases);
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
  // Names that match no retained file are ignored.
  if (std::erase_if(artifacts_, [&removed](const InputFile& file) {
        return std::ranges::find(removed, file.name) != removed.end();
      }) > 0) {
    edited = true;
  }

  if (!edited) {
    stats.patched = true;  // nothing to rebuild
    dirty_route_ids_.clear();
    return stats;
  }
  valid_ = Rebuild();
  stats.routes_changed = dirty_route_ids_.size();
  return stats;
}

}  // namespace incr
}  // namespace pathalias
