#include "src/incr/map_builder.h"

#include <algorithm>
#include <unordered_map>

#include "src/core/route_printer.h"

namespace pathalias {
namespace incr {

MapBuilder::MapBuilder(MapBuilderOptions options) : options_(std::move(options)) {}

bool MapBuilder::Build(const std::vector<InputFile>& files) {
  std::vector<FileArtifact> artifacts;
  artifacts.reserve(files.size());
  for (const InputFile& file : files) {
    // Errors surface once, in BuildFromArtifacts (which also covers artifacts that
    // arrive pre-parsed from a state dir).
    artifacts.push_back(ParseFileToArtifact(file, nullptr));
  }
  return BuildFromArtifacts(std::move(artifacts));
}

bool MapBuilder::BuildFromArtifacts(std::vector<FileArtifact> artifacts) {
  artifacts_ = std::move(artifacts);
  // Stored parse errors re-surface every time an artifact set enters a builder: a
  // broken input stays broken (and the exit code stays non-zero) no matter how
  // many digest-matched runs reuse its artifact.
  for (const FileArtifact& artifact : artifacts_) {
    artifact.ReportStoredErrors(&diag_);
  }
  valid_ = Rebuild();
  return valid_;
}

std::string MapBuilder::ComputeLocalName() const {
  if (!options_.local.empty()) {
    return options_.local;
  }
  for (const FileArtifact& artifact : artifacts_) {
    if (artifact.first_host != kNoSymbol) {
      return std::string(artifact.Symbol(artifact.first_host));
    }
  }
  return std::string();
}

bool MapBuilder::Rebuild() {
  graph_ = std::make_unique<Graph>(&diag_, Graph::Options{.ignore_case = options_.ignore_case});
  for (const FileArtifact& artifact : artifacts_) {
    ReplayArtifact(artifact, graph_.get());
  }
  local_name_ = ComputeLocalName();
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
    index_by_name[artifacts_[i].file_name] = i;
  }

  // Reparse real changes (in place, or appended as new files); skip the rest.
  bool edited = false;
  for (const InputFile& file : changed) {
    auto it = index_by_name.find(file.name);
    if (it != index_by_name.end() &&
        artifacts_[it->second].digest == DigestBytes(file.content)) {
      ++stats.files_unchanged;
      continue;
    }
    FileArtifact fresh = ParseFileToArtifact(file, &diag_);
    ++stats.files_reparsed;
    edited = true;
    if (it != index_by_name.end()) {
      artifacts_[it->second] = std::move(fresh);
    } else {
      index_by_name[file.name] = artifacts_.size();
      artifacts_.push_back(std::move(fresh));
    }
  }
  // Names that match no retained file are ignored.
  if (std::erase_if(artifacts_, [&removed](const FileArtifact& artifact) {
        return std::ranges::find(removed, artifact.file_name) != removed.end();
      }) > 0) {
    edited = true;
  }

  if (!edited) {
    stats.patched = true;  // nothing to replay
    dirty_route_ids_.clear();
    return stats;
  }
  valid_ = Rebuild();
  stats.routes_changed = dirty_route_ids_.size();
  return stats;
}

}  // namespace incr
}  // namespace pathalias
