// churn_1986: live updates beside reads on the paper-scale map
// (MapGenConfig::Usenet1986, about 8.8k nodes across 40 site files).
//
// Set-up, repeated five times, does what `routedb update --init` does
// (MapBuilder::Build, ImageWriter::WriteFile, SaveStateDir), starts a
// net::Daemon with the site files as its reload sources, and runs the first
// reload, in which EnsureBuilder loads the saved state.
//
// The lock-step driver then sends 8 single-destination requests per turn.
// Every kTurnsPerEdit turns one seeded edit rewrites one site file: it adds a
// leaf host linked from a host that file declares, or removes a leaf added
// earlier.  The driver calls RequestReload(), so the next PollOnce runs
// ReloadFromSources (Update, Refreeze, SaveStateDir, reopen, AdoptRoutes), and
// probes the edited name until a reply shows its new outcome.  The edits do not
// steer toward the in-place patch path; incr.patched_frac reports what ran.
//
// References: every pool answer against the reference resolver over the
// initial compile (edits touch only the added leaves), each edit's visibility,
// and at the end the served image's sorted text against a from-scratch
// pathalias::Run over the final files.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "perfbench/src/lockstep.h"
#include "perfbench/src/workloads.h"
#include "src/core/pathalias.h"
#include "src/image/image_writer.h"
#include "src/incr/map_builder.h"
#include "src/incr/state_dir.h"
#include "src/mapgen/mapgen.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace incr = pathalias::incr;
using pathalias::InputFile;
using pathalias::RouteSet;

constexpr size_t kRequestsPerTurn = 8;
constexpr size_t kQueriesPerRequest = 1;
constexpr size_t kStreamLength = size_t{1} << 20;
constexpr uint64_t kTurnsPerEdit = 400;
constexpr uint64_t kVisibleWithinTurns = 50;
constexpr size_t kReplayedEdits = 40;
constexpr int kSetups = 5;

double ElapsedSeconds(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

bool WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

std::string ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

// Writes `files` (mapgen names) under `dir`, returning them renamed to their paths.
std::vector<InputFile> WriteSiteFiles(const std::vector<InputFile>& files,
                                      const std::string& dir) {
  fs::create_directories(dir);
  std::vector<InputFile> written;
  for (const InputFile& file : files) {
    std::string path = dir + "/" + fs::path(file.name).filename().string();
    WriteText(path, file.content);
    written.push_back({path, file.content});
  }
  return written;
}

// What `routedb update --init` does: build, publish the image, save the state.
bool InitImage(const std::vector<InputFile>& files, const std::string& local,
               const std::string& image_path) {
  incr::MapBuilderOptions options;
  options.local = local;
  incr::MapBuilder builder(options);
  if (!builder.Build(files) ||
      !pathalias::image::ImageWriter::WriteFile(builder.routes(), image_path, 1)) {
    return false;
  }
  incr::StateDirContents contents;
  contents.local = local;
  contents.image_generation = 1;
  contents.artifacts = builder.artifacts();
  return incr::SaveStateDir(image_path + ".state", contents);
}

std::string SortedText(const std::vector<InputFile>& files, const std::string& local) {
  pathalias::RunOptions options;
  options.local = local;
  pathalias::Diagnostics diag;
  pathalias::RunResult run = pathalias::Run(files, options, &diag);
  return RouteSet::FromText(run.output).ToSortedText(false);
}

struct Edit {
  size_t file = 0;
  std::string content;  // the file's full text after the edit
  std::string name;     // the leaf added or removed
  bool add = true;
};

// Seeded edits: add a leaf linked from a host the chosen file declares, or
// remove a leaf added earlier.  Hosts are taken only from plain link lines,
// and never from names that alias, net, private or keyword lines mention.
class EditGenerator {
 public:
  EditGenerator(const std::vector<InputFile>& files, const ReferenceRoutes& reference,
                uint64_t seed)
      : rng_(seed ^ 0x454449545345454bull), seed_tag_(seed % 1000) {
    std::unordered_set<std::string> excluded;
    for (const InputFile& file : files) {
      std::istringstream lines(file.content);
      std::string line;
      while (std::getline(lines, line)) {
        if (line.find_first_of("={}@") == std::string::npos && !line.empty() &&
            line[0] != '\t' && line[0] != ' ') {
          continue;
        }
        std::string token;
        for (char c : line + " ") {
          if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_' || c == '.') {
            token += c;
          } else if (!token.empty()) {
            excluded.insert(token);
            token.clear();
          }
        }
      }
    }
    for (const InputFile& file : files) {
      Site site;
      site.base = file.content;
      if (!site.base.empty() && site.base.back() != '\n') {
        site.base += '\n';
      }
      std::istringstream lines(file.content);
      std::string line;
      std::unordered_set<std::string> seen;
      while (std::getline(lines, line)) {
        size_t tab = line.find('\t');
        if (tab == std::string::npos || tab == 0 || line.find('\t', tab + 1) != std::string::npos) {
          continue;
        }
        std::string host = line.substr(0, tab);
        bool plain = std::all_of(host.begin(), host.end(), [](char c) {
          return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
        });
        if (plain && !excluded.count(host) && seen.insert(host).second &&
            reference.Resolve(host).status == kRefExact) {
          site.hosts.push_back(host);
        }
      }
      if (!site.hosts.empty()) {
        editable_.push_back(sites_.size());
      }
      sites_.push_back(std::move(site));
    }
  }

  bool usable() const { return !editable_.empty(); }

  Edit Next() {
    Edit edit;
    if (!added_.empty() && rng_.Below(2) == 0) {
      size_t pick = rng_.Below(added_.size());
      auto [site_index, name] = added_[pick];
      added_[pick] = added_.back();
      added_.pop_back();
      Site& site = sites_[site_index];
      site.lines.erase(std::find_if(site.lines.begin(), site.lines.end(),
                                    [&](const auto& entry) { return entry.first == name; }));
      edit.file = site_index;
      edit.name = name;
      edit.add = false;
    } else {
      size_t site_index = editable_[rng_.Below(editable_.size())];
      Site& site = sites_[site_index];
      const std::string& host = site.hosts[rng_.Below(site.hosts.size())];
      std::string name = "pbleaf" + std::to_string(seed_tag_) + "x" + std::to_string(next_leaf_++);
      site.lines.emplace_back(name, host + "\t" + name + "(DAILY)\n");
      added_.emplace_back(site_index, name);
      edit.file = site_index;
      edit.name = name;
      edit.add = true;
    }
    const Site& site = sites_[edit.file];
    edit.content = site.base;
    for (const auto& entry : site.lines) {
      edit.content += entry.second;
    }
    return edit;
  }

 private:
  struct Site {
    std::string base;
    std::vector<std::string> hosts;
    std::vector<std::pair<std::string, std::string>> lines;  // (leaf, appended line)
  };
  Rng rng_;
  uint64_t seed_tag_;
  uint64_t next_leaf_ = 0;
  std::vector<Site> sites_;
  std::vector<size_t> editable_;
  std::vector<std::pair<size_t, std::string>> added_;
};

struct ChurnPhase {
  LoopCounters counters;
  std::vector<double> update_ms;
  uint64_t edits = 0;
  uint64_t failed_edits = 0;
  int64_t quiet_poll_ns = 0;  // PollOnce time of turns that ran no reload
  uint64_t quiet_turns = 0;
  int64_t dissected_ns = 0;
  double wall_s = 0.0;
};

// Times the five reload stages on one replayed copy of the pipeline and a whole
// ReloadFromSources on another, edit by edit (traced runs only).
struct ReloadReplay {
  double read_ms = 0, update_ms = 0, refreeze_ms = 0, save_ms = 0, reopen_ms = 0,
         adopt_ms = 0, whole_ms = 0;
  size_t edits = 0, patched = 0, routes_changed = 0;
};

bool ReplayReloads(const std::vector<InputFile>& initial, const std::string& local,
                   const std::vector<Edit>& edits, const QueryPool& pool,
                   const exec::BatchEngineOptions& engine_options, const std::string& dir,
                   ReloadReplay* out, std::string* error) {
  // Copy A: a RolloverController, timed around ReloadFromSources.
  std::vector<InputFile> files_a = WriteSiteFiles(initial, dir + "/a");
  const std::string image_a = dir + "/a/routes.pari";
  if (!InitImage(files_a, local, image_a)) {
    *error = "replay A init failed";
    return false;
  }
  net::RolloverOptions rollover_options;
  rollover_options.image_path = image_a;
  rollover_options.engine = engine_options;
  for (const InputFile& file : files_a) {
    rollover_options.map_files.push_back(file.name);
  }
  net::RolloverController rollover(rollover_options);
  std::string detail;
  if (!rollover.Start(error) ||
      rollover.ReloadFromSources(&detail) != net::ReloadOutcome::kNoop) {
    *error = "replay A start: " + *error + detail;
    return false;
  }

  // Copy B: the same stages, called one by one.
  std::vector<InputFile> files_b = WriteSiteFiles(initial, dir + "/b");
  const std::string image_b = dir + "/b/routes.pari";
  if (!InitImage(files_b, local, image_b)) {
    *error = "replay B init failed";
    return false;
  }
  incr::MapBuilderOptions builder_options;
  builder_options.local = local;
  incr::MapBuilder builder(builder_options);
  builder.Build(files_b);
  auto opened = FrozenImage::Open(image_b, image::ImageView::Verify::kStructure, error, true);
  if (!opened.has_value()) {
    return false;
  }
  auto image = std::make_unique<FrozenImage>(std::move(*opened));
  exec::FrozenBatchEngine engine(&image->routes(), engine_options);
  uint64_t generation = 1;

  // Both engines start with a cache as warm as the daemon's.
  std::vector<std::string_view> warm;
  for (size_t i = 0; i < std::min<size_t>(pool.stream.size(), 65536); ++i) {
    warm.push_back(pool.names[pool.stream[i]]);
  }
  std::vector<BatchLookup> results(warm.size());
  engine.ResolveBatch(warm, results);
  rollover.engine()->ResolveBatch(warm, results);

  auto ms_since = [](int64_t start) { return static_cast<double>(NowNs() - start) / 1e6; };
  for (const Edit& edit : edits) {
    WriteText(files_a[edit.file].name, edit.content);
    int64_t start = NowNs();
    if (rollover.ReloadFromSources(&detail) != net::ReloadOutcome::kApplied) {
      *error = "replay A reload: " + detail;
      return false;
    }
    out->whole_ms += ms_since(start);
    rollover.RetireDrained();

    WriteText(files_b[edit.file].name, edit.content);
    start = NowNs();
    std::vector<InputFile> current;
    for (const InputFile& file : files_b) {
      current.push_back({file.name, ReadText(file.name)});
    }
    out->read_ms += ms_since(start);
    start = NowNs();
    incr::UpdateStats stats = builder.Update(current);
    out->update_ms += ms_since(start);
    start = NowNs();
    if (!pathalias::image::ImageWriter::Refreeze(builder.routes(), image_b, ++generation,
                                                 error)) {
      return false;
    }
    out->refreeze_ms += ms_since(start);
    start = NowNs();
    incr::StateDirContents contents;
    contents.local = local;
    contents.image_generation = generation;
    contents.artifacts = builder.artifacts();
    if (!incr::SaveStateDir(image_b + ".state", contents)) {
      *error = "replay B save failed";
      return false;
    }
    out->save_ms += ms_since(start);
    start = NowNs();
    auto fresh = FrozenImage::Open(image_b, image::ImageView::Verify::kStructure, error, true);
    if (!fresh.has_value()) {
      return false;
    }
    auto fresh_image = std::make_unique<FrozenImage>(std::move(*fresh));
    out->reopen_ms += ms_since(start);
    start = NowNs();
    engine.AdoptRoutes(&fresh_image->routes(), builder.dirty_route_ids());
    out->adopt_ms += ms_since(start);
    image = std::move(fresh_image);
    ++out->edits;
    out->patched += stats.patched ? 1 : 0;
    out->routes_changed += stats.routes_changed;
  }
  return true;
}

}  // namespace

WorkloadResult RunChurn(const RunConfig& config) {
  WorkloadResult result;
  pathalias::MapGenConfig generator = pathalias::MapGenConfig::Usenet1986();
  generator.seed = config.seed;
  pathalias::GeneratedMap map = pathalias::GenerateUsenetMap(generator);
  const std::string local = map.local;
  const std::vector<InputFile> files = WriteSiteFiles(map.files, config.work_dir + "/maps");
  pathalias::RunOptions run_options;
  run_options.local = local;
  pathalias::Diagnostics diag;
  ReferenceRoutes reference(pathalias::Run(files, run_options, &diag).output);
  const QueryPool pool = BuildQueryPool(reference, config.seed, kStreamLength);
  EditGenerator edit_generator(files, reference, config.seed);
  if (!edit_generator.usable() || pool.names.empty()) {
    result.error = "the generated map offers no editable host";
    return result;
  }

  const std::string image_path = config.work_dir + "/routes.pari";
  net::DaemonOptions options;
  options.rollover.image_path = image_path;
  for (const InputFile& file : files) {
    options.rollover.map_files.push_back(file.name);
  }
  options.rollover.engine.threads = 1;
  options.rollover.engine.cache_entries = 4096;
  options.unix_path = config.work_dir + "/d.sock";
  options.watch_interval_ms = 0;

  // Set-up: init, start, first reload.
  std::vector<double> setup_seconds;
  std::unique_ptr<net::Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    daemon.reset();
    std::error_code ec;
    fs::remove(image_path, ec);
    fs::remove_all(image_path + ".state", ec);
    int64_t start = NowNs();
    std::string error;
    daemon = std::make_unique<net::Daemon>(options);
    if (!InitImage(files, local, image_path) || !daemon->Start(&error)) {
      result.error = "set-up failed: " + error;
      return result;
    }
    daemon->RequestReload();
    daemon->PollOnce(0);
    setup_seconds.push_back(ElapsedSeconds(start));
    if (daemon->stats().reloads_noop != 1) {
      result.error = "the first reload did not load the saved state";
      return result;
    }
  }

  Tracer off(false);
  Tracer on(true);
  LockstepDriver driver(daemon.get(), &pool, kRequestsPerTurn, kQueriesPerRequest, &off);
  std::string error;
  if (!driver.Open(config.work_dir + "/c.sock", &error)) {
    result.error = "client socket: " + error;
    return result;
  }
  LoopCounters unrecorded;
  for (int64_t start = NowNs(); ElapsedSeconds(start) < 0.3;) {
    driver.Turn(&unrecorded, /*record=*/false);
  }
  if (config.plant_wrong) {
    driver.PlantWrongAnswer();
  }

  std::vector<Edit> edits;
  std::unique_ptr<ShadowTurn> shadow;
  auto run_phase = [&](ChurnPhase* phase, double budget) {
    uint64_t since_edit = 0;
    std::optional<Probe> probe;
    int64_t written_ns = 0;
    uint64_t pending_turns = 0;
    uint64_t generation = daemon->rollover().generation();
    int64_t start = NowNs();
    while (ElapsedSeconds(start) < budget || probe.has_value()) {
      if (!probe.has_value() && since_edit >= kTurnsPerEdit) {
        Edit edit = edit_generator.Next();
        written_ns = NowNs();
        WriteText(files[edit.file].name, edit.content);
        daemon->RequestReload();
        probe = Probe{edit.name, edit.add};
        pending_turns = 0;
        since_edit = 0;
        ++phase->edits;
        edits.push_back(std::move(edit));
      }
      const uint64_t reloads = daemon->stats().reloads_attempted;
      ProbeReply reply;
      driver.Turn(&phase->counters, /*record=*/true, probe ? &*probe : nullptr, &reply);
      if (daemon->stats().reloads_attempted == reloads) {
        phase->quiet_poll_ns += driver.last_poll_ns();
        ++phase->quiet_turns;
      }
      if (shadow != nullptr) {
        if (daemon->rollover().generation() != generation) {
          generation = daemon->rollover().generation();
          std::string refresh_error;
          shadow->Refresh(&refresh_error);
        }
        phase->dissected_ns += shadow->Turn();
      }
      ++since_edit;
      if (probe.has_value()) {
        ++pending_turns;
        if (reply.visible) {
          phase->update_ms.push_back(static_cast<double>(reply.done_ns - written_ns) / 1e6);
          probe.reset();
        } else if (pending_turns >= kVisibleWithinTurns) {
          ++phase->failed_edits;
          probe.reset();
        }
      }
    }
    phase->wall_s = ElapsedSeconds(start);
  };

  ChurnPhase untraced;
  run_phase(&untraced, config.trace ? config.seconds / 2 : config.seconds);
  ChurnPhase traced;
  if (config.trace) {
    shadow = std::make_unique<ShadowTurn>(&pool, kRequestsPerTurn, kQueriesPerRequest, &off);
    if (!shadow->Open(image_path, options.rollover.engine, config.work_dir, &error)) {
      result.error = "shadow turn: " + error;
      return result;
    }
    for (int64_t warm = NowNs(); ElapsedSeconds(warm) < 0.3;) {
      shadow->Turn();
    }
    shadow->set_tracer(&on);
    driver.set_tracer(&on);
    const int64_t resolve_before = shadow->resolve_ns();
    run_phase(&traced, config.seconds / 2);
    driver.set_tracer(&off);
    ReportServingLayers(&result, on, untraced.counters, *daemon,
                        shadow->resolve_ns() - resolve_before, traced.dissected_ns,
                        traced.quiet_poll_ns, traced.quiet_turns, kRequestsPerTurn);
  }
  const double peak_rss = PeakRssMib();

  // Final check: the served image against a from-scratch run over the final files.
  std::vector<InputFile> final_files;
  for (const InputFile& file : files) {
    final_files.push_back({file.name, ReadText(file.name)});
  }
  const pathalias::FrozenRouteSet* served = daemon->rollover().routes();
  RouteSet served_set;
  for (uint32_t i = 0; i < served->size(); ++i) {
    pathalias::RouteView route = served->RouteAt(i);
    served_set.Add(served->NameOf(route), route.route, route.cost);
  }
  const bool final_matches = served_set.ToSortedText(false) == SortedText(final_files, local);

  result.attempted = unrecorded.queries + untraced.counters.queries + traced.counters.queries +
                     untraced.edits + traced.edits + 1;
  result.failed = unrecorded.failed + untraced.counters.failed + traced.counters.failed +
                  untraced.failed_edits + traced.failed_edits + (final_matches ? 0 : 1);

  const LoopCounters& counters = untraced.counters;
  const double qps = counters.windows.MedianRate();
  const LatencyHistogram& latency = counters.latency;
  std::vector<double> update = untraced.update_ms;
  const double latency_p50 = latency.QuantileMs(0.50);
  const double latency_p99 = latency.QuantileMs(0.99);
  const double update_p50 = Quantile(update, 0.50);
  const double update_p95 = Quantile(update, 0.95);
  const double setup_s = Median(setup_seconds);
  result.end_to_end.Set("op_p50_ms", update_p50, "ms");
  result.end_to_end.Set("throughput", qps, "items/s");
  result.end_to_end.Set("peak_rss_mib", peak_rss, "MiB");
  result.end_to_end.Set("setup_s", setup_s, "s");
  result.named.Set("serve_qps", qps, "queries/s");
  result.named.Set("latency_p50_ms", latency_p50, "ms");
  if (TailReportable(latency.count(), 0.99)) {
    result.named.Set("latency_p99_ms", latency_p99, "ms");
  }
  result.named.Set("update_p50_ms", update_p50, "ms");
  if (TailReportable(update.size(), 0.95)) {
    result.named.Set("update_p95_ms", update_p95, "ms");
  }
  result.named.Set("setup_s", setup_s, "s");
  result.named.Set("peak_rss_mib", peak_rss, "MiB");
  result.named.Set("fail_rate",
                   static_cast<double>(result.failed) / static_cast<double>(result.attempted),
                   "ratio");

  AddFact(&result, "latency_samples", std::to_string(latency.count()) + " requests in " +
                                          std::to_string(counters.turns) + " turns");
  AddFact(&result, "throughput_windows",
          std::to_string(counters.windows.windows()) + " x 0.5 s, median taken; " +
              std::to_string(untraced.wall_s) + " s timed");
  AddFact(&result, "update_samples", std::to_string(update.size()) + " edits (" +
                                         std::to_string(untraced.failed_edits) +
                                         " never visible)");
  AddFact(&result, "turn_shape", std::to_string(kRequestsPerTurn) +
                                     " single-destination requests; one edit per " +
                                     std::to_string(kTurnsPerEdit) + " turns");
  AddFact(&result, "map", std::to_string(files.size()) + " files, " +
                              std::to_string(reference.keys().size()) + " routes");
  AddFact(&result, "query_pool", std::to_string(pool.names.size()) + " names (" +
                                     std::to_string(pool.exact) + " exact, " +
                                     std::to_string(pool.suffix) + " suffix, " +
                                     std::to_string(pool.miss) + " miss)");
  AddFact(&result, "final_check", final_matches ? "served image matches a from-scratch run"
                                                : "served image DIFFERS from a from-scratch run");
  AddFact(&result, "setup_samples", std::to_string(setup_seconds.size()));

  if (config.trace) {
    std::vector<Edit> replayed(edits.begin(),
                               edits.begin() + std::min(edits.size(), kReplayedEdits));
    ReloadReplay replay;
    if (!ReplayReloads(map.files, local, replayed, pool, options.rollover.engine,
                       config.work_dir + "/replay", &replay, &error)) {
      result.error = "reload replay: " + error;
      return result;
    }
    const double n = static_cast<double>(std::max<size_t>(replay.edits, 1));
    MetricList& layers = result.layers;
    layers.Set("incr.read_sources_ms", replay.read_ms / n, "ms");
    layers.Set("incr.update_ms", replay.update_ms / n, "ms");
    layers.Set("image.refreeze_ms", replay.refreeze_ms / n, "ms");
    layers.Set("incr.save_state_ms", replay.save_ms / n, "ms");
    layers.Set("image.reopen_ms", replay.reopen_ms / n, "ms");
    layers.Set("exec.adopt_ms", replay.adopt_ms / n, "ms");
    layers.Set("incr.patched_frac", static_cast<double>(replay.patched) / n, "ratio");
    layers.Set("incr.routes_changed", static_cast<double>(replay.routes_changed) / n, "count");
    const double parts = replay.read_ms + replay.update_ms + replay.refreeze_ms +
                         replay.save_ms + replay.reopen_ms + replay.adopt_ms;
    layers.Set("trace.parts_frac",
               ReportAddUp(&result,
                           "reload stages (read, Update, Refreeze, SaveStateDir, reopen, "
                           "AdoptRoutes) vs ReloadFromSources, " +
                               std::to_string(replay.edits) + " replayed edits",
                           parts / n, replay.whole_ms / n, 0.20),
               "ratio");
    const LoopCounters& loop = traced.counters;
    const uint64_t reload_turns = loop.turns - traced.quiet_turns;
    if (reload_turns > 0 && traced.quiet_turns > 0) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "in-loop reload turns: %.3f ms PollOnce each (%llu turns), quiet turns "
                    "%.1f us",
                    static_cast<double>(loop.poll_ns - traced.quiet_poll_ns) / 1e6 /
                        static_cast<double>(reload_turns),
                    static_cast<unsigned long long>(reload_turns),
                    static_cast<double>(traced.quiet_poll_ns) / 1e3 /
                        static_cast<double>(traced.quiet_turns));
      result.report.push_back(line);
    }
    std::vector<double> traced_update = traced.update_ms;
    layers.Set("trace.overhead_frac",
               ReportOverhead(&result, "update_p50_ms (op_p50_ms)", update_p50,
                              Quantile(traced_update, 0.5), false),
               "ratio");
    ReportOverhead(&result, "serve_qps (throughput)", qps, loop.windows.MedianRate(), true);
    ReportOverhead(&result, "latency_p50_ms", latency_p50, loop.latency.QuantileMs(0.5), false);
    ReportSpans(&result, on, config);
  }
  return result;
}

}  // namespace perfbench
