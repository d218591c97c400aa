// serve_1m: an in-process net::Daemon, configured as routedbd's defaults (one
// engine thread, a 4096-entry result cache, a unix-domain socket, image watch
// off), serves the image compiled from the usenet-scale 1M-host map.  The image
// and the query pool are a fixture, built in a child process before set-up so
// that neither the build's time nor its memory lands in this process's numbers.
//
// Set-up, repeated five times: Daemon::Start plus one warm pass over the
// query pool.  Then the lock-step driver sends 8 requests of 32 destinations
// per turn, a seeded Zipf draw over the routed names.

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <memory>

#include "perfbench/src/lockstep.h"
#include "perfbench/src/workloads.h"
#include "src/core/pathalias.h"
#include "src/image/image_writer.h"
#include "src/mapgen/mapgen.h"

namespace perfbench {

namespace {

constexpr size_t kRequestsPerTurn = 8;  // under net.unix.max_dgram_qlen (10 on stock kernels)
constexpr size_t kQueriesPerRequest = 32;
constexpr size_t kStreamLength = size_t{1} << 21;
constexpr int kSetups = 5;

bool BuildFixture(uint64_t seed, const std::string& image_path, const std::string& pool_path) {
  pathalias::MapGenConfig generator = pathalias::MapGenConfig::UsenetScale(1000000);
  generator.seed = seed;
  std::string output;
  {
    pathalias::GeneratedMap map = pathalias::GenerateUsenetMap(generator);
    pathalias::RunOptions options;
    options.local = map.local;
    pathalias::Diagnostics diag;
    pathalias::RunResult run = pathalias::Run(map.files, options, &diag);
    pathalias::RouteSet routes = pathalias::RouteSet::FromText(run.output);
    std::string error;
    if (!pathalias::image::ImageWriter::WriteFile(routes, image_path, 0, &error)) {
      std::fprintf(stderr, "perfbench: cannot write %s: %s\n", image_path.c_str(), error.c_str());
      return false;
    }
    output = std::move(run.output);
  }
  ReferenceRoutes reference(std::move(output));
  return SavePool(BuildQueryPool(reference, seed, kStreamLength), pool_path);
}

// Runs BuildFixture in a child process and waits for it.
bool BuildFixtureInChild(uint64_t seed, const std::string& image_path,
                         const std::string& pool_path) {
  std::fflush(nullptr);
  pid_t child = ::fork();
  if (child < 0) {
    return false;
  }
  if (child == 0) {
    ::_exit(BuildFixture(seed, image_path, pool_path) ? 0 : 1);
  }
  int status = 0;
  while (::waitpid(child, &status, 0) < 0) {
    if (errno != EINTR) {
      return false;
    }
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

double ElapsedSeconds(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

}  // namespace

WorkloadResult RunServe(const RunConfig& config) {
  WorkloadResult result;
  const std::string image_path = config.work_dir + "/routes.pari";
  const std::string pool_path = config.work_dir + "/pool.bin";
  if (!BuildFixtureInChild(config.seed, image_path, pool_path)) {
    result.error = "fixture build failed";
    return result;
  }
  std::optional<QueryPool> loaded = LoadPool(pool_path);
  if (!loaded.has_value() || loaded->names.empty()) {
    result.error = "cannot load the query pool fixture";
    return result;
  }
  const QueryPool& pool = *loaded;

  net::DaemonOptions options;
  options.rollover.image_path = image_path;
  options.rollover.engine.threads = 1;
  options.rollover.engine.cache_entries = 4096;
  options.unix_path = config.work_dir + "/d.sock";
  options.watch_interval_ms = 0;

  Tracer off(false);
  Tracer on(true);
  std::vector<double> setup_seconds;
  std::vector<double> warm_faults;
  std::unique_ptr<net::Daemon> daemon;
  std::unique_ptr<LockstepDriver> driver;
  LoopCounters unrecorded;  // set-up and warm-up turns: checked, not timed
  for (int i = 0; i < kSetups; ++i) {
    driver.reset();
    daemon = std::make_unique<net::Daemon>(options);
    driver = std::make_unique<LockstepDriver>(daemon.get(), &pool, kRequestsPerTurn,
                                              kQueriesPerRequest, &off);
    std::string error;
    // The image is opened with readahead, so its pages fault in during Start,
    // not the warm pass: the fault count covers the whole set-up.
    int64_t start = NowNs();
    int64_t faults = MinorFaults();
    if (!daemon->Start(&error) || !driver->Open(config.work_dir + "/c.sock", &error)) {
      result.error = "daemon start: " + error;
      return result;
    }
    driver->WarmPass(&unrecorded);
    warm_faults.push_back(static_cast<double>(MinorFaults() - faults));
    setup_seconds.push_back(ElapsedSeconds(start));
  }
  if (config.plant_wrong) {
    driver->PlantWrongAnswer();
  }
  for (int64_t start = NowNs(); ElapsedSeconds(start) < 0.5;) {
    driver->Turn(&unrecorded, /*record=*/false);
  }

  // The timed loop.  A traced run spends its first half untraced and its second
  // half traced, with a shadow turn dissecting each daemon turn.
  LoopCounters untraced;
  const double untraced_budget = config.trace ? config.seconds / 2 : config.seconds;
  int64_t start = NowNs();
  while (ElapsedSeconds(start) < untraced_budget) {
    driver->Turn(&untraced, /*record=*/true);
  }
  const double untraced_wall = ElapsedSeconds(start);

  LoopCounters traced;
  int64_t dissected_ns = 0;
  std::unique_ptr<ShadowTurn> shadow;
  if (config.trace) {
    shadow = std::make_unique<ShadowTurn>(&pool, kRequestsPerTurn, kQueriesPerRequest, &off);
    std::string error;
    if (!shadow->Open(image_path, options.rollover.engine, config.work_dir, &error)) {
      result.error = "shadow turn: " + error;
      return result;
    }
    for (int64_t warm = NowNs(); ElapsedSeconds(warm) < 0.5;) {
      shadow->Turn();
    }
    shadow->set_tracer(&on);
    driver->set_tracer(&on);
    const int64_t resolve_before = shadow->resolve_ns();
    start = NowNs();
    while (ElapsedSeconds(start) < config.seconds / 2) {
      driver->Turn(&traced, /*record=*/true);
      dissected_ns += shadow->Turn();
    }
    driver->set_tracer(&off);
    ReportServingLayers(&result, on, untraced, *daemon, shadow->resolve_ns() - resolve_before,
                        dissected_ns, traced.poll_ns, traced.turns, kRequestsPerTurn);
  }
  const double peak_rss = PeakRssMib();

  result.attempted = unrecorded.queries + untraced.queries + traced.queries;
  result.failed = unrecorded.failed + untraced.failed + traced.failed;
  const double qps = untraced.windows.MedianRate();
  const double p50 = untraced.latency.QuantileMs(0.50);
  const double p99 = untraced.latency.QuantileMs(0.99);
  const double setup_s = Median(setup_seconds);
  result.end_to_end.Set("op_p50_ms", p50, "ms");
  result.end_to_end.Set("throughput", qps, "items/s");
  result.end_to_end.Set("peak_rss_mib", peak_rss, "MiB");
  result.end_to_end.Set("setup_s", setup_s, "s");
  result.named.Set("serve_qps", qps, "queries/s");
  result.named.Set("latency_p50_ms", p50, "ms");
  if (TailReportable(untraced.latency.count(), 0.99)) {
    result.named.Set("latency_p99_ms", p99, "ms");
  }
  result.named.Set("setup_s", setup_s, "s");
  result.named.Set("peak_rss_mib", peak_rss, "MiB");
  result.named.Set("fail_rate",
                   static_cast<double>(result.failed) / static_cast<double>(result.attempted),
                   "ratio");

  AddFact(&result, "latency_samples", std::to_string(untraced.latency.count()) + " requests in " +
                                          std::to_string(untraced.turns) + " turns");
  AddFact(&result, "throughput_windows",
          std::to_string(untraced.windows.windows()) + " x 0.5 s, median taken; " +
              std::to_string(untraced_wall) + " s timed");
  AddFact(&result, "turn_shape", std::to_string(kRequestsPerTurn) + " requests x " +
                                     std::to_string(kQueriesPerRequest) + " destinations");
  AddFact(&result, "query_pool", std::to_string(pool.names.size()) + " names (" +
                                     std::to_string(pool.exact) + " exact, " +
                                     std::to_string(pool.suffix) + " suffix, " +
                                     std::to_string(pool.miss) + " miss), stream " +
                                     std::to_string(pool.stream.size()));
  AddFact(&result, "image", std::to_string(daemon->rollover().routes()->size()) + " routes");
  AddFact(&result, "setup_samples", std::to_string(setup_seconds.size()));

  if (config.trace) {
    std::vector<double> opens;
    for (int i = 0; i < kSetups; ++i) {
      int64_t open_start = NowNs();
      auto image = FrozenImage::Open(image_path, image::ImageView::Verify::kStructure, nullptr,
                                     /*readahead=*/true);
      opens.push_back(static_cast<double>(NowNs() - open_start) / 1e6);
    }
    result.layers.Set("image.open_ms", Median(opens), "ms");
    result.layers.Set("image.warm_minor_faults", Median(warm_faults), "count");
    result.layers.Set("trace.overhead_frac",
                      ReportOverhead(&result, "latency_p50_ms (op_p50_ms)", p50,
                                     traced.latency.QuantileMs(0.5), false),
                      "ratio");
    ReportOverhead(&result, "serve_qps (throughput)", qps, traced.windows.MedianRate(), true);
    ReportSpans(&result, on, config);
  }
  driver.reset();
  daemon.reset();
  return result;
}

}  // namespace perfbench
