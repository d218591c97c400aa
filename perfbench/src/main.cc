// perfbench: runs one workload at one seed and prints its metrics.
//
//   perfbench --workload compile_1m|serve_1m|churn_1986 --seed N --seconds S
//             --trace 0|1 [--plant-wrong] [--digests FILE]
//
// Output: a human-readable report, one `detail {...}` JSON line with every
// measurement by its workload-specific name plus the environment, and as the
// last line the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end set (--trace 0) or the per-layer set
// (--trace 1), named as BENCHMARK.json names them.  Run it through
// perfbench/run.py, which builds it first.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "perfbench/src/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

// ---- helpers declared in workloads.h -----------------------------------------------

void AddFact(WorkloadResult* result, const std::string& name, const std::string& value) {
  result->facts.emplace_back(name, value);
}

double ReportOverhead(WorkloadResult* result, const std::string& metric, double untraced,
                      double traced, bool higher_is_better) {
  double gap = untraced == 0.0 ? 0.0
                               : (higher_is_better ? untraced - traced : traced - untraced) /
                                     untraced;
  char line[200];
  std::snprintf(line, sizeof(line), "tracing overhead on %s: untraced %.6g, traced %.6g, %+.1f%%",
                metric.c_str(), untraced, traced, gap * 100.0);
  result->report.push_back(line);
  return gap;
}

double ReportAddUp(WorkloadResult* result, const std::string& what, double parts, double whole,
                   double tolerance) {
  double share = whole == 0.0 ? 0.0 : parts / whole;
  bool within = share >= 1.0 - tolerance && share <= 1.0 + tolerance;
  char line[320];
  std::snprintf(line, sizeof(line), "add-up: %s: parts %.6g / whole %.6g = %.3f (tolerance +-%.0f%%: %s)",
                what.c_str(), parts, whole, share, tolerance * 100.0, within ? "ok" : "OUTSIDE");
  result->report.push_back(line);
  return share;
}

void ReportSpans(WorkloadResult* result, const Tracer& tracer, const RunConfig& config) {
  const std::string path = ".bench_run/" + config.workload + "-seed" +
                           std::to_string(config.seed) + ".spans.jsonl";
  result->report.push_back((tracer.Write(path) ? "spans written to " : "cannot write ") + path);
  for (const Tracer::Totals& totals : tracer.totals()) {
    char line[200];
    std::snprintf(line, sizeof(line), "span %-36s %9llu calls, total %10.3f ms, self %10.3f ms",
                  totals.name, static_cast<unsigned long long>(totals.count),
                  totals.total_ns / 1e6, totals.self_ns / 1e6);
    result->report.push_back(line);
  }
}

namespace {

// The per-layer metrics every traced run prints, in BENCHMARK.json's order; a
// layer a workload does not exercise reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"parser.parse_s", "s"},
    {"graph.nodes", "count"},
    {"graph.links", "count"},
    {"graph.arena_mib", "MiB"},
    {"core.map_s", "s"},
    {"core.heap_pushes", "count"},
    {"core.relaxations", "count"},
    {"core.invented_links", "count"},
    {"core.emit_s", "s"},
    {"core.render_s", "s"},
    {"route_db.load_s", "s"},
    {"route_db.resolved_frac", "ratio"},
    {"route_db.suffix_frac", "ratio"},
    {"image.freeze_s", "s"},
    {"image.bytes", "bytes"},
    {"image.open_ms", "ms"},
    {"image.warm_minor_faults", "count"},
    {"image.refreeze_ms", "ms"},
    {"image.reopen_ms", "ms"},
    {"exec.resolve_us_per_turn", "us"},
    {"exec.cache_hit_rate", "ratio"},
    {"exec.adopt_ms", "ms"},
    {"net.turn_us", "us"},
    {"net.queries_per_batch", "count"},
    {"net.recv_ns", "ns"},
    {"net.decode_ns", "ns"},
    {"net.coalesce_ns", "ns"},
    {"net.encode_ns", "ns"},
    {"net.replay_put_ns", "ns"},
    {"net.send_ns", "ns"},
    {"net.send_drops", "count"},
    {"net.overload_replies", "count"},
    {"net.truncated_replies", "count"},
    {"net.bad_datagrams", "count"},
    {"net.reload_errors", "count"},
    {"driver.overhead_us", "us"},
    {"incr.read_sources_ms", "ms"},
    {"incr.update_ms", "ms"},
    {"incr.patched_frac", "ratio"},
    {"incr.routes_changed", "count"},
    {"incr.save_state_ms", "ms"},
    {"trace.parts_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload compile_1m|serve_1m|churn_1986 --seed N "
               "--seconds S --trace 0|1 [--plant-wrong] [--digests FILE]\n");
  return 2;
}

std::string Json(const std::vector<std::pair<std::string, std::string>>& facts) {
  std::string out = "{";
  for (const auto& [name, value] : facts) {
    if (out.size() > 1) {
      out += ", ";
    }
    out += JsonString(name) + ": " + JsonString(value);
  }
  return out + "}";
}

}  // namespace

int Main(int argc, char** argv) {
  RunConfig config;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--plant-wrong") {
      config.plant_wrong = true;
    } else if ((v = value()) == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      config.workload = v;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(v);
    } else if (arg == "--digests") {
      config.digests_path = v;
    } else {
      return Usage();
    }
  }
  WorkloadResult (*run)(const RunConfig&) = nullptr;
  if (config.workload == "compile_1m") {
    run = RunCompile;
  } else if (config.workload == "serve_1m") {
    run = RunServe;
  } else if (config.workload == "churn_1986") {
    run = RunChurn;
  }
  if (run == nullptr || (trace != 0 && trace != 1) || !(config.seconds > 0.0)) {
    return Usage();
  }
  config.trace = trace == 1;
  config.work_dir = ".bench_run/" + config.workload + "-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", config.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const std::string work_fs = FilesystemType(config.work_dir);
  const int cpu = PinToOneCpu();

  WorkloadResult result = run(config);
  std::filesystem::remove_all(config.work_dir, ec);
  if (!result.error.empty()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", config.workload.c_str(), result.error.c_str());
    return 1;
  }

  std::vector<std::pair<std::string, std::string>> environment = {
      {"workload", config.workload},
      {"seed", std::to_string(config.seed)},
      {"seconds", std::to_string(config.seconds)},
      {"trace", config.trace ? "1" : "0"},
      {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
      {"cpu_model", CpuModel()},
      {"pinned_cpu", std::to_string(cpu)},
      {"max_dgram_qlen", ReadFirstLine("/proc/sys/net/unix/max_dgram_qlen")},
      {"work_dir", config.work_dir + " (" + work_fs + ")"},
      {"build_type", PERFBENCH_BUILD_TYPE},
  };
  environment.insert(environment.end(), result.facts.begin(), result.facts.end());

  std::printf("perfbench %s seed=%llu\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed));
  for (const auto& [name, value] : environment) {
    std::printf("  %-18s %s\n", name.c_str(), value.c_str());
  }
  for (const Metric& metric : result.named.items()) {
    std::printf("  %-18s %.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const std::string& line : result.report) {
    std::printf("  %s\n", line.c_str());
  }
  MetricList layers;
  for (const LayerMetric& layer : kLayerMetrics) {
    layers.Set(layer.name, result.layers.Get(layer.name).value_or(0.0), layer.unit);
  }
  if (config.trace) {
    for (const Metric& metric : layers.items()) {
      std::printf("  %-26s %.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
    }
  }
  std::printf("detail {\"environment\": %s, \"named\": %s, \"end_to_end\": %s%s}\n",
              Json(environment).c_str(), MetricsJson(result.named).c_str(),
              MetricsJson(result.end_to_end).c_str(),
              config.trace ? (", \"per_layer\": " + MetricsJson(layers)).c_str() : "");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              MetricsJson(config.trace ? layers : result.end_to_end).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
