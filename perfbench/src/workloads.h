// The three perfbench workloads.  Each runs in its own process, generates its
// inputs with mapgen at the given seed, measures for the given number of
// seconds, checks every output against a reference, and fills a WorkloadResult.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/common.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool plant_wrong = false;    // self-test: plant one wrong reference answer
  std::string work_dir;        // scratch directory inside the checkout, removed at exit
  std::string digests_path;    // compile_1m's recorded output digests
};

struct WorkloadResult {
  std::string error;  // set when the run could not complete
  uint64_t attempted = 0;
  uint64_t failed = 0;
  MetricList end_to_end;  // the gated metrics, by the names BENCHMARK.json lists
  MetricList named;       // the same measurements by their workload-specific names
  MetricList layers;      // per-layer metrics (traced runs)
  std::vector<std::pair<std::string, std::string>> facts;  // environment, sample counts
  std::vector<std::string> report;  // human-readable lines (add-up checks, overheads)
};

WorkloadResult RunCompile(const RunConfig& config);
WorkloadResult RunServe(const RunConfig& config);
WorkloadResult RunChurn(const RunConfig& config);

// Reports one traced-vs-untraced pair and returns the gap as a share of the
// untraced value, signed so that positive means tracing made the number worse.
double ReportOverhead(WorkloadResult* result, const std::string& metric, double untraced,
                      double traced, bool higher_is_better);

// Reports a parts-against-whole check with its tolerance; returns parts / whole.
double ReportAddUp(WorkloadResult* result, const std::string& what, double parts,
                   double whole, double tolerance);

// Writes the tracer's raw spans to .bench_run/<workload>-seed<N>.spans.jsonl and
// adds each span name's call count, total and self time to the report.
void ReportSpans(WorkloadResult* result, const Tracer& tracer, const RunConfig& config);

// Adds a fact line ("name", "value").
void AddFact(WorkloadResult* result, const std::string& name, const std::string& value);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
