// compile_1m: one op compiles the usenet-scale 1M-host map to an image on the
// default serial path — pathalias::Run, RouteSet::FromText over its output,
// ImageWriter::Freeze — which is `pathalias | routedb freeze` without the file
// I/O.  Teardown of the op's objects is not timed.
//
// Reference: a digest of RouteSet::ToSortedText.  Seeds listed in the digests
// file are checked against the recorded digest; any other seed is checked
// against the output of the domain-sharded mapper, which the repo holds
// byte-identical to the serial one.

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "perfbench/src/workloads.h"
#include "src/core/pathalias.h"
#include "src/image/image_writer.h"
#include "src/mapgen/mapgen.h"
#include "src/route_db/route_db.h"

namespace perfbench {

namespace {

using pathalias::Diagnostics;
using pathalias::InputFile;
using pathalias::RouteSet;
using pathalias::RunOptions;

struct CompileSample {
  double seconds = 0.0;
  uint64_t digest = 0;
  size_t nodes = 0;
  size_t links = 0;
  size_t routes = 0;
  size_t image_bytes = 0;
  double arena_mib = 0.0;
  size_t heap_pushes = 0;
  size_t relaxations = 0;
  size_t invented_links = 0;
};

CompileSample Compile(const std::vector<InputFile>& files, const RunOptions& options) {
  CompileSample sample;
  Diagnostics diag;
  int64_t start = NowNs();
  pathalias::RunResult run = pathalias::Run(files, options, &diag);
  RouteSet routes = RouteSet::FromText(run.output);
  std::string image = pathalias::image::ImageWriter::Freeze(routes);
  sample.seconds = static_cast<double>(NowNs() - start) / 1e9;
  sample.digest = Fnv1a64(routes.ToSortedText(/*include_costs=*/false));
  sample.nodes = run.graph->node_count();
  sample.links = run.graph->link_count();
  sample.routes = routes.size();
  sample.image_bytes = image.size();
  return sample;
}

// The same op, stage by stage under spans: what pathalias::Run does, in order.
CompileSample CompileTraced(const std::vector<InputFile>& files, const RunOptions& options,
                            Tracer& tracer) {
  CompileSample sample;
  Diagnostics diag;
  std::unique_ptr<pathalias::Graph> graph;
  pathalias::Mapper::Result map;
  std::vector<pathalias::RouteEntry> entries;
  std::string output;
  RouteSet routes;
  std::string image;
  int64_t start = NowNs();
  {
    Tracer::Span op(tracer, "compile");
    graph = std::make_unique<pathalias::Graph>(&diag, options.graph);
    pathalias::Parser parser(graph.get());
    {
      Tracer::Span span(tracer, "parser.Parser.ParseFiles");
      parser.ParseFiles(files);
    }
    graph->SetLocal(options.local);
    {
      Tracer::Span span(tracer, "core.Mapper.Run");
      pathalias::Mapper mapper(graph.get(), options.map);
      map = mapper.Run();
    }
    for (const pathalias::Node* unreachable : map.unreachable) {
      diag.Warn(pathalias::SourcePos{},
                std::string(graph->NameOf(unreachable)) + " is unreachable");
    }
    {
      Tracer::Span span(tracer, "core.RoutePrinter.Build");
      pathalias::RoutePrinter printer(map, options.print);
      entries = printer.Build();
    }
    {
      Tracer::Span span(tracer, "core.RoutePrinter.Render");
      output = pathalias::RoutePrinter::Render(entries, options.print);
    }
    {
      Tracer::Span span(tracer, "route_db.RouteSet.FromText");
      routes = RouteSet::FromText(output);
    }
    {
      Tracer::Span span(tracer, "image.ImageWriter.Freeze");
      image = pathalias::image::ImageWriter::Freeze(routes);
    }
  }
  sample.seconds = static_cast<double>(NowNs() - start) / 1e9;
  sample.digest = Fnv1a64(routes.ToSortedText(/*include_costs=*/false));
  sample.nodes = graph->node_count();
  sample.links = graph->link_count();
  sample.routes = routes.size();
  sample.image_bytes = image.size();
  sample.arena_mib = static_cast<double>(graph->arena().stats().bytes_reserved) / 1048576.0;
  sample.heap_pushes = map.heap_pushes;
  sample.relaxations = map.relaxations;
  sample.invented_links = map.invented_links;
  return sample;
}

// "seed digest" lines; '#' starts a comment.
std::optional<uint64_t> RecordedDigest(const std::string& path, uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    uint64_t recorded_seed = 0;
    std::string digest;
    if (fields >> recorded_seed >> digest && recorded_seed == seed) {
      return std::stoull(digest, nullptr, 16);
    }
  }
  return std::nullopt;
}

std::string Hex(uint64_t value) {
  char text[24];
  std::snprintf(text, sizeof(text), "%016" PRIx64, value);
  return text;
}

std::vector<double> SecondsOf(const std::vector<CompileSample>& samples) {
  std::vector<double> seconds;
  for (const CompileSample& sample : samples) {
    seconds.push_back(sample.seconds);
  }
  return seconds;
}

}  // namespace

WorkloadResult RunCompile(const RunConfig& config) {
  WorkloadResult result;
  pathalias::MapGenConfig generator = pathalias::MapGenConfig::UsenetScale(1000000);
  generator.seed = config.seed;

  // Set-up is generating the input map.  It is repeated before every timed
  // untraced op, so its samples spread over the whole run and a phase of host
  // contention moves only some of them.
  std::vector<double> setup_seconds;
  pathalias::GeneratedMap map;
  auto generate = [&] {
    int64_t start = NowNs();
    map = pathalias::GenerateUsenetMap(generator);
    setup_seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
  };
  generate();
  RunOptions options;
  options.local = map.local;

  // One warm-up op, then ops until the time is spent.  A traced run spends the
  // first half untraced and the second half traced, so the gap between the two
  // is the tracing overhead.
  std::vector<CompileSample> checked;
  checked.push_back(Compile(map.files, options));
  std::vector<CompileSample> untraced;
  std::vector<CompileSample> traced;
  Tracer tracer(true);
  const double untraced_budget = config.trace ? config.seconds / 2 : config.seconds;
  int64_t phase_start = NowNs();
  do {
    generate();
    untraced.push_back(Compile(map.files, options));
  } while (static_cast<double>(NowNs() - phase_start) / 1e9 < untraced_budget);
  if (config.trace) {
    phase_start = NowNs();
    do {
      traced.push_back(CompileTraced(map.files, options, tracer));
    } while (static_cast<double>(NowNs() - phase_start) / 1e9 < config.seconds / 2);
  }
  const double peak_rss = PeakRssMib();

  // Reference check.
  std::optional<uint64_t> reference = RecordedDigest(config.digests_path, config.seed);
  const char* reference_source = "recorded";
  if (!reference.has_value()) {
    RunOptions sharded = options;
    sharded.shard.shards = 4;
    Diagnostics diag;
    pathalias::RunResult run = pathalias::Run(map.files, sharded, &diag);
    reference = Fnv1a64(RouteSet::FromText(run.output).ToSortedText(false));
    reference_source = "sharded mapper";
  }
  if (config.plant_wrong) {
    *reference ^= 1;
  }
  checked.insert(checked.end(), untraced.begin(), untraced.end());
  checked.insert(checked.end(), traced.begin(), traced.end());
  result.attempted = checked.size();
  for (const CompileSample& sample : checked) {
    if (sample.digest != *reference) {
      ++result.failed;
    }
  }

  const CompileSample& last = checked.back();
  const double compile_s = Median(SecondsOf(untraced));
  const double setup_s = Median(setup_seconds);
  const double fail_rate = static_cast<double>(result.failed) / static_cast<double>(result.attempted);
  result.end_to_end.Set("op_p50_ms", compile_s * 1000.0, "ms");
  result.end_to_end.Set("throughput", static_cast<double>(last.nodes) / compile_s, "items/s");
  result.end_to_end.Set("peak_rss_mib", peak_rss, "MiB");
  result.end_to_end.Set("setup_s", setup_s, "s");
  result.named.Set("compile_s", compile_s, "s");
  result.named.Set("setup_s", setup_s, "s");
  result.named.Set("peak_rss_mib", peak_rss, "MiB");
  result.named.Set("fail_rate", fail_rate, "ratio");

  AddFact(&result, "compile_ops", std::to_string(untraced.size()) + " timed (+1 warm-up" +
                                      (config.trace ? ", +" + std::to_string(traced.size()) +
                                                          " traced)"
                                                    : ")"));
  AddFact(&result, "map", std::to_string(map.files.size()) + " files, " +
                              std::to_string(last.nodes) + " nodes, " +
                              std::to_string(last.links) + " links, " +
                              std::to_string(last.routes) + " routes");
  AddFact(&result, "setup_samples", std::to_string(setup_seconds.size()));
  AddFact(&result, "reference", std::string(reference_source) + " digest " + Hex(*reference) +
                                    ", output digest " + Hex(last.digest));

  if (config.trace) {
    const double n = static_cast<double>(traced.size());
    auto per_op_s = [&](const char* span) { return tracer.Get(span).total_ns / 1e9 / n; };
    const CompileSample& sample = traced.back();
    result.layers.Set("parser.parse_s", per_op_s("parser.Parser.ParseFiles"), "s");
    result.layers.Set("graph.nodes", static_cast<double>(sample.nodes), "count");
    result.layers.Set("graph.links", static_cast<double>(sample.links), "count");
    result.layers.Set("graph.arena_mib", sample.arena_mib, "MiB");
    result.layers.Set("core.map_s", per_op_s("core.Mapper.Run"), "s");
    result.layers.Set("core.heap_pushes", static_cast<double>(sample.heap_pushes), "count");
    result.layers.Set("core.relaxations", static_cast<double>(sample.relaxations), "count");
    result.layers.Set("core.invented_links", static_cast<double>(sample.invented_links),
                      "count");
    result.layers.Set("core.emit_s", per_op_s("core.RoutePrinter.Build"), "s");
    result.layers.Set("core.render_s", per_op_s("core.RoutePrinter.Render"), "s");
    result.layers.Set("route_db.load_s", per_op_s("route_db.RouteSet.FromText"), "s");
    result.layers.Set("image.freeze_s", per_op_s("image.ImageWriter.Freeze"), "s");
    result.layers.Set("image.bytes", static_cast<double>(sample.image_bytes), "bytes");
    double parts = 0.0;
    for (const char* stage : {"parser.Parser.ParseFiles", "core.Mapper.Run",
                              "core.RoutePrinter.Build", "core.RoutePrinter.Render",
                              "route_db.RouteSet.FromText", "image.ImageWriter.Freeze"}) {
      parts += per_op_s(stage);
    }
    double whole = Median(SecondsOf(traced));
    result.layers.Set("trace.parts_frac",
                      ReportAddUp(&result, "compile stages vs traced compile wall time", parts,
                                  per_op_s("compile"), 0.05),
                      "ratio");
    result.layers.Set(
        "trace.overhead_frac",
        ReportOverhead(&result, "compile_s (op_p50_ms)", compile_s, whole, false), "ratio");
    char line[160];
    std::snprintf(line, sizeof(line), "compile self time outside the six stages: %.3f s per op",
                  tracer.Get("compile").self_ns / 1e9 / n);
    result.report.push_back(line);
    ReportSpans(&result, tracer, config);
  }
  return result;
}

}  // namespace perfbench
