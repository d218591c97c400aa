// Experiment E13 — §Output: "a separate program may be used to convert this file into
// a format appropriate for rapid database retrieval", plus the §Domains lookup order
// the resolver implements.
//
// Compares lookup strategies over the full 1986-scale route list — linear scan of the
// text file's order (what a naive mailer did) and the indexed .pari frozen image —
// then measures full address resolution throughput on a realistic mail trace, plus
// the cold-start cost a mailer pays at the top of every delivery run: parse+re-intern
// the route text versus open+mmap the frozen image.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <span>
#include <unordered_set>

#include <thread>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#endif

#include "bench/bench_util.h"
#include "bench/daemon_latency.h"
#include "src/core/pathalias.h"
#include "src/core/route_printer.h"
#include "src/graph/audit.h"
#include "src/exec/batch_engine.h"
#include "src/image/frozen_route_set.h"
#include "src/image/image_writer.h"
#include "src/incr/map_builder.h"
#include "src/route_db/address.h"
#include "src/route_db/resolver.h"
#include "src/route_db/route_db.h"
#include "src/support/rng.h"

namespace {

using namespace pathalias;

struct Fixture {
  RouteSet routes;
  std::string route_text;  // what a mailer re-parses at startup today
  std::optional<FrozenImage> image;  // the frozen equivalent, in memory
  std::string pari_path;   // and on disk, for the mmap cold-start path
  std::vector<std::string> trace;
  std::vector<std::string> lookup_keys;
  // The batch workload: N mixed queries — known hosts, strangers under known domains
  // (suffix-chain fallbacks), and outright misses — as views over one string pool.
  std::vector<std::string> batch_pool;
  std::vector<std::string_view> batch_queries;
  // Hot-set sweep workloads (the POI-alias traffic shape): views only — hot queries
  // repeat a small set of known hosts, cold queries reuse the mixed pool's strings.
  std::vector<std::string> hot_hosts;

  // The route set every query below runs against.
  const FrozenRouteSet& frozen() const { return image->routes(); }

  // Builds a kBatchQueries-view workload where `hot_permille`/1000 of the queries
  // cycle through the hot set and the rest walk the mixed pool.
  std::vector<std::string_view> HotSetQueries(int hot_permille) const {
    std::vector<std::string_view> queries;
    queries.reserve(batch_queries.size());
    size_t hot = 0;
    size_t cold = 0;
    for (size_t i = 0; i < batch_queries.size(); ++i) {
      if (static_cast<int>(i % 1000) < hot_permille) {
        queries.push_back(hot_hosts[hot++ % hot_hosts.size()]);
      } else {
        queries.push_back(batch_queries[cold++ % batch_queries.size()]);
      }
    }
    return queries;
  }
};

constexpr size_t kBatchQueries = 1000000;

const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    const GeneratedMap& map = bench::UsenetMap();
    Diagnostics diag;
    RunOptions options;
    options.local = map.local;
    options.print.include_costs = true;
    RunResult result = pathalias::Run(map.files, options, &diag);
    f->routes = RouteSet::FromEntries(result.routes);
    f->route_text = f->routes.ToText(/*include_costs=*/true);
    f->image.emplace(f->routes);
    f->pari_path = (std::filesystem::temp_directory_path() /
                    ("bench_resolver." + std::to_string(getpid()) + ".pari"))
                       .string();
    std::string error;
    if (!image::ImageWriter::WriteFile(f->routes, f->pari_path, 0, &error)) {
      std::fprintf(stderr, "cannot write %s: %s\n", f->pari_path.c_str(), error.c_str());
      std::abort();
    }
    f->trace = GenerateAddressTrace(map, 2000, 424242);
    for (size_t i = 0; i < f->routes.routes().size(); i += 7) {
      f->lookup_keys.push_back(std::string(f->routes.NameOf(f->routes.routes()[i])));
    }

    std::vector<std::string> hosts;    // route keys that are hosts
    std::vector<std::string> domains;  // route keys that are domains (start with '.')
    for (const Route& route : f->routes.routes()) {
      std::string name(f->routes.NameOf(route));
      (name[0] == '.' ? domains : hosts).push_back(std::move(name));
    }
    f->batch_pool.reserve(kBatchQueries);
    for (size_t i = 0; i < kBatchQueries; ++i) {
      switch (i % 3) {
        case 0:  // a host the database knows: exact hit
          f->batch_pool.push_back(hosts[i % hosts.size()]);
          break;
        case 1:  // a stranger under a known domain: domain-suffix fallback
          f->batch_pool.push_back("stranger" + std::to_string(i) +
                                  (domains.empty() ? ".nowhere" : domains[i % domains.size()]));
          break;
        default:  // an outright miss, dotted so the suffix walk runs and drains
          f->batch_pool.push_back("miss" + std::to_string(i) + ".unrouted.example");
          break;
      }
    }
    f->batch_queries.reserve(kBatchQueries);
    for (const std::string& query : f->batch_pool) {
      f->batch_queries.push_back(query);
    }
    // A 512-host hot set for the cache sweeps, spread across the route list.
    for (size_t i = 0; i < hosts.size() && f->hot_hosts.size() < 512; i += 11) {
      f->hot_hosts.push_back(hosts[i]);
    }
    return f;
  }();
  return *fixture;
}

void BM_LinearScanLookup(benchmark::State& state) {
  const Fixture& f = GetFixture();
  size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    for (const std::string& key : f.lookup_keys) {
      for (const Route& route : f.routes.routes()) {  // the naive mailer's loop
        if (f.routes.NameOf(route) == key) {
          ++hits;
          break;
        }
      }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * f.lookup_keys.size()));
  state.counters["hits"] = static_cast<double>(hits);
}

void BM_IndexedLookup(benchmark::State& state) {
  const Fixture& f = GetFixture();
  size_t hits = 0;
  for (auto _ : state) {
    hits = 0;
    for (const std::string& key : f.lookup_keys) {
      if (f.frozen().FindRouteView(key).ok()) {
        ++hits;
      }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * f.lookup_keys.size()));
  state.counters["hits"] = static_cast<double>(hits);
}

void BM_ResolveTrace(benchmark::State& state) {
  const Fixture& f = GetFixture();
  ResolveOptions options;
  options.optimize = state.range(0) != 0 ? ResolveOptions::Optimize::kRightmostKnown
                                         : ResolveOptions::Optimize::kFirstHop;
  Resolver resolver(&f.frozen(), options);
  size_t resolved = 0;
  for (auto _ : state) {
    resolved = 0;
    for (const std::string& address : f.trace) {
      if (resolver.Resolve(address).ok) {
        ++resolved;
      }
    }
    benchmark::DoNotOptimize(resolved);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * f.trace.size()));
  state.counters["resolved"] = static_cast<double>(resolved);
  state.counters["trace"] = static_cast<double>(f.trace.size());
}

// Interner-keyed batch resolution against the frozen image: N mixed
// host/domain/miss queries resolved through Resolver::ResolveBatch — one hash per
// query, then pure id-chasing through the image's probe table and suffix chains in
// place, zero per-query string allocations.
void BM_BatchResolve(benchmark::State& state) {
  const Fixture& f = GetFixture();
  Resolver resolver(&f.frozen(), ResolveOptions{});
  std::vector<BatchLookup> results(f.batch_queries.size());
  size_t resolved = 0;
  for (auto _ : state) {
    resolved = resolver.ResolveBatch(f.batch_queries, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * f.batch_queries.size()));
  state.counters["resolved"] = static_cast<double>(resolved);
  state.counters["queries"] = static_cast<double>(f.batch_queries.size());
}

// The pipelined batch loop at an explicit window against the scalar reference:
// Arg(0) is the window, 0 means ResolveBatchScalar.  Same workload, same results
// (byte-identical by contract, asserted in the JSON section below); the delta is
// pure memory-level parallelism.
void BM_PipelinedBatchResolve(benchmark::State& state) {
  const Fixture& f = GetFixture();
  Resolver resolver(&f.frozen(), ResolveOptions{});
  std::vector<BatchLookup> results(f.batch_queries.size());
  const size_t window = static_cast<size_t>(state.range(0));
  size_t resolved = 0;
  for (auto _ : state) {
    resolved = window == 0
                   ? resolver.ResolveBatchScalar(f.batch_queries, results)
                   : resolver.ResolveBatchPipelined(f.batch_queries, results, window);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * f.batch_queries.size()));
  state.counters["resolved"] = static_cast<double>(resolved);
  state.counters["window"] = static_cast<double>(window);
}

// The reply-path loop test (HasRepeatedHost, src/route_db/address.h): the inline
// quadratic scan that replaced a per-call std::unordered_set, vs that set,
// at representative bang-path lengths.  Arg(0) is the hop count; paths are
// all-distinct (the worst case for both — a full scan with no early out).
std::vector<std::string> DistinctPath(size_t hops) {
  std::vector<std::string> path;
  for (size_t i = 0; i < hops; ++i) {
    path.push_back("host" + std::to_string(i));
  }
  return path;
}

bool HasRepeatedHostViaSet(const std::vector<std::string>& path) {
  std::unordered_set<std::string_view> seen;
  for (const std::string& host : path) {
    if (!seen.insert(host).second) {
      return true;
    }
  }
  return false;
}

void BM_HasRepeatedHostScan(benchmark::State& state) {
  std::vector<std::string> path = DistinctPath(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(HasRepeatedHost(path));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_HasRepeatedHostSet(benchmark::State& state) {
  std::vector<std::string> path = DistinctPath(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(HasRepeatedHostViaSet(path));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

// Hardware cache-miss counting via perf_event_open, when the kernel/container
// allows it.  Many containers deny the syscall outright (this one does); the
// JSON then records the wall-clock numbers as the fallback the ISSUE allows.
class CacheMissCounter {
 public:
  CacheMissCounter() {
#if defined(__linux__)
    perf_event_attr attr{};
    attr.type = PERF_TYPE_HARDWARE;
    attr.size = sizeof(attr);
    attr.config = PERF_COUNT_HW_CACHE_MISSES;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    fd_ = static_cast<int>(::syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
#endif
  }
  ~CacheMissCounter() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  bool available() const { return fd_ >= 0; }
  void Start() {
#if defined(__linux__)
    ::ioctl(fd_, PERF_EVENT_IOC_RESET, 0);
    ::ioctl(fd_, PERF_EVENT_IOC_ENABLE, 0);
#endif
  }
  uint64_t Stop() {
    uint64_t value = 0;
#if defined(__linux__)
    ::ioctl(fd_, PERF_EVENT_IOC_DISABLE, 0);
    if (::read(fd_, &value, sizeof(value)) != static_cast<ssize_t>(sizeof(value))) {
      value = 0;
    }
#endif
    return value;
  }

 private:
  int fd_ = -1;
};

// The batch engine over the same mixed batch, cache off: one contiguous range per
// thread, each through the resolver's window.  Arg(0) is the thread count.
void BM_ParallelBatchResolve(benchmark::State& state) {
  const Fixture& f = GetFixture();
  exec::BatchEngineOptions options;
  options.threads = static_cast<int>(state.range(0));
  exec::FrozenBatchEngine engine(&f.frozen(), options);
  std::vector<BatchLookup> results(f.batch_queries.size());
  size_t resolved = 0;
  for (auto _ : state) {
    resolved = engine.ResolveBatch(f.batch_queries, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * f.batch_queries.size()));
  state.counters["resolved"] = static_cast<double>(resolved);
  state.counters["threads"] = static_cast<double>(options.threads);
}

// The per-shard result cache on the hot-set traffic shape: Arg(0) is the hot
// fraction in permille, Arg(1) the per-shard cache capacity (0 = off).
void BM_HotSetBatchResolve(benchmark::State& state) {
  const Fixture& f = GetFixture();
  std::vector<std::string_view> queries = f.HotSetQueries(static_cast<int>(state.range(0)));
  exec::BatchEngineOptions options;
  options.cache_entries = static_cast<size_t>(state.range(1));
  exec::FrozenBatchEngine engine(&f.frozen(), options);
  std::vector<BatchLookup> results(queries.size());
  size_t resolved = 0;
  for (auto _ : state) {
    resolved = engine.ResolveBatch(queries, results);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * queries.size()));
  state.counters["resolved"] = static_cast<double>(resolved);
  state.counters["hit_rate"] = engine.stats().hit_rate();
}

// Cold start, the consumer-scale pain the image exists to remove: what a mailer pays
// before its first lookup.  The parse path re-parses the linear route file and
// re-interns every key (stopping at the indexed RouteSet — freezing it for the
// resolver would cost more on top); the image path opens + mmaps + validates and
// resolves in place.
void BM_ColdStartParseIntern(benchmark::State& state) {
  const Fixture& f = GetFixture();
  size_t ok = 0;
  for (auto _ : state) {
    RouteSet routes = RouteSet::FromText(f.route_text);
    if (routes.Find(f.lookup_keys.front()) != nullptr) {
      ++ok;
    }
    benchmark::DoNotOptimize(ok);
  }
  state.counters["routes"] = static_cast<double>(f.routes.size());
}

void BM_ColdStartImageOpen(benchmark::State& state) {
  const Fixture& f = GetFixture();
  size_t ok = 0;
  for (auto _ : state) {
    auto opened = FrozenImage::Open(f.pari_path);
    if (!opened.has_value()) {
      state.SkipWithError("cannot open the frozen image");
      return;
    }
    Resolver resolver(&opened->routes(), ResolveOptions{});
    std::string_view key;
    if (resolver.Lookup(f.lookup_keys.front(), &key).ok()) {
      ++ok;
    }
    benchmark::DoNotOptimize(ok);
  }
  state.counters["routes"] = static_cast<double>(f.routes.size());
}

// The incremental-update workload: a sparse 8000-host map spread over 80 site
// files with a dedicated leaf in the last file whose link cost the "1-file edit"
// flips (a production router absorbing a routine cost change).  The update
// swaps in that file's new bytes and parses all 81 kept files again, then maps
// and emits in full.
struct IncrementalBench {
  std::vector<InputFile> files;
  InputFile edit_a;  // last file, benchleaf at cost 37
  InputFile edit_b;  // last file, benchleaf at cost 41
  size_t hosts = 0;
};

IncrementalBench BuildIncrementalBenchMap() {
  IncrementalBench bench;
  constexpr int kFiles = 80;
  constexpr int kHosts = 8000;
  Rng rng(20260730);
  std::vector<std::string> contents(kFiles);
  std::vector<std::string> names;
  names.reserve(kHosts);
  for (int i = 0; i < kHosts; ++i) {
    names.push_back("s" + std::to_string(i));
    std::string line = names[i];
    if (i > 0) {
      // Two-way attachment keeps every host reachable without back links; a second
      // random link gives the sparse e ≈ 3v degree profile.
      const std::string& parent = names[rng.Below(static_cast<uint64_t>(i))];
      line += "\t" + parent + "(" + std::to_string(10 + rng.Below(400)) + ")";
      if (i % 2 == 0) {
        const std::string& peer = names[rng.Below(static_cast<uint64_t>(i))];
        if (peer != names[i]) {
          line += ", " + peer + "(" + std::to_string(10 + rng.Below(400)) + ")";
        }
      }
      // The return direction, declared by a random site file (sites report the
      // links they know about; both endpoints often do).
      contents[static_cast<int>(rng.Below(kFiles))] +=
          parent + "\t" + names[i] + "(" + std::to_string(10 + rng.Below(400)) + ")\n";
    }
    contents[i % kFiles] += line + "\n";
  }
  bench.hosts = kHosts + 2;  // + hedit + benchleaf below
  for (int i = 0; i < kFiles; ++i) {
    bench.files.push_back(InputFile{"site" + std::to_string(i) + ".map",
                                    std::move(contents[i])});
  }
  // The editable tail: only benchleaf's inbound cost differs between the two.
  auto tail = [](int cost) {
    return "s0\thedit(10)\nhedit\ts0(10), benchleaf(" + std::to_string(cost) +
           ")\nbenchleaf\thedit(5)\n";
  };
  bench.edit_a = InputFile{"edit.map", tail(37)};
  bench.edit_b = InputFile{"edit.map", tail(41)};
  bench.files.push_back(bench.edit_a);
  return bench;
}

struct IncrementalResults {
  size_t routes_changed = 0;
  size_t routes = 0;
  double update_best_ms = 0.0;
  double full_rebuild_best_ms = 0.0;   // MapBuilder::Build on a fresh builder
  double batch_pipeline_best_ms = 0.0;  // plain Run + RouteSet::FromEntries
  double refreeze_best_ms = 0.0;
};

IncrementalResults MeasureIncrementalUpdate(const IncrementalBench& bench) {
  IncrementalResults results;
  incr::MapBuilderOptions options;
  options.local = "s0";

  // Full-rebuild baseline: the whole pipeline (lex, parse, graph, map, emit) over
  // the edited inputs, which is what a batch pathalias run pays for any edit.
  std::vector<InputFile> edited = bench.files;
  edited.back() = bench.edit_b;
  constexpr int kPasses = 5;
  for (int pass = 0; pass < kPasses; ++pass) {
    incr::MapBuilder fresh(options);
    std::vector<InputFile> files = pass % 2 == 0 ? edited : bench.files;
    bench::WallTimer timer;
    fresh.Build(std::move(files));
    double ms = timer.Ms();
    if (pass == 0 || ms < results.full_rebuild_best_ms) {
      results.full_rebuild_best_ms = ms;
    }
  }
  // The other baseline: the plain batch pipeline a non-incremental consumer would
  // run.  The headline speedup divides the cheaper of the two by the update.
  for (int pass = 0; pass < kPasses; ++pass) {
    Diagnostics diag;
    RunOptions run_options;
    run_options.local = "s0";
    bench::WallTimer timer;
    RunResult result = pathalias::Run(pass % 2 == 0 ? edited : bench.files, run_options,
                                      &diag);
    RouteSet routes = RouteSet::FromEntries(result.routes);
    benchmark::DoNotOptimize(routes.size());
    double ms = timer.Ms();
    if (pass == 0 || ms < results.batch_pipeline_best_ms) {
      results.batch_pipeline_best_ms = ms;
    }
  }

  incr::MapBuilder builder(options);
  builder.Build(bench.files);
  results.routes = builder.routes().size();
  std::string image_path = (std::filesystem::temp_directory_path() /
                            ("bench_incr." + std::to_string(getpid()) + ".pari"))
                               .string();
  for (int pass = 0; pass < 2 * kPasses; ++pass) {
    const InputFile& edit = pass % 2 == 0 ? bench.edit_b : bench.edit_a;
    bench::WallTimer timer;
    incr::UpdateStats stats = builder.Update({edit});
    double ms = timer.Ms();
    if (pass == 0 || ms < results.update_best_ms) {
      results.update_best_ms = ms;
    }
    results.routes_changed = stats.routes_changed;

    bench::WallTimer refreeze_timer;
    image::ImageWriter::Refreeze(builder.routes(), image_path);
    ms = refreeze_timer.Ms();
    if (pass == 0 || ms < results.refreeze_best_ms) {
      results.refreeze_best_ms = ms;
    }
  }
  std::remove(image_path.c_str());
  return results;
}

// A map scaled up from the 1986 profile, with the query shapes the committed batch
// uses.  The pipeline's win grows with map size — the 1986 table is L2-resident,
// so there is little latency to hide; at 4x the probe path reaches DRAM and the
// overlapped window pays — and the JSON records both.
enum class QueryShape {
  kMixed,      // a third each: known hosts, strangers under known domains, dotted misses
  kHostsOnly,  // known hosts: every query retires inside the window
  kStrangers,  // the mixed workload's strangers: every query leaves the window
  // Strangers s.x<i> under a known domain or .example: they leave the window too,
  // and no two share their bytes from the first dot on, so none shares a memo entry.
  kDistinctStrangers,
};

struct ScaledWorkload {
  RouteSet routes;
  std::vector<std::string> hosts;    // route keys that are hosts
  std::vector<std::string> domains;  // route keys that are domains
};

ScaledWorkload BuildScaledWorkload(int scale) {
  MapGenConfig config = MapGenConfig::Usenet1986();
  config.seed = 1986 + static_cast<uint64_t>(scale);
  config.backbone_hosts *= 2;
  config.regional_hosts *= scale;
  config.leaf_hosts *= scale;
  config.net_member_hosts *= scale;
  config.domain_hosts *= scale;
  config.files *= 2;
  GeneratedMap map = GenerateUsenetMap(config);
  Diagnostics diag;
  RunOptions options;
  options.local = map.local;
  RunResult result = pathalias::Run(map.files, options, &diag);
  ScaledWorkload workload;
  workload.routes = RouteSet::FromEntries(result.routes);
  for (const Route& route : workload.routes.routes()) {
    std::string name(workload.routes.NameOf(route));
    (name[0] == '.' ? workload.domains : workload.hosts).push_back(std::move(name));
  }
  return workload;
}

// `count` queries of one shape over `workload`'s names.
std::vector<std::string> ShapedQueries(const ScaledWorkload& workload, QueryShape shape,
                                       size_t count) {
  std::vector<std::string> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    size_t kind = shape == QueryShape::kMixed       ? i % 3
                  : shape == QueryShape::kHostsOnly ? 0
                  : shape == QueryShape::kStrangers ? 1 + i % 2
                                                    : 3;
    switch (kind) {
      case 0:
        pool.push_back(workload.hosts[(i * 2654435761u) % workload.hosts.size()]);
        break;
      case 1:
        pool.push_back("stranger" + std::to_string(i) +
                       (workload.domains.empty() ? ".nowhere"
                                                 : workload.domains[i % workload.domains.size()]));
        break;
      case 2:
        pool.push_back("miss" + std::to_string(i) + ".unrouted.example");
        break;
      default:
        pool.push_back("s.x" + std::to_string(i) +
                       (i % 2 == 0 && !workload.domains.empty()
                            ? workload.domains[i / 2 % workload.domains.size()]
                            : std::string(".example")));
        break;
    }
  }
  return pool;
}

// Every result slot equal — route view identity, via and suffix_match — and the
// resolved counts too.
bool SameResults(const std::vector<BatchLookup>& a, size_t a_resolved,
                 const std::vector<BatchLookup>& b, size_t b_resolved) {
  bool same = a_resolved == b_resolved && a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].route.name == b[i].route.name &&
           a[i].route.route.data() == b[i].route.route.data() &&
           a[i].route.route.size() == b[i].route.route.size() &&
           a[i].route.cost == b[i].route.cost && a[i].via == b[i].via &&
           a[i].suffix_match == b[i].suffix_match;
  }
  return same;
}

// Scalar against the default window on one batch, timed back to back in each
// pass (best of `passes`), with every slot compared.
struct ScalarVsWindow {
  double scalar_ms = 0.0;
  double pipelined_ms = 0.0;
  bool matches = false;
};

ScalarVsWindow TimeScalarVsWindow(const Resolver& resolver,
                                  std::span<const std::string_view> queries, int passes) {
  ScalarVsWindow point;
  std::vector<BatchLookup> scalar(queries.size());
  std::vector<BatchLookup> pipelined(queries.size());
  size_t scalar_resolved = 0;
  size_t pipelined_resolved = 0;
  for (int pass = 0; pass < passes; ++pass) {
    bench::WallTimer scalar_timer;
    scalar_resolved = resolver.ResolveBatchScalar(queries, scalar);
    double ms = scalar_timer.Ms();
    if (pass == 0 || ms < point.scalar_ms) {
      point.scalar_ms = ms;
    }
    bench::WallTimer pipe_timer;
    pipelined_resolved =
        resolver.ResolveBatchPipelined(queries, pipelined, Resolver::kDefaultPipelineWindow);
    ms = pipe_timer.Ms();
    if (pass == 0 || ms < point.pipelined_ms) {
      point.pipelined_ms = ms;
    }
  }
  point.matches = SameResults(scalar, scalar_resolved, pipelined, pipelined_resolved);
  return point;
}

// --- the domain-sharded mapper at usenet scale ------------------------------
//
// One row per map size: serial pipeline wall (parse+map+emit), the emission pass
// alone, and per-shard-count sharded walls with the byte-identity verdict the
// engine guarantees.  The audit numbers pin the superlinear fix: the indexed
// inbound tally versus a timed replica of the retired per-candidate link rescan
// on the same graph.

struct ShardedMapPoint {
  int shards = 0;
  double wall_ms = 0.0;
  bool identical = false;
  bool engaged = false;
  size_t rounds = 0;
  size_t cross_offers = 0;
};

struct ShardedMapRow {
  size_t hosts = 0;
  size_t nodes = 0;
  size_t links = 0;
  size_t route_bytes = 0;
  double serial_wall_ms = 0.0;
  double emission_ms = 0.0;
  long peak_rss_kb = 0;
  std::vector<ShardedMapPoint> points;
};

struct AuditScaling {
  size_t candidates = 0;
  size_t links = 0;
  double indexed_ms = 0.0;
  double rescan_reference_ms = 0.0;
};

ShardedMapRow MeasureShardedMapping(size_t hosts, int map_passes,
                                    const std::vector<int>& shard_counts,
                                    AuditScaling* audit) {
  GeneratedMap map = GenerateUsenetMap(MapGenConfig::UsenetScale(static_cast<int>(hosts)));
  ShardedMapRow row;
  row.hosts = hosts;
  std::string serial_output;
  for (int pass = 0; pass < map_passes; ++pass) {
    Diagnostics diag;
    RunOptions options;
    options.local = map.local;
    options.print.include_costs = true;
    bench::WallTimer timer;
    RunResult result = pathalias::Run(map.files, options, &diag);
    double ms = timer.Ms();
    if (pass == 0 || ms < row.serial_wall_ms) {
      row.serial_wall_ms = ms;
    }
    row.nodes = result.graph->node_count();
    row.links = result.graph->link_count();
    row.route_bytes = result.output.size();
    serial_output = std::move(result.output);
    if (pass + 1 < map_passes) {
      continue;
    }
    // The emission pass alone, re-rendered from the finished mapping.
    bench::WallTimer emission_timer;
    RoutePrinter printer(result.map, options.print);
    std::string rendered;
    for (const RouteEntry& entry : printer.Build()) {
      rendered += entry.name;
      rendered += '\n';
      benchmark::DoNotOptimize(entry.route.data());
    }
    row.emission_ms = emission_timer.Ms();
    benchmark::DoNotOptimize(rendered.size());
    if (audit == nullptr) {
      continue;
    }
    audit->links = result.graph->link_count();
    bench::WallTimer indexed_timer;
    AuditReport report = AuditGraph(*result.graph);
    audit->indexed_ms = indexed_timer.Ms();
    benchmark::DoNotOptimize(report.findings.size());
    // The retired shape: the unenterable-net and dead-relay passes each rescanned
    // every link once per candidate node — O(candidates x links).
    bench::WallTimer rescan_timer;
    size_t touched = 0;
    for (const Node* candidate : result.graph->nodes()) {
      if (!candidate->placeholder() && !candidate->terminal() && !candidate->deleted()) {
        continue;
      }
      ++audit->candidates;
      for (const Node* from : result.graph->nodes()) {
        for (const Link* link = from->links; link != nullptr; link = link->next) {
          if (link->to == candidate) {
            ++touched;
          }
        }
      }
    }
    benchmark::DoNotOptimize(touched);
    audit->rescan_reference_ms = rescan_timer.Ms();
  }
  for (int shards : shard_counts) {
    ShardedMapPoint point;
    point.shards = shards;
    for (int pass = 0; pass < map_passes; ++pass) {
      Diagnostics diag;
      RunOptions options;
      options.local = map.local;
      options.print.include_costs = true;
      options.shard.shards = shards;
      bench::WallTimer timer;
      RunResult result = pathalias::Run(map.files, options, &diag);
      double ms = timer.Ms();
      if (pass == 0 || ms < point.wall_ms) {
        point.wall_ms = ms;
      }
      point.identical = result.output == serial_output;
      point.engaged = result.shard_stats.engaged;
      point.rounds = result.shard_stats.rounds;
      point.cross_offers = result.shard_stats.cross_offers;
    }
    row.points.push_back(point);
  }
  row.peak_rss_kb = bench::PeakRssKb();
  return row;
}

// Emits machine-readable results for the batch workload as BENCH_resolver.json, with
// the pre-refactor reference numbers (seed build, same workload generator, same
// container) recorded alongside so the comparison travels with the repo.
void WriteBenchJson() {
  const Fixture& f = GetFixture();
  Resolver resolver(&f.frozen(), ResolveOptions{});
  std::vector<BatchLookup> results(f.batch_queries.size());
  size_t resolved = 0;
  size_t suffix_matches = 0;
  double best_ms = 0.0;
  constexpr int kPasses = 5;
  for (int pass = 0; pass < kPasses; ++pass) {
    bench::WallTimer timer;
    resolved = resolver.ResolveBatch(f.batch_queries, results);
    double ms = timer.Ms();
    if (pass == 0 || ms < best_ms) {
      best_ms = ms;
    }
  }
  for (const BatchLookup& result : results) {
    if (result.route.ok() && result.suffix_match) {
      ++suffix_matches;
    }
  }
  double qps = static_cast<double>(f.batch_queries.size()) / (best_ms / 1000.0);
  long rss_batch_kb = bench::PeakRssKb();

  // --- the tentpole: scalar vs pipelined, interleaved per pass ---
  // Scalar throughput on this workload swings ~±10% between separate runs (CPU
  // frequency and cache state drift), so the two paths are timed back-to-back
  // inside the same pass and only the paired best-of-N is reported.
  const size_t kPipeWindows[] = {1, 4, 8, 16, 24, 64};
  constexpr size_t kPipeWindowCount = sizeof(kPipeWindows) / sizeof(kPipeWindows[0]);
  double pipe_best_ms[kPipeWindowCount] = {};
  size_t pipe_resolved[kPipeWindowCount] = {};
  double pipe_scalar_best_ms = 0.0;
  size_t pipe_scalar_resolved = 0;
  std::vector<BatchLookup> scalar_results(f.batch_queries.size());
  std::vector<BatchLookup> pipe_results(f.batch_queries.size());
  constexpr int kPipePasses = 7;
  for (int pass = 0; pass < kPipePasses; ++pass) {
    bench::WallTimer scalar_timer;
    pipe_scalar_resolved = resolver.ResolveBatchScalar(f.batch_queries, scalar_results);
    double ms = scalar_timer.Ms();
    if (pass == 0 || ms < pipe_scalar_best_ms) {
      pipe_scalar_best_ms = ms;
    }
    for (size_t w = 0; w < kPipeWindowCount; ++w) {
      bench::WallTimer timer;
      pipe_resolved[w] =
          resolver.ResolveBatchPipelined(f.batch_queries, pipe_results, kPipeWindows[w]);
      ms = timer.Ms();
      if (pass == 0 || ms < pipe_best_ms[w]) {
        pipe_best_ms[w] = ms;
      }
    }
  }
  // Byte-identity, not just counts: rerun each window once and deep-compare
  // every slot against the scalar reference (the CI gate reads this flag).
  bool pipe_matches[kPipeWindowCount];
  bool pipe_matches_all = true;
  for (size_t w = 0; w < kPipeWindowCount; ++w) {
    resolver.ResolveBatchPipelined(f.batch_queries, pipe_results, kPipeWindows[w]);
    pipe_matches[w] =
        SameResults(scalar_results, pipe_scalar_resolved, pipe_results, pipe_resolved[w]);
    pipe_matches_all = pipe_matches_all && pipe_matches[w];
  }
  size_t pipe_best_window = kPipeWindows[0];
  double pipe_best_window_ms = pipe_best_ms[0];
  for (size_t w = 1; w < kPipeWindowCount; ++w) {
    if (pipe_best_ms[w] < pipe_best_window_ms) {
      pipe_best_window_ms = pipe_best_ms[w];
      pipe_best_window = kPipeWindows[w];
    }
  }

  // Misses/lookup from hardware counters where the container permits
  // perf_event_open; wall-clock stands alone otherwise (this container denies
  // the syscall even at perf_event_paranoid=2 — fd < 0, no perf binary).
  CacheMissCounter miss_counter;
  double scalar_misses_per_lookup = 0.0;
  double pipelined_misses_per_lookup = 0.0;
  if (miss_counter.available()) {
    miss_counter.Start();
    resolver.ResolveBatchScalar(f.batch_queries, scalar_results);
    scalar_misses_per_lookup = static_cast<double>(miss_counter.Stop()) /
                               static_cast<double>(f.batch_queries.size());
    miss_counter.Start();
    resolver.ResolveBatchPipelined(f.batch_queries, pipe_results, pipe_best_window);
    pipelined_misses_per_lookup = static_cast<double>(miss_counter.Stop()) /
                                  static_cast<double>(f.batch_queries.size());
  }

  // Probe/collision/retire counters, live only under PATHALIAS_PROBE_STATS.
  ResolvePipelineStats pipe_stats;
  resolver.ResolveBatchPipelined(f.batch_queries, pipe_results,
                                 Resolver::kDefaultPipelineWindow, &pipe_stats);

  // The 4x-scale point: same workload shape over a ~4x map, where the probe
  // path outgrows L2 and the window has real latency to hide.  Then the shapes
  // the window splits on — known hosts, which retire inside it, and strangers,
  // which all leave it, sharing suffixes or not — at 4x and at 16x, past the
  // last-level cache.
  struct ShapePoint {
    const char* shape;
    int scale;
    size_t routes;
    ScalarVsWindow timing;
  };
  std::vector<ShapePoint> shapes;
  ScalarVsWindow scaled_4x;
  size_t scaled_4x_routes = 0;
  for (int scale : {4, 16}) {
    ScaledWorkload scaled = BuildScaledWorkload(scale);
    FrozenImage scaled_image(scaled.routes);
    Resolver scaled_resolver(&scaled_image.routes(), ResolveOptions{});
    auto time_shape = [&](QueryShape shape) {
      std::vector<std::string> pool = ShapedQueries(scaled, shape, f.batch_queries.size());
      std::vector<std::string_view> queries(pool.begin(), pool.end());
      return TimeScalarVsWindow(scaled_resolver, queries, 5);
    };
    if (scale == 4) {
      scaled_4x = time_shape(QueryShape::kMixed);
      scaled_4x_routes = scaled.routes.size();
    }
    shapes.push_back(
        ShapePoint{"hosts_only", scale, scaled.routes.size(), time_shape(QueryShape::kHostsOnly)});
    shapes.push_back(ShapePoint{"strangers_only", scale, scaled.routes.size(),
                                time_shape(QueryShape::kStrangers)});
    shapes.push_back(ShapePoint{"distinct_strangers", scale, scaled.routes.size(),
                                time_shape(QueryShape::kDistinctStrangers)});
  }
  long rss_pipeline_kb = bench::PeakRssKb();

  // Satellite: the reply-path loop-test scan, inline vs the unordered_set it
  // replaced, at representative bang-path lengths (all-distinct worst case).
  struct RepeatScanPoint {
    size_t hops;
    double scan_ns;
    double set_ns;
  };
  std::vector<RepeatScanPoint> repeat_scan;
  for (size_t hops : {size_t{2}, size_t{4}, size_t{8}, size_t{24}}) {
    std::vector<std::string> path;
    for (size_t i = 0; i < hops; ++i) {
      path.push_back("host" + std::to_string(i));
    }
    constexpr int kScanReps = 200000;
    RepeatScanPoint point{hops, 0.0, 0.0};
    for (int pass = 0; pass < 3; ++pass) {
      bench::WallTimer scan_timer;
      for (int i = 0; i < kScanReps; ++i) {
        benchmark::DoNotOptimize(HasRepeatedHost(path));
      }
      double ns = scan_timer.Ms() * 1e6 / kScanReps;
      if (pass == 0 || ns < point.scan_ns) {
        point.scan_ns = ns;
      }
      bench::WallTimer set_timer;
      for (int i = 0; i < kScanReps; ++i) {
        benchmark::DoNotOptimize(HasRepeatedHostViaSet(path));
      }
      ns = set_timer.Ms() * 1e6 / kScanReps;
      if (pass == 0 || ns < point.set_ns) {
        point.set_ns = ns;
      }
    }
    repeat_scan.push_back(point);
  }
  long rss_repeat_scan_kb = bench::PeakRssKb();

  // The sharded engine's scaling curve, cache off: same workload, same expected
  // counts, threads 1/2/4/8.
  struct ScalingPoint {
    int threads;
    double ms;
    size_t resolved;
  };
  std::vector<ScalingPoint> scaling;
  for (int threads : {1, 2, 4, 8}) {
    ScalingPoint point{threads, 0.0, 0};
    exec::BatchEngineOptions options;
    options.threads = threads;
    exec::FrozenBatchEngine engine(&f.frozen(), options);
    for (int pass = 0; pass < kPasses; ++pass) {
      bench::WallTimer timer;
      point.resolved = engine.ResolveBatch(f.batch_queries, results);
      double ms = timer.Ms();
      if (pass == 0 || ms < point.ms) {
        point.ms = ms;
      }
    }
    scaling.push_back(point);
  }
  long rss_parallel_kb = bench::PeakRssKb();

  // The hot-set cache sweep: the POI-alias traffic shape at three hot fractions,
  // cache off vs a 64Ki-entry per-shard cache, single shard so the cache effect is
  // isolated from parallelism.
  struct SweepPoint {
    int hot_permille;
    double off_ms;
    double on_ms;
    double hit_rate;
    size_t off_resolved;
    size_t on_resolved;
  };
  // Sized to hold the whole hot set with slack while the sets stay L2-resident —
  // a cache bigger than L2 loses more to probe misses than the skipped walk saves.
  constexpr size_t kSweepCacheEntries = 4096;
  std::vector<SweepPoint> sweep;
  for (int hot_permille : {500, 900, 990}) {
    SweepPoint point{hot_permille, 0.0, 0.0, 0.0, 0, 0};
    std::vector<std::string_view> queries = f.HotSetQueries(hot_permille);
    exec::BatchEngineOptions off_options;
    exec::FrozenBatchEngine off_engine(&f.frozen(), off_options);
    exec::BatchEngineOptions on_options;
    on_options.cache_entries = kSweepCacheEntries;
    exec::FrozenBatchEngine on_engine(&f.frozen(), on_options);
    for (int pass = 0; pass < kPasses; ++pass) {
      bench::WallTimer off_timer;
      point.off_resolved = off_engine.ResolveBatch(queries, results);
      double ms = off_timer.Ms();
      if (pass == 0 || ms < point.off_ms) {
        point.off_ms = ms;
      }
      bench::WallTimer on_timer;
      point.on_resolved = on_engine.ResolveBatch(queries, results);
      ms = on_timer.Ms();
      if (pass == 0 || ms < point.on_ms) {
        point.on_ms = ms;
      }
    }
    point.hit_rate = on_engine.stats().hit_rate();
    sweep.push_back(point);
  }
  long rss_sweep_kb = bench::PeakRssKb();

  // Cold start: parse+intern the route text through its first indexed lookup vs
  // open+mmap the image through its first resolve, best of kPasses.
  double parse_ms = 0.0;
  double image_ms = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::string_view key;
    bench::WallTimer parse_timer;
    {
      RouteSet routes = RouteSet::FromText(f.route_text);
      benchmark::DoNotOptimize(routes.Find(f.lookup_keys.front()));
    }
    double ms = parse_timer.Ms();
    if (pass == 0 || ms < parse_ms) {
      parse_ms = ms;
    }
    bench::WallTimer image_timer;
    {
      auto opened = FrozenImage::Open(f.pari_path);
      if (!opened.has_value()) {
        std::fprintf(stderr, "cannot reopen %s\n", f.pari_path.c_str());
        std::abort();
      }
      Resolver cold(&opened->routes(), ResolveOptions{});
      cold.Lookup(f.lookup_keys.front(), &key);
    }
    ms = image_timer.Ms();
    if (pass == 0 || ms < image_ms) {
      image_ms = ms;
    }
  }
  long rss_cold_start_kb = bench::PeakRssKb();

  // The incremental pipeline: a 1-file edit applied to a warm MapBuilder versus
  // the full pipeline over the edited inputs.
  IncrementalBench incremental_bench = BuildIncrementalBenchMap();
  IncrementalResults incremental = MeasureIncrementalUpdate(incremental_bench);
  long rss_incremental_kb = bench::PeakRssKb();

  // Single-query path for the same trace the legacy benchmark uses.
  ResolveOptions single_options;
  Resolver single(&f.frozen(), single_options);
  size_t trace_resolved = 0;
  bench::WallTimer trace_timer;
  for (const std::string& address : f.trace) {
    if (single.Resolve(address).ok) {
      ++trace_resolved;
    }
  }
  double trace_ms = trace_timer.Ms();
  long rss_trace_kb = bench::PeakRssKb();

  // --- daemon round-trip latency: the served path over a unix-domain socket ---
  bench_daemon::LatencyStats daemon_single =
      bench_daemon::MeasureDaemonLatency(f.pari_path, f.batch_queries,
                                         /*queries_per_request=*/1,
                                         /*requests=*/2000);
  bench_daemon::LatencyStats daemon_batch32 =
      bench_daemon::MeasureDaemonLatency(f.pari_path, f.batch_queries,
                                         /*queries_per_request=*/32,
                                         /*requests=*/500);
  // Offered load well below the closed-loop service rate (~200k/s on this
  // box), so the p99 here is queueing delay under a steady independent-sender
  // schedule, not saturation collapse.
  bench_daemon::OpenLoopStats daemon_open =
      bench_daemon::MeasureDaemonOpenLoop(f.pari_path, f.batch_queries,
                                          /*offered_rate_per_second=*/20000,
                                          /*requests=*/4000);
  // The offered-load-vs-p99 curve: four independent client sockets sweeping the
  // aggregate rate from well below the closed-loop service rate into overload,
  // ~half a second per point.  Drop and overload rates rise with the rate while
  // the scheduled-time percentiles show where queueing delay takes off.
  const size_t kCurveRates[] = {10000, 20000, 40000, 80000, 160000};
  std::vector<bench_daemon::OpenLoopStats> daemon_curve;
  for (size_t rate : kCurveRates) {
    daemon_curve.push_back(bench_daemon::MeasureDaemonOfferedLoad(
        f.pari_path, f.batch_queries, /*clients=*/4, rate, /*requests=*/rate / 2));
  }
  long rss_daemon_kb = bench::PeakRssKb();

  // --- the domain-sharded mapper: hosts x shards grid + the million-host point ---
  // Measured last so every earlier section's peak_rss_kb reflects its own phase,
  // not the large maps built here.
  AuditScaling audit_scaling;
  std::vector<ShardedMapRow> sharded_rows;
  sharded_rows.push_back(
      MeasureShardedMapping(20000, /*map_passes=*/2, {1, 2, 4, 8}, nullptr));
  sharded_rows.push_back(
      MeasureShardedMapping(100000, /*map_passes=*/2, {1, 2, 4, 8}, &audit_scaling));
  sharded_rows.push_back(
      MeasureShardedMapping(1000000, /*map_passes=*/1, {8}, nullptr));
  bool sharded_all_identical = true;
  for (const ShardedMapRow& row : sharded_rows) {
    for (const ShardedMapPoint& point : row.points) {
      sharded_all_identical = sharded_all_identical && point.identical;
    }
  }

  std::FILE* out = std::fopen("BENCH_resolver.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_resolver.json\n");
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"benchmark\": \"bench_resolver\",\n");
  std::fprintf(out, "  \"workload\": \"1986-scale synthetic route db; batch of %zu mixed "
                    "host/domain-fallback/miss queries\",\n", f.batch_queries.size());
  std::fprintf(out, "  \"peak_rss_note\": \"peak_rss_kb is getrusage ru_maxrss (KiB) "
                    "captured at the end of each section's measurement phase; the value "
                    "is a monotone process-wide high-water mark, so only the growth "
                    "between consecutive sections belongs to the later one — "
                    "bench_delta.py reports these, never gates on them\",\n");
  std::fprintf(out, "  \"batch_resolve\": {\n");
  std::fprintf(out, "    \"note\": \"the mixed batch via Resolver::ResolveBatch over the "
                    ".pari image, frozen in memory\",\n");
  std::fprintf(out, "    \"queries\": %zu,\n", f.batch_queries.size());
  std::fprintf(out, "    \"resolved\": %zu,\n", resolved);
  std::fprintf(out, "    \"suffix_matches\": %zu,\n", suffix_matches);
  std::fprintf(out, "    \"best_wall_ms\": %.3f,\n", best_ms);
  std::fprintf(out, "    \"queries_per_second\": %.0f,\n", qps);
  std::fprintf(out, "    \"peak_rss_kb\": %ld\n", rss_batch_kb);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"resolve_pipeline\": {\n");
  std::fprintf(out, "    \"note\": \"software-pipelined batch loop vs the scalar "
                    "reference (ResolveBatchScalar), interleaved in the same passes "
                    "so frequency/cache drift cancels; matches_scalar_resolved "
                    "deep-compares every result slot (route view identity, via, "
                    "suffix_match) at every window; the 1986-scale table is "
                    "L2-resident, so the win here is modest — scaled_4x below shows "
                    "the same loop where the probe path has DRAM latency to hide\",\n");
  std::fprintf(out, "    \"queries\": %zu,\n", f.batch_queries.size());
  std::fprintf(out, "    \"peak_rss_kb\": %ld,\n", rss_pipeline_kb);
  std::fprintf(out, "    \"default_window\": %zu,\n", Resolver::kDefaultPipelineWindow);
  std::fprintf(out, "    \"scalar_best_wall_ms\": %.3f,\n", pipe_scalar_best_ms);
  std::fprintf(out, "    \"scalar_queries_per_second\": %.0f,\n",
               static_cast<double>(f.batch_queries.size()) / (pipe_scalar_best_ms / 1000.0));
  std::fprintf(out, "    \"windows\": [\n");
  for (size_t w = 0; w < kPipeWindowCount; ++w) {
    std::fprintf(out,
                 "      {\"window\": %zu, \"best_wall_ms\": %.3f, "
                 "\"queries_per_second\": %.0f, \"speedup_vs_scalar\": %.3f, "
                 "\"matches_scalar_resolved\": %s}%s\n",
                 kPipeWindows[w], pipe_best_ms[w],
                 static_cast<double>(f.batch_queries.size()) / (pipe_best_ms[w] / 1000.0),
                 pipe_best_ms[w] > 0.0 ? pipe_scalar_best_ms / pipe_best_ms[w] : 0.0,
                 pipe_matches[w] ? "true" : "false",
                 w + 1 < kPipeWindowCount ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out, "    \"best_window\": %zu,\n", pipe_best_window);
  std::fprintf(out, "    \"best_speedup_vs_scalar\": %.3f,\n",
               pipe_best_window_ms > 0.0 ? pipe_scalar_best_ms / pipe_best_window_ms : 0.0);
  std::fprintf(out, "    \"matches_scalar_resolved\": %s,\n",
               pipe_matches_all ? "true" : "false");
  std::fprintf(out, "    \"cache_miss_counters\": {\n");
  std::fprintf(out, "      \"available\": %s,\n",
               miss_counter.available() ? "true" : "false");
  if (miss_counter.available()) {
    std::fprintf(out, "      \"scalar_misses_per_lookup\": %.3f,\n",
                 scalar_misses_per_lookup);
    std::fprintf(out, "      \"pipelined_misses_per_lookup\": %.3f\n",
                 pipelined_misses_per_lookup);
  } else {
    std::fprintf(out, "      \"note\": \"perf_event_open denied by this "
                      "container; wall-clock is the fallback measurement\"\n");
  }
  std::fprintf(out, "    },\n");
  std::fprintf(out, "    \"probe_stats\": {\n");
  std::fprintf(out, "      \"compiled_in\": %s%s\n",
               ResolvePipelineStats::compiled_in() ? "true" : "false",
               ResolvePipelineStats::compiled_in() ? "," : "");
  if (ResolvePipelineStats::compiled_in()) {
    std::fprintf(out, "      \"lookups\": %llu,\n",
                 static_cast<unsigned long long>(pipe_stats.lookups));
    std::fprintf(out, "      \"slot_collisions\": %llu,\n",
                 static_cast<unsigned long long>(pipe_stats.slot_collisions));
    std::fprintf(out, "      \"candidate_rejects\": %llu,\n",
                 static_cast<unsigned long long>(pipe_stats.candidate_rejects));
    std::fprintf(out, "      \"window_retirements\": %llu,\n",
                 static_cast<unsigned long long>(pipe_stats.window_retirements));
    std::fprintf(out, "      \"deferred_queries\": %llu,\n",
                 static_cast<unsigned long long>(pipe_stats.deferred_queries));
    std::fprintf(out, "      \"suffix_memo_hits\": %llu\n",
                 static_cast<unsigned long long>(pipe_stats.suffix_memo_hits));
  }
  std::fprintf(out, "    },\n");
  std::fprintf(out, "    \"scaled_4x\": {\n");
  std::fprintf(out, "      \"note\": \"same mixed workload over a ~4x map "
                    "(probe table outgrows L2): the window's overlapped misses "
                    "pay where there is latency to hide; best of 5 interleaved "
                    "passes, every result slot compared\",\n");
  std::fprintf(out, "      \"routes\": %zu,\n", scaled_4x_routes);
  std::fprintf(out, "      \"queries\": %zu,\n", f.batch_queries.size());
  std::fprintf(out, "      \"scalar_best_wall_ms\": %.3f,\n", scaled_4x.scalar_ms);
  std::fprintf(out, "      \"pipelined_best_wall_ms\": %.3f,\n", scaled_4x.pipelined_ms);
  std::fprintf(out, "      \"speedup\": %.3f,\n",
               scaled_4x.pipelined_ms > 0.0 ? scaled_4x.scalar_ms / scaled_4x.pipelined_ms
                                            : 0.0);
  std::fprintf(out, "      \"matches_scalar_resolved\": %s\n",
               scaled_4x.matches ? "true" : "false");
  std::fprintf(out, "    },\n");
  std::fprintf(out, "    \"shapes\": {\n");
  std::fprintf(out, "      \"note\": \"the shapes the window splits on: known "
                    "hosts retire inside it, strangers (under known domains, and "
                    "dotted misses) all leave it for the deferred pass, and distinct "
                    "strangers (s.x<i> under a known domain or .example) leave it "
                    "sharing no suffix memo entry; scalar vs the default window, best "
                    "of 5 interleaved passes, every result slot compared\",\n");
  std::fprintf(out, "      \"queries\": %zu,\n", f.batch_queries.size());
  std::fprintf(out, "      \"points\": [\n");
  for (size_t i = 0; i < shapes.size(); ++i) {
    const ShapePoint& point = shapes[i];
    std::fprintf(out,
                 "        {\"shape\": \"%s\", \"scale\": %d, \"routes\": %zu, "
                 "\"scalar_best_wall_ms\": %.3f, \"pipelined_best_wall_ms\": %.3f, "
                 "\"speedup\": %.3f, \"matches_scalar_resolved\": %s}%s\n",
                 point.shape, point.scale, point.routes, point.timing.scalar_ms,
                 point.timing.pipelined_ms,
                 point.timing.pipelined_ms > 0.0
                     ? point.timing.scalar_ms / point.timing.pipelined_ms
                     : 0.0,
                 point.timing.matches ? "true" : "false", i + 1 < shapes.size() ? "," : "");
  }
  std::fprintf(out, "      ]\n");
  std::fprintf(out, "    }\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"has_repeated_host\": {\n");
  std::fprintf(out, "    \"note\": \"reply-path loop test: the inline quadratic "
                    "scan vs the per-call unordered_set it replaced, all-distinct "
                    "paths (worst case), ns per call, best of 3\",\n");
  std::fprintf(out, "    \"peak_rss_kb\": %ld,\n", rss_repeat_scan_kb);
  std::fprintf(out, "    \"points\": [\n");
  for (size_t i = 0; i < repeat_scan.size(); ++i) {
    const RepeatScanPoint& point = repeat_scan[i];
    std::fprintf(out,
                 "      {\"hops\": %zu, \"scan_ns\": %.1f, \"set_ns\": %.1f, "
                 "\"speedup\": %.1f}%s\n",
                 point.hops, point.scan_ns, point.set_ns,
                 point.scan_ns > 0.0 ? point.set_ns / point.scan_ns : 0.0,
                 i + 1 < repeat_scan.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"parallel_batch\": {\n");
  std::fprintf(out, "    \"note\": \"batch engine (src/exec), cache off: one "
                    "contiguous range per thread, each through the resolver's window, "
                    "output byte-identical to the serial path; hardware_threads is what "
                    "this container exposes — scaling flattens at that line\",\n");
  std::fprintf(out, "    \"hardware_threads\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(out, "    \"peak_rss_kb\": %ld,\n", rss_parallel_kb);
  std::fprintf(out, "    \"serial_reference_resolved\": %zu,\n", resolved);
  std::fprintf(out, "    \"scaling\": [\n");
  for (size_t i = 0; i < scaling.size(); ++i) {
    const auto& point = scaling[i];
    std::fprintf(out,
                 "      {\"threads\": %d, \"best_wall_ms\": %.3f, "
                 "\"queries_per_second\": %.0f, \"resolved\": %zu, "
                 "\"matches_serial_resolved\": %s}%s\n",
                 point.threads, point.ms,
                 static_cast<double>(f.batch_queries.size()) / (point.ms / 1000.0),
                 point.resolved, point.resolved == resolved ? "true" : "false",
                 i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n");
  std::fprintf(out, "    \"speedup_8_threads_vs_1\": %.2f\n",
               scaling.back().ms > 0.0 ? scaling.front().ms / scaling.back().ms : 0.0);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"cache_sweep\": {\n");
  std::fprintf(out, "    \"note\": \"hot-set workloads (hot_permille/1000 of queries "
                    "cycle a %zu-host hot set), one shard, per-shard CLOCK cache of "
                    "%zu entries vs cache off; identical resolved counts by "
                    "construction\",\n",
               f.hot_hosts.size(), kSweepCacheEntries);
  std::fprintf(out, "    \"peak_rss_kb\": %ld,\n", rss_sweep_kb);
  std::fprintf(out, "    \"points\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const auto& point = sweep[i];
    std::fprintf(out,
                 "      {\"hot_permille\": %d, \"cache_off_best_wall_ms\": %.3f, "
                 "\"cache_off_queries_per_second\": %.0f, \"cache_on_best_wall_ms\": %.3f, "
                 "\"cache_on_queries_per_second\": %.0f, \"hit_rate\": %.4f, "
                 "\"speedup\": %.2f, \"matches_resolved\": %s}%s\n",
                 point.hot_permille, point.off_ms,
                 static_cast<double>(f.batch_queries.size()) / (point.off_ms / 1000.0),
                 point.on_ms,
                 static_cast<double>(f.batch_queries.size()) / (point.on_ms / 1000.0),
                 point.hit_rate, point.on_ms > 0.0 ? point.off_ms / point.on_ms : 0.0,
                 point.off_resolved == point.on_resolved ? "true" : "false",
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"cold_start\": {\n");
  std::fprintf(out, "    \"note\": \"startup through first lookup: parse+intern the "
                    "route text (RouteSet::FromText + Find) vs open+mmap+validate the "
                    "frozen image + Resolver::Lookup; best of %d\",\n",
               kPasses);
  std::fprintf(out, "    \"routes\": %zu,\n", f.routes.size());
  std::fprintf(out, "    \"peak_rss_kb\": %ld,\n", rss_cold_start_kb);
  std::fprintf(out, "    \"image_bytes\": %llu,\n",
               static_cast<unsigned long long>(f.image->view().header().file_size));
  std::fprintf(out, "    \"parse_intern_ms\": %.3f,\n", parse_ms);
  std::fprintf(out, "    \"image_open_ms\": %.3f,\n", image_ms);
  std::fprintf(out, "    \"speedup\": %.1f\n", image_ms > 0.0 ? parse_ms / image_ms : 0.0);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"incremental_update\": {\n");
  std::fprintf(out, "    \"note\": \"1-file edit (one link recost) on a sparse "
                    "%zu-host map over %zu site files, applied to a warm src/incr "
                    "MapBuilder (byte check, parse of every kept file, map, emit, "
                    "route-set delta) vs the full "
                    "lex+parse+map+emit pipeline; best of %d\",\n",
               incremental_bench.hosts, incremental_bench.files.size(), kPasses);
  std::fprintf(out, "    \"hosts\": %zu,\n", incremental_bench.hosts);
  std::fprintf(out, "    \"site_files\": %zu,\n", incremental_bench.files.size());
  std::fprintf(out, "    \"peak_rss_kb\": %ld,\n", rss_incremental_kb);
  std::fprintf(out, "    \"routes\": %zu,\n", incremental.routes);
  std::fprintf(out, "    \"routes_changed\": %zu,\n", incremental.routes_changed);
  std::fprintf(out, "    \"update_best_wall_ms\": %.3f,\n", incremental.update_best_ms);
  std::fprintf(out, "    \"full_rebuild_best_wall_ms\": %.3f,\n",
               incremental.full_rebuild_best_ms);
  std::fprintf(out, "    \"batch_pipeline_best_wall_ms\": %.3f,\n",
               incremental.batch_pipeline_best_ms);
  std::fprintf(out, "    \"refreeze_best_wall_ms\": %.3f,\n", incremental.refreeze_best_ms);
  // Against the cheaper (plain batch pipeline) baseline — the conservative number.
  std::fprintf(out, "    \"speedup\": %.1f\n",
               incremental.update_best_ms > 0.0
                   ? std::min(incremental.full_rebuild_best_ms,
                              incremental.batch_pipeline_best_ms) /
                         incremental.update_best_ms
                   : 0.0);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"resolve_trace\": {\n");
  std::fprintf(out, "    \"addresses\": %zu,\n", f.trace.size());
  std::fprintf(out, "    \"resolved\": %zu,\n", trace_resolved);
  std::fprintf(out, "    \"wall_ms\": %.3f,\n", trace_ms);
  std::fprintf(out, "    \"peak_rss_kb\": %ld\n", rss_trace_kb);
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"daemon_latency\": {\n");
  std::fprintf(out, "    \"note\": \"closed-loop round trips through an in-process "
                    "routedbd over a unix-domain datagram socket, serving the same "
                    "frozen image (result cache on): encode + sendto + poll + drain + "
                    "coalesce + resolve + reply + decode; lower is better, ms per "
                    "request, %zu/%zu timed requests after 10%% warmup; open_loop_* "
                    "sends on a fixed schedule regardless of reply arrival and measures "
                    "from the scheduled send time (coordinated-omission-free), dropped "
                    "counts requests with no reply\",\n",
               daemon_single.requests, daemon_batch32.requests);
  std::fprintf(out, "    \"peak_rss_kb\": %ld,\n", rss_daemon_kb);
  std::fprintf(out, "    \"single_query\": {\n");
  std::fprintf(out, "      \"ok\": %s,\n", daemon_single.ok ? "true" : "false");
  if (!daemon_single.ok) {
    std::fprintf(out, "      \"error\": \"%s\",\n", daemon_single.error.c_str());
  }
  std::fprintf(out, "      \"requests\": %zu,\n", daemon_single.requests);
  std::fprintf(out, "      \"resolved\": %zu,\n", daemon_single.resolved);
  std::fprintf(out, "      \"p50_ms\": %.4f,\n", daemon_single.p50_ms);
  std::fprintf(out, "      \"p99_ms\": %.4f,\n", daemon_single.p99_ms);
  std::fprintf(out, "      \"max_ms\": %.4f,\n", daemon_single.max_ms);
  std::fprintf(out, "      \"mean_ms\": %.4f\n", daemon_single.mean_ms);
  std::fprintf(out, "    },\n");
  std::fprintf(out, "    \"batch_32_queries\": {\n");
  std::fprintf(out, "      \"ok\": %s,\n", daemon_batch32.ok ? "true" : "false");
  if (!daemon_batch32.ok) {
    std::fprintf(out, "      \"error\": \"%s\",\n", daemon_batch32.error.c_str());
  }
  std::fprintf(out, "      \"requests\": %zu,\n", daemon_batch32.requests);
  std::fprintf(out, "      \"queries_per_request\": %zu,\n",
               daemon_batch32.queries_per_request);
  std::fprintf(out, "      \"resolved\": %zu,\n", daemon_batch32.resolved);
  std::fprintf(out, "      \"p50_ms\": %.4f,\n", daemon_batch32.p50_ms);
  std::fprintf(out, "      \"p99_ms\": %.4f,\n", daemon_batch32.p99_ms);
  std::fprintf(out, "      \"max_ms\": %.4f,\n", daemon_batch32.max_ms);
  std::fprintf(out, "      \"mean_ms\": %.4f\n", daemon_batch32.mean_ms);
  std::fprintf(out, "    },\n");
  std::fprintf(out, "    \"open_loop_20k_per_second\": {\n");
  std::fprintf(out, "      \"ok\": %s,\n", daemon_open.ok ? "true" : "false");
  if (!daemon_open.ok) {
    std::fprintf(out, "      \"error\": \"%s\",\n", daemon_open.error.c_str());
  }
  std::fprintf(out, "      \"requests\": %zu,\n", daemon_open.requests);
  std::fprintf(out, "      \"offered_rate_per_second\": %zu,\n",
               daemon_open.offered_rate_per_second);
  std::fprintf(out, "      \"replies\": %zu,\n", daemon_open.replies);
  std::fprintf(out, "      \"dropped\": %zu,\n", daemon_open.dropped);
  std::fprintf(out, "      \"client_send_drops\": %zu,\n", daemon_open.client_send_drops);
  std::fprintf(out, "      \"daemon_send_drops\": %zu,\n", daemon_open.daemon_send_drops);
  std::fprintf(out, "      \"p50_ms\": %.4f,\n", daemon_open.p50_ms);
  std::fprintf(out, "      \"p99_ms\": %.4f,\n", daemon_open.p99_ms);
  std::fprintf(out, "      \"max_ms\": %.4f\n", daemon_open.max_ms);
  std::fprintf(out, "    },\n");
  std::fprintf(out, "    \"offered_load_curve\": {\n");
  std::fprintf(out, "      \"note\": \"4 client sockets, aggregate send rate swept "
                    "from under-load into overload, ~0.5s per point; latency is from "
                    "the scheduled send time; drop_rate counts requests that never got "
                    "a terminal reply, overload_replies counts header-only sheds "
                    "(kReplyFlagOverloaded) the client had to retransmit through\",\n");
  std::fprintf(out, "      \"points\": [\n");
  for (size_t i = 0; i < daemon_curve.size(); ++i) {
    const bench_daemon::OpenLoopStats& point = daemon_curve[i];
    std::fprintf(out, "        {\n");
    std::fprintf(out, "          \"ok\": %s,\n", point.ok ? "true" : "false");
    if (!point.ok) {
      std::fprintf(out, "          \"error\": \"%s\",\n", point.error.c_str());
    }
    std::fprintf(out, "          \"offered_rate_per_second\": %zu,\n",
                 point.offered_rate_per_second);
    std::fprintf(out, "          \"clients\": %zu,\n", point.clients);
    std::fprintf(out, "          \"requests\": %zu,\n", point.requests);
    std::fprintf(out, "          \"replies\": %zu,\n", point.replies);
    std::fprintf(out, "          \"dropped\": %zu,\n", point.dropped);
    std::fprintf(out, "          \"drop_rate\": %.4f,\n",
                 point.requests != 0
                     ? static_cast<double>(point.dropped) /
                           static_cast<double>(point.requests)
                     : 0.0);
    std::fprintf(out, "          \"overload_replies\": %zu,\n", point.overload_replies);
    std::fprintf(out, "          \"client_send_drops\": %zu,\n",
                 point.client_send_drops);
    std::fprintf(out, "          \"daemon_send_drops\": %zu,\n",
                 point.daemon_send_drops);
    std::fprintf(out, "          \"p50_ms\": %.4f,\n", point.p50_ms);
    std::fprintf(out, "          \"p99_ms\": %.4f,\n", point.p99_ms);
    std::fprintf(out, "          \"max_ms\": %.4f\n", point.max_ms);
    std::fprintf(out, "        }%s\n", i + 1 < daemon_curve.size() ? "," : "");
  }
  std::fprintf(out, "      ]\n");
  std::fprintf(out, "    }\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"sharded_mapping\": {\n");
  std::fprintf(out, "    \"note\": \"the domain-sharded parallel mapper over mapgen "
                    "--profile usenet-scale maps: full pipeline wall "
                    "(parse+graph+map+emit), serial vs --shards N, byte-identity "
                    "checked per point (all_identical is the CI assertion); the "
                    "million-host row is the acceptance point and dominates "
                    "peak_rss_kb; audit_scaling pins the superlinear fix — the "
                    "indexed inbound tally vs a timed replica of the retired "
                    "per-candidate link rescan on the same 100k graph\",\n");
  std::fprintf(out, "    \"hardware_threads\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(out, "    \"all_identical\": %s,\n", sharded_all_identical ? "true" : "false");
  std::fprintf(out, "    \"audit_scaling\": {\n");
  std::fprintf(out, "      \"hosts\": 100000,\n");
  std::fprintf(out, "      \"links\": %zu,\n", audit_scaling.links);
  std::fprintf(out, "      \"candidates\": %zu,\n", audit_scaling.candidates);
  std::fprintf(out, "      \"indexed_audit_ms\": %.3f,\n", audit_scaling.indexed_ms);
  std::fprintf(out, "      \"per_candidate_rescan_reference_ms\": %.3f,\n",
               audit_scaling.rescan_reference_ms);
  std::fprintf(out, "      \"speedup\": %.1f\n",
               audit_scaling.indexed_ms > 0.0
                   ? audit_scaling.rescan_reference_ms / audit_scaling.indexed_ms
                   : 0.0);
  std::fprintf(out, "    },\n");
  std::fprintf(out, "    \"rows\": [\n");
  for (size_t r = 0; r < sharded_rows.size(); ++r) {
    const ShardedMapRow& row = sharded_rows[r];
    std::fprintf(out, "      {\n");
    std::fprintf(out, "        \"hosts\": %zu,\n", row.hosts);
    std::fprintf(out, "        \"nodes\": %zu,\n", row.nodes);
    std::fprintf(out, "        \"links\": %zu,\n", row.links);
    std::fprintf(out, "        \"route_bytes\": %zu,\n", row.route_bytes);
    std::fprintf(out, "        \"serial_wall_ms\": %.1f,\n", row.serial_wall_ms);
    std::fprintf(out, "        \"emission_ms\": %.1f,\n", row.emission_ms);
    std::fprintf(out, "        \"peak_rss_kb\": %ld,\n", row.peak_rss_kb);
    std::fprintf(out, "        \"points\": [\n");
    for (size_t p = 0; p < row.points.size(); ++p) {
      const ShardedMapPoint& point = row.points[p];
      std::fprintf(out,
                   "          {\"shards\": %d, \"wall_ms\": %.1f, \"identical\": %s, "
                   "\"engaged\": %s, \"rounds\": %zu, \"cross_offers\": %zu}%s\n",
                   point.shards, point.wall_ms, point.identical ? "true" : "false",
                   point.engaged ? "true" : "false", point.rounds, point.cross_offers,
                   p + 1 < row.points.size() ? "," : "");
    }
    std::fprintf(out, "        ]\n");
    std::fprintf(out, "      }%s\n", r + 1 < sharded_rows.size() ? "," : "");
  }
  std::fprintf(out, "    ]\n");
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"route_count\": %zu,\n", f.routes.size());
  std::fprintf(out, "  \"pre_refactor_reference\": {\n");
  std::fprintf(out, "    \"note\": \"seed build (string-keyed RouteSet, per-query "
                    "substring re-hashing), measured on the same container before the "
                    "NameId refactor; no batch API existed, so the single-query trace and "
                    "indexed lookup are the comparable paths\",\n");
  std::fprintf(out, "    \"lookup_indexed_set_items_per_second\": 24650000,\n");
  std::fprintf(out, "    \"resolve_trace_first_hop_items_per_second\": 2483000,\n");
  std::fprintf(out, "    \"resolve_trace_rightmost_known_items_per_second\": 2172000,\n");
  std::fprintf(out, "    \"bench_mapping_sparse_heap_8000_wall_ms\": 4.39\n");
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote BENCH_resolver.json: %zu queries, %zu resolved (%zu via domain "
              "suffix), best %.1f ms, %.2fM queries/s\n",
              f.batch_queries.size(), resolved, suffix_matches, best_ms, qps / 1e6);
  std::printf("pipeline: scalar %.1f ms, best window %zu at %.1f ms (%.2fx), "
              "results %s; 4x map %.1f -> %.1f ms (%.2fx)\n",
              pipe_scalar_best_ms, pipe_best_window, pipe_best_window_ms,
              pipe_best_window_ms > 0.0 ? pipe_scalar_best_ms / pipe_best_window_ms : 0.0,
              pipe_matches_all ? "byte-identical" : "MISMATCH",
              scaled_4x.scalar_ms, scaled_4x.pipelined_ms,
              scaled_4x.pipelined_ms > 0.0 ? scaled_4x.scalar_ms / scaled_4x.pipelined_ms
                                           : 0.0);
  for (const ShapePoint& point : shapes) {
    std::printf("pipeline %s at %dx: scalar %.1f ms, window %zu %.1f ms (%.2fx), results %s\n",
                point.shape, point.scale, point.timing.scalar_ms, Resolver::kDefaultPipelineWindow,
                point.timing.pipelined_ms,
                point.timing.pipelined_ms > 0.0
                    ? point.timing.scalar_ms / point.timing.pipelined_ms
                    : 0.0,
                point.timing.matches ? "byte-identical" : "MISMATCH");
  }
  std::printf("cold start %.3f ms image open vs %.3f ms parse+intern (%.1fx)\n", image_ms,
              parse_ms, image_ms > 0.0 ? parse_ms / image_ms : 0.0);
  std::printf("parallel engine (%u hardware threads): ", std::thread::hardware_concurrency());
  for (const auto& point : scaling) {
    std::printf("%dT %.1fM q/s%s", point.threads,
                static_cast<double>(f.batch_queries.size()) / point.ms / 1000.0,
                point.threads == 8 ? "\n" : ", ");
  }
  for (const auto& point : sweep) {
    std::printf("cache sweep %d%% hot: %.1fM -> %.1fM q/s (%.2fx, hit rate %.3f)\n",
                point.hot_permille / 10,
                static_cast<double>(f.batch_queries.size()) / point.off_ms / 1000.0,
                static_cast<double>(f.batch_queries.size()) / point.on_ms / 1000.0,
                point.on_ms > 0.0 ? point.off_ms / point.on_ms : 0.0, point.hit_rate);
  }
  std::printf("incremental update (%zu hosts, %zu files): 1-file edit in %.3f ms vs "
              "%.3f ms batch pipeline / %.3f ms full rebuild (%.1fx); refreeze %.3f ms\n",
              incremental_bench.hosts, incremental_bench.files.size(),
              incremental.update_best_ms, incremental.batch_pipeline_best_ms,
              incremental.full_rebuild_best_ms,
              incremental.update_best_ms > 0.0
                  ? std::min(incremental.full_rebuild_best_ms,
                             incremental.batch_pipeline_best_ms) /
                        incremental.update_best_ms
                  : 0.0,
              incremental.refreeze_best_ms);
  if (daemon_single.ok && daemon_batch32.ok) {
    std::printf("daemon latency (unix socket, closed loop): 1 query p50 %.0f us / "
                "p99 %.0f us; 32 queries p50 %.0f us / p99 %.0f us per request\n",
                daemon_single.p50_ms * 1000.0, daemon_single.p99_ms * 1000.0,
                daemon_batch32.p50_ms * 1000.0, daemon_batch32.p99_ms * 1000.0);
  } else {
    std::printf("daemon latency: FAILED (%s / %s)\n", daemon_single.error.c_str(),
                daemon_batch32.error.c_str());
  }
  if (daemon_open.ok) {
    std::printf("daemon latency (open loop, %zu req/s offered): p50 %.0f us / "
                "p99 %.0f us, %zu/%zu replies, %zu dropped\n",
                daemon_open.offered_rate_per_second, daemon_open.p50_ms * 1000.0,
                daemon_open.p99_ms * 1000.0, daemon_open.replies,
                daemon_open.requests, daemon_open.dropped);
  } else {
    std::printf("daemon open-loop latency: FAILED (%s)\n", daemon_open.error.c_str());
  }
  for (const ShardedMapRow& row : sharded_rows) {
    std::printf("sharded mapping %zu hosts (%zu nodes, %zu links): serial %.0f ms",
                row.hosts, row.nodes, row.links, row.serial_wall_ms);
    for (const ShardedMapPoint& point : row.points) {
      std::printf(", %d shards %.0f ms (%s)", point.shards, point.wall_ms,
                  point.identical ? "identical" : "MISMATCH");
    }
    std::printf("; peak RSS %.0f MiB\n", static_cast<double>(row.peak_rss_kb) / 1024.0);
  }
  std::printf("audit at 100k hosts: indexed %.1f ms vs per-candidate rescan %.0f ms "
              "(%zu candidates x %zu links)\n",
              audit_scaling.indexed_ms, audit_scaling.rescan_reference_ms,
              audit_scaling.candidates, audit_scaling.links);
}

}  // namespace

BENCHMARK(BM_LinearScanLookup)->Name("lookup/linear_scan")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IndexedLookup)->Name("lookup/indexed_set")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ResolveTrace)->Name("resolve_trace/first_hop")->Arg(0)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ResolveTrace)->Name("resolve_trace/rightmost_known")->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BatchResolve)->Name("resolve_batch/mixed_1e6")->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PipelinedBatchResolve)
    ->Name("resolve_batch/pipelined")
    ->Arg(0)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Arg(24)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HasRepeatedHostScan)
    ->Name("reply_path/has_repeated_host_scan")
    ->Arg(2)->Arg(8)->Arg(24)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_HasRepeatedHostSet)
    ->Name("reply_path/has_repeated_host_set")
    ->Arg(2)->Arg(8)->Arg(24)
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_ParallelBatchResolve)
    ->Name("resolve_batch/sharded")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_HotSetBatchResolve)
    ->Name("resolve_batch/hot_set")
    ->Args({900, 0})->Args({900, 4096})->Args({990, 0})->Args({990, 4096})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdStartParseIntern)
    ->Name("cold_start/parse_intern")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdStartImageOpen)
    ->Name("cold_start/image_open")
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  pathalias::bench::PrintHeader(
      "E13: route database retrieval and address resolution",
      "pathalias output converted to a constant DB gives 'rapid database retrieval'; "
      "resolution follows the exact-then-domain-suffix order of the paper");
  std::printf("route list: %zu routes; frozen .pari image: %llu KiB\n\n",
              GetFixture().routes.size(),
              static_cast<unsigned long long>(GetFixture().image->view().header().file_size /
                                              1024));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteBenchJson();
  std::remove(GetFixture().pari_path.c_str());
  return 0;
}
