// Shared pieces of the perfbench harness: clocks, sample statistics, metric
// lists, JSON output, the span tracer, the reference resolver, and the seeded
// query pools the serving workloads draw from.
//
// Nothing here calls into the serving path.  The reference resolver in
// particular is built from route text alone (a hash map plus the paper's
// domain-suffix walk), so a serving bug cannot also corrupt the answer the
// benchmark compares it with.

#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- statistics -------------------------------------------------------------

// Nearest-rank quantile of `samples` (sorted in place).  0 for an empty set.
double Quantile(std::vector<double>& samples, double q);
double Median(std::vector<double> samples);
// The percentile rule every timing follows: quantile q is reported only when at
// least ten samples lie beyond it.
inline bool TailReportable(size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= 10.0;
}

// Latency samples in constant memory, so that a faster run does not grow the
// process (peak RSS is a metric): log-linear buckets 1/1024 wide in relative
// terms, with the quantile interpolated inside its bucket.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kExponents * kSubBuckets, 0) {}
  void Record(int64_t ns);
  uint64_t count() const { return count_; }
  // Quantile q in milliseconds; 0 when empty.
  double QuantileMs(double q) const;

 private:
  static constexpr int kSubBits = 10;
  static constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBits;
  static constexpr int kExponents = 64 - kSubBits;
  std::vector<uint64_t> counts_;
  uint64_t count_ = 0;
};

// The timed loop's rate, cut into fixed windows.  A burst of host contention
// slows the windows it falls in; the median window rate does not follow it.
class Windows {
 public:
  explicit Windows(double window_s = 0.5) : window_ns_(static_cast<int64_t>(window_s * 1e9)) {}
  // Call once per turn with the running item count; closes a window when due.
  void Tick(uint64_t items);
  double MedianRate() const { return Median(rates_); }
  size_t windows() const { return rates_.size(); }

 private:
  int64_t window_ns_;
  int64_t start_ns_ = 0;
  uint64_t start_items_ = 0;
  std::vector<double> rates_;
};

// ---- metrics ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Insertion-ordered name -> (value, unit); Set on an existing name overwrites.
class MetricList {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::optional<double> Get(const std::string& name) const;
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

std::string JsonString(std::string_view text);
std::string JsonNumber(double value);
// {"name": {"value": v, "unit": "u"}, ...}
std::string MetricsJson(const MetricList& metrics);

// ---- tracing --------------------------------------------------------------------

// In-memory spans around the benchmark's calls into the program.  Each closed
// span adds its duration to its name's total and its duration minus its
// children's to its name's self time; the raw records (capped) are written out
// once, at exit.  A disabled tracer makes Span a single predictable branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Span {
   public:
    Span(Tracer& tracer, const char* name) : tracer_(tracer.enabled_ ? &tracer : nullptr) {
      if (tracer_ != nullptr) {
        tracer_->Open(name);
      }
    }
    ~Span() {
      if (tracer_ != nullptr) {
        tracer_->Close();
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
  };

  struct Totals {
    const char* name = nullptr;
    double total_ns = 0.0;
    double self_ns = 0.0;
    uint64_t count = 0;
  };

  // Totals for `name`, zero when it never closed.
  Totals Get(const char* name) const;
  const std::vector<Totals>& totals() const { return totals_; }
  // Adds a duration measured outside a Span (already-timed work) as a leaf.
  void AddLeaf(const char* name, int64_t ns);
  // Raw records, one JSON object per line.
  bool Write(const std::string& path) const;

 private:
  struct OpenSpan {
    int name;
    int64_t start_ns;
    int64_t child_ns;
    int32_t record;
  };
  struct Record {
    int32_t name;
    int32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  static constexpr size_t kMaxRecords = size_t{1} << 20;

  int NameIndex(const char* name);
  void Open(const char* name);
  void Close();

  bool enabled_;
  std::vector<Totals> totals_;
  std::vector<OpenSpan> stack_;
  std::vector<Record> records_;
  uint64_t dropped_records_ = 0;
};

// ---- reference resolver ---------------------------------------------------------

// Reply statuses, numbered as the wire format numbers them (src/net/wire.h).
enum : uint8_t { kRefMiss = 0, kRefExact = 1, kRefSuffix = 2 };

struct RefAnswer {
  uint8_t status = kRefMiss;
  std::string_view via;
  std::string_view route;
};

// One answer as a 64-bit fingerprint: what the drivers compare replies with.
uint64_t AnswerHash(uint8_t status, std::string_view via, std::string_view route);

// FNV-1a 64 over `bytes`: the benchmark's own digest, independent of the program.
uint64_t Fnv1a64(std::string_view bytes);

class ReferenceRoutes {
 public:
  // Parses pathalias output ("name<TAB>route" or "cost<TAB>name<TAB>route"
  // lines); a later line for a name replaces an earlier one.
  explicit ReferenceRoutes(std::string text);
  ReferenceRoutes(const ReferenceRoutes&) = delete;
  ReferenceRoutes& operator=(const ReferenceRoutes&) = delete;

  // Exact name first, then each dotted suffix, longest first (paper §Domains).
  RefAnswer Resolve(std::string_view query) const;
  // Every routed name, in first-appearance order.
  const std::vector<std::string_view>& keys() const { return keys_; }

 private:
  std::string text_;
  std::unordered_map<std::string_view, std::string_view> routes_;
  std::vector<std::string_view> keys_;
};

// ---- query pools ------------------------------------------------------------------

// The destinations a serving workload sends, with the reference answer for each.
// `stream` is the send order: Zipf (s = 1) draws over a rank space the size of
// the routed-name set.  About 70% of ranks are exact routed names, 20% unknown
// hosts under a routed domain (answered by suffix), 10% unknown names.
struct QueryPool {
  std::vector<std::string> names;
  std::vector<uint64_t> expected;  // AnswerHash of the reference answer per name
  std::vector<uint32_t> stream;    // indices into names
  size_t exact = 0, suffix = 0, miss = 0;  // reference outcome counts over names
};

QueryPool BuildQueryPool(const ReferenceRoutes& reference, uint64_t seed, size_t stream_length);
bool SavePool(const QueryPool& pool, const std::string& path);
std::optional<QueryPool> LoadPool(const std::string& path);

// splitmix64: the benchmark's seeded generator.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

// ---- process facts -------------------------------------------------------------

double PeakRssMib();          // ru_maxrss of this process
int64_t MinorFaults();        // ru_minflt of this process
int PinToOneCpu();            // pins the calling thread; returns the CPU or -1
std::string ReadFirstLine(const std::string& path);
std::string CpuModel();
std::string FilesystemType(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
