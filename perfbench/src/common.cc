#include "perfbench/src/common.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <numeric>

namespace perfbench {

// ---- statistics -------------------------------------------------------------

double Quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  double rank = std::ceil(q * static_cast<double>(samples.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Median(std::vector<double> samples) { return Quantile(samples, 0.5); }

void LatencyHistogram::Record(int64_t ns) {
  uint64_t value = ns < 1 ? 1 : static_cast<uint64_t>(ns);
  int top = 63 - __builtin_clzll(value);
  uint64_t index;
  if (top < kSubBits) {
    index = value;  // exact below 2^kSubBits ns
  } else {
    int shift = top - kSubBits;
    index = (static_cast<uint64_t>(shift + 1) << kSubBits) + ((value >> shift) - kSubBuckets);
  }
  ++counts_[std::min<uint64_t>(index, counts_.size() - 1)];
  ++count_;
}

double LatencyHistogram::QuantileMs(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  double rank = std::max(1.0, std::ceil(q * static_cast<double>(count_)));
  uint64_t seen = 0;
  for (uint64_t index = 0; index < counts_.size(); ++index) {
    if (counts_[index] == 0 || static_cast<double>(seen + counts_[index]) < rank) {
      seen += counts_[index];
      continue;
    }
    // Bucket bounds in ns, then the rank's position inside the bucket.
    double low;
    double width;
    if (index < kSubBuckets) {
      low = static_cast<double>(index);
      width = 1.0;
    } else {
      int shift = static_cast<int>(index >> kSubBits) - 1;
      low = static_cast<double>((kSubBuckets + (index & (kSubBuckets - 1))) << shift);
      width = static_cast<double>(uint64_t{1} << shift);
    }
    double within = (rank - static_cast<double>(seen)) / static_cast<double>(counts_[index]);
    return (low + within * width) / 1e6;
  }
  return 0.0;
}

void Windows::Tick(uint64_t items) {
  int64_t now = NowNs();
  if (start_ns_ == 0) {
    start_ns_ = now;
    start_items_ = items;
    return;
  }
  if (now - start_ns_ < window_ns_) {
    return;
  }
  rates_.push_back(static_cast<double>(items - start_items_) /
                   (static_cast<double>(now - start_ns_) / 1e9));
  start_ns_ = now;
  start_items_ = items;
}

// ---- metrics ------------------------------------------------------------------

void MetricList::Set(const std::string& name, double value, const std::string& unit) {
  for (Metric& metric : items_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

std::optional<double> MetricList::Get(const std::string& name) const {
  for (const Metric& metric : items_) {
    if (metric.name == name) {
      return metric.value;
    }
  }
  return std::nullopt;
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", static_cast<unsigned>(c));
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char text[40];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

std::string MetricsJson(const MetricList& metrics) {
  std::string out = "{";
  for (const Metric& metric : metrics.items()) {
    if (out.size() > 1) {
      out += ", ";
    }
    out += JsonString(metric.name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

// ---- tracing --------------------------------------------------------------------

int Tracer::NameIndex(const char* name) {
  for (size_t i = 0; i < totals_.size(); ++i) {
    if (totals_[i].name == name || std::strcmp(totals_[i].name, name) == 0) {
      return static_cast<int>(i);
    }
  }
  totals_.push_back(Totals{name, 0.0, 0.0, 0});
  return static_cast<int>(totals_.size() - 1);
}

void Tracer::Open(const char* name) {
  int index = NameIndex(name);
  int32_t record = -1;
  if (records_.size() < kMaxRecords) {
    int32_t parent = stack_.empty() ? -1 : stack_.back().record;
    record = static_cast<int32_t>(records_.size());
    records_.push_back(Record{index, parent, 0, 0});
  } else {
    ++dropped_records_;
  }
  stack_.push_back(OpenSpan{index, NowNs(), 0, record});
  if (record >= 0) {
    records_[static_cast<size_t>(record)].start_ns = stack_.back().start_ns;
  }
}

void Tracer::Close() {
  int64_t end = NowNs();
  OpenSpan span = stack_.back();
  stack_.pop_back();
  int64_t duration = end - span.start_ns;
  Totals& totals = totals_[static_cast<size_t>(span.name)];
  totals.total_ns += static_cast<double>(duration);
  totals.self_ns += static_cast<double>(duration - span.child_ns);
  ++totals.count;
  if (!stack_.empty()) {
    stack_.back().child_ns += duration;
  }
  if (span.record >= 0) {
    records_[static_cast<size_t>(span.record)].end_ns = end;
  }
}

void Tracer::AddLeaf(const char* name, int64_t ns) {
  if (!enabled_) {
    return;
  }
  Totals& totals = totals_[static_cast<size_t>(NameIndex(name))];
  totals.total_ns += static_cast<double>(ns);
  totals.self_ns += static_cast<double>(ns);
  ++totals.count;
  if (!stack_.empty()) {
    stack_.back().child_ns += ns;
  }
}

Tracer::Totals Tracer::Get(const char* name) const {
  for (const Totals& totals : totals_) {
    if (std::strcmp(totals.name, name) == 0) {
      return totals;
    }
  }
  return Totals{name, 0.0, 0.0, 0};
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (const Record& record : records_) {
    out << "{\"name\": " << JsonString(totals_[static_cast<size_t>(record.name)].name)
        << ", \"parent\": " << record.parent << ", \"start_ns\": " << record.start_ns
        << ", \"end_ns\": " << record.end_ns << "}\n";
  }
  out << "{\"dropped_records\": " << dropped_records_ << "}\n";
  return static_cast<bool>(out);
}

// ---- reference resolver ---------------------------------------------------------

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

uint64_t AnswerHash(uint8_t status, std::string_view via, std::string_view route) {
  std::hash<std::string_view> hash;
  uint64_t h = 0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(status) + 1);
  h ^= hash(via) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= hash(route) + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

ReferenceRoutes::ReferenceRoutes(std::string text) : text_(std::move(text)) {
  std::string_view all(text_);
  size_t start = 0;
  while (start < all.size()) {
    size_t end = all.find('\n', start);
    if (end == std::string_view::npos) {
      end = all.size();
    }
    std::string_view line = all.substr(start, end - start);
    start = end + 1;
    size_t last_tab = line.rfind('\t');
    if (last_tab == std::string_view::npos) {
      continue;
    }
    std::string_view route = line.substr(last_tab + 1);
    std::string_view head = line.substr(0, last_tab);
    size_t name_tab = head.rfind('\t');
    std::string_view name = name_tab == std::string_view::npos ? head : head.substr(name_tab + 1);
    auto [it, inserted] = routes_.emplace(name, route);
    if (inserted) {
      keys_.push_back(name);
    } else {
      it->second = route;
    }
  }
}

RefAnswer ReferenceRoutes::Resolve(std::string_view query) const {
  if (auto it = routes_.find(query); it != routes_.end()) {
    return RefAnswer{kRefExact, it->first, it->second};
  }
  for (size_t dot = query.find('.', 1); dot != std::string_view::npos;
       dot = query.find('.', dot + 1)) {
    if (auto it = routes_.find(query.substr(dot)); it != routes_.end()) {
      return RefAnswer{kRefSuffix, it->first, it->second};
    }
  }
  return RefAnswer{};
}

// ---- query pools ------------------------------------------------------------------

namespace {

std::string Base36(uint64_t value) {
  std::string out;
  do {
    out += "0123456789abcdefghijklmnopqrstuvwxyz"[value % 36];
    value /= 36;
  } while (value != 0);
  return out;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  Rng rng(a * 0x9e3779b97f4a7c15ull ^ b);
  return rng.Next();
}

}  // namespace

QueryPool BuildQueryPool(const ReferenceRoutes& reference, uint64_t seed, size_t stream_length) {
  QueryPool pool;
  const std::vector<std::string_view>& keys = reference.keys();
  const size_t ranks = keys.size();
  if (ranks == 0) {
    return pool;
  }
  std::vector<std::string_view> domains;
  for (std::string_view key : keys) {
    if (key.size() > 1 && key.front() == '.') {
      domains.push_back(key);
    }
  }
  std::vector<uint32_t> permutation(ranks);
  std::iota(permutation.begin(), permutation.end(), 0u);
  Rng shuffle(seed ^ 0x5045524d55544531ull);
  for (size_t i = ranks - 1; i > 0; --i) {
    std::swap(permutation[i], permutation[shuffle.Below(i + 1)]);
  }
  // Zipf(s = 1) by inverse CDF over the harmonic prefix sums.
  std::vector<double> cdf(ranks);
  double sum = 0.0;
  for (size_t r = 0; r < ranks; ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    cdf[r] = sum;
  }
  auto name_of_rank = [&](uint64_t rank) -> std::string {
    uint64_t h = Mix(seed, rank);
    uint64_t category = h % 10;
    if (category < 7) {
      return std::string(keys[permutation[rank]]);
    }
    std::string stem = "pb" + Base36(rank);
    if (category < 9 && !domains.empty()) {
      return stem + std::string(domains[(h >> 8) % domains.size()]);
    }
    return ((h >> 16) & 1) != 0 ? stem + "z" : stem + ".pbnowhere";
  };
  std::unordered_map<uint32_t, uint32_t> index_of_rank;
  Rng draw(seed ^ 0x5a49504644524157ull);
  pool.stream.reserve(stream_length);
  for (size_t i = 0; i < stream_length; ++i) {
    double u = static_cast<double>(draw.Next() >> 11) * 0x1.0p-53 * sum;
    size_t rank = static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    rank = std::min(rank, ranks - 1);
    auto [it, inserted] = index_of_rank.emplace(static_cast<uint32_t>(rank),
                                                static_cast<uint32_t>(pool.names.size()));
    if (inserted) {
      pool.names.push_back(name_of_rank(rank));
    }
    pool.stream.push_back(it->second);
  }
  pool.expected.reserve(pool.names.size());
  for (const std::string& name : pool.names) {
    RefAnswer answer = reference.Resolve(name);
    pool.expected.push_back(AnswerHash(answer.status, answer.via, answer.route));
    (answer.status == kRefExact ? pool.exact
                                : answer.status == kRefSuffix ? pool.suffix : pool.miss)++;
  }
  return pool;
}

namespace {

constexpr uint64_t kPoolMagic = 0x4c4f4f5042524550ull;  // "PERBPOOL"

template <typename T>
void PutPod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
bool GetPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(*value));
  return static_cast<bool>(in);
}

}  // namespace

bool SavePool(const QueryPool& pool, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  PutPod(out, kPoolMagic);
  PutPod(out, static_cast<uint64_t>(pool.names.size()));
  PutPod(out, static_cast<uint64_t>(pool.stream.size()));
  PutPod(out, static_cast<uint64_t>(pool.exact));
  PutPod(out, static_cast<uint64_t>(pool.suffix));
  PutPod(out, static_cast<uint64_t>(pool.miss));
  for (size_t i = 0; i < pool.names.size(); ++i) {
    PutPod(out, static_cast<uint32_t>(pool.names[i].size()));
    out.write(pool.names[i].data(), static_cast<std::streamsize>(pool.names[i].size()));
    PutPod(out, pool.expected[i]);
  }
  out.write(reinterpret_cast<const char*>(pool.stream.data()),
            static_cast<std::streamsize>(pool.stream.size() * sizeof(uint32_t)));
  return static_cast<bool>(out);
}

std::optional<QueryPool> LoadPool(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t magic = 0, names = 0, stream = 0, exact = 0, suffix = 0, miss = 0;
  if (!GetPod(in, &magic) || magic != kPoolMagic || !GetPod(in, &names) ||
      !GetPod(in, &stream) || !GetPod(in, &exact) || !GetPod(in, &suffix) ||
      !GetPod(in, &miss)) {
    return std::nullopt;
  }
  QueryPool pool;
  pool.exact = exact;
  pool.suffix = suffix;
  pool.miss = miss;
  pool.names.resize(names);
  pool.expected.resize(names);
  for (uint64_t i = 0; i < names; ++i) {
    uint32_t length = 0;
    if (!GetPod(in, &length) || length > (1u << 16)) {
      return std::nullopt;
    }
    pool.names[i].resize(length);
    in.read(pool.names[i].data(), length);
    if (!GetPod(in, &pool.expected[i])) {
      return std::nullopt;
    }
  }
  pool.stream.resize(stream);
  in.read(reinterpret_cast<char*>(pool.stream.data()),
          static_cast<std::streamsize>(stream * sizeof(uint32_t)));
  if (!in) {
    return std::nullopt;
  }
  for (uint32_t index : pool.stream) {
    if (index >= names) {
      return std::nullopt;
    }
  }
  return pool;
}

// ---- process facts -------------------------------------------------------------

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int64_t MinorFaults() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  // The highest allowed CPU: CPU 0 is where most hosts steer device interrupts.
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
    }
  }
  return -1;
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemType(const std::string& path) {
  struct statfs info;
  if (statfs(path.c_str(), &info) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0x01021994ul:
      return "tmpfs";
    case 0xef53ul:
      return "ext4";
    case 0x58465342ul:
      return "xfs";
    case 0x9123683eul:
      return "btrfs";
    case 0x794c7630ul:
      return "overlayfs";
    default: {
      char hex[24];
      std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

}  // namespace perfbench
