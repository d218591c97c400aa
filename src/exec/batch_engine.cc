#include "src/exec/batch_engine.h"

#include <algorithm>

namespace pathalias {
namespace exec {

FrozenBatchEngine::FrozenBatchEngine(const FrozenRouteSet* routes, BatchEngineOptions options)
    : resolver_(routes, ResolveOptions{}),
      shards_(options.threads == 0 ? ThreadPool::HardwareWidth()
                                   : std::max(1, options.threads)),
      range_resolved_(static_cast<size_t>(shards_)) {
  if (shards_ > 1) {
    pool_ = std::make_unique<ThreadPool>(shards_);
  }
}

FrozenBatchEngine::~FrozenBatchEngine() = default;

size_t FrozenBatchEngine::ResolveBatch(std::span<const std::string_view> hosts,
                                       std::span<BatchLookup> results) {
  const size_t count = std::min(hosts.size(), results.size());
  const size_t ranges = range_resolved_.size();
  auto run_range = [&](int range) {
    const size_t r = static_cast<size_t>(range);
    const size_t lo = count * r / ranges;
    const size_t hi = count * (r + 1) / ranges;
    range_resolved_[r] =
        resolver_.ResolveBatch(hosts.subspan(lo, hi - lo), results.subspan(lo, hi - lo));
  };
  if (pool_ == nullptr) {
    run_range(0);
  } else {
    pool_->Run(shards_, run_range);
  }
  size_t resolved = 0;
  for (size_t range_count : range_resolved_) {
    resolved += range_count;
  }
  return resolved;
}

}  // namespace exec
}  // namespace pathalias
