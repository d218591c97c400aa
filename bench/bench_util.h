// Shared helpers for the experiment binaries (one binary per paper table/figure/claim;
// see DESIGN.md §4 and EXPERIMENTS.md for the paper-vs-measured record).

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "src/mapgen/mapgen.h"

namespace pathalias {
namespace bench {

// The 1986-scale synthetic map, generated once per binary.
inline const GeneratedMap& UsenetMap() {
  static const GeneratedMap map = GenerateUsenetMap(MapGenConfig::Usenet1986());
  return map;
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Ms() const {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Process peak RSS in KiB (getrusage ru_maxrss).  A monotone process-wide
// high-water mark: a section records "peak so far", so only growth between two
// consecutive sections is attributable to the later one.  bench_delta.py
// reports these values but never gates on them.
inline long PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

inline void PrintHeader(const char* experiment, const char* claim) {
  std::printf("=== %s ===\n", experiment);
  std::printf("paper claim: %s\n\n", claim);
}

}  // namespace bench
}  // namespace pathalias

#endif  // BENCH_BENCH_UTIL_H_
