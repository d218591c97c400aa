// Concurrent readers over one frozen route image — the guarantee the serving path
// stands on.  Run under ThreadSanitizer (cmake -DPATHALIAS_TSAN=ON; the CI tsan job does)
// these tests are the race detector for the whole read path: interner probe,
// suffix-chain chase, route-record view, engine ranges and caches, pool handoff.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/batch_engine.h"
#include "src/exec/thread_pool.h"
#include "src/image/frozen_route_set.h"
#include "src/route_db/resolver.h"
#include "src/route_db/route_db.h"

namespace pathalias {
namespace exec {
namespace {

constexpr int kThreads = 8;
constexpr int kRounds = 25;

RouteSet BuildRoutes() {
  RouteSet set;
  set.Add(".edu", "seismo!%s", 100);
  set.Add(".rutgers.edu", "caip!%s", 50);
  for (int i = 0; i < 300; ++i) {
    std::string host = "site" + std::to_string(i) + ".dept" + std::to_string(i % 11) + ".edu";
    set.Add(host, "gate!" + host + "!%s", 100 + i);
  }
  return set;
}

std::vector<std::string> BuildQueries() {
  std::vector<std::string> queries;
  for (int i = 0; i < 600; ++i) {
    queries.push_back("site" + std::to_string(i % 300) + ".dept" +
                      std::to_string(i % 11) + ".edu");
    queries.push_back("visitor" + std::to_string(i) + ".rutgers.edu");
    queries.push_back("miss" + std::to_string(i) + ".nowhere.example");
  }
  return queries;
}

std::vector<std::string_view> Views(const std::vector<std::string>& pool) {
  return std::vector<std::string_view>(pool.begin(), pool.end());
}

// N threads, each running ResolveBatch against ONE FrozenRouteSet adopted from ONE
// image buffer — the exact shape of a multi-threaded mail server sharing one mmap'd
// .pari file.
TEST(Concurrency, ParallelResolveBatchOverOneFrozenMapping) {
  FrozenImage image(BuildRoutes());
  const FrozenRouteSet& frozen = image.routes();

  std::vector<std::string> pool = BuildQueries();
  std::vector<std::string_view> queries = Views(pool);

  Resolver reference(&frozen, ResolveOptions{});
  std::vector<BatchLookup> expected(queries.size());
  size_t expected_resolved = reference.ResolveBatchScalar(queries, expected);
  ASSERT_GT(expected_resolved, 0u);

  std::vector<size_t> resolved(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Resolver resolver(&frozen, ResolveOptions{});
      std::vector<BatchLookup> results(queries.size());
      for (int round = 0; round < kRounds; ++round) {
        resolved[static_cast<size_t>(t)] = resolver.ResolveBatch(queries, results);
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(results[i].route.route, expected[i].route.route) << queries[i];
        ASSERT_EQ(results[i].via, expected[i].via) << queries[i];
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(resolved[t], expected_resolved) << "thread " << t;
  }
}

// Several engines — each with its own pool and caches — sharing one frozen mapping:
// engines are per-serving-thread objects, the route source is the shared one.
// Each shard cache's plain keys and values pass between pool threads only through
// ThreadPool::Run's lock handoff; under TSan this is the proof that the handoff
// orders them.
TEST(Concurrency, ParallelEnginesOverOneFrozenMapping) {
  FrozenImage image(BuildRoutes());
  const FrozenRouteSet& frozen = image.routes();

  std::vector<std::string> pool = BuildQueries();
  std::vector<std::string_view> queries = Views(pool);

  Resolver reference(&frozen, ResolveOptions{});
  std::vector<BatchLookup> expected(queries.size());
  size_t expected_resolved = reference.ResolveBatchScalar(queries, expected);

  constexpr int kEngines = 4;
  std::vector<std::thread> threads;
  threads.reserve(kEngines);
  for (int t = 0; t < kEngines; ++t) {
    threads.emplace_back([&] {
      BatchEngineOptions options;
      options.threads = 2;
      options.cache_entries = 128;
      FrozenBatchEngine engine(&frozen, options);
      std::vector<BatchLookup> results(queries.size());
      for (int round = 0; round < kRounds; ++round) {
        ASSERT_EQ(engine.ResolveBatch(queries, results), expected_resolved);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

// Every range of a cached engine consults its cache here: the batch repeats the
// interned names from its first slot to its last.  Range r's cache is touched only
// by range r's job, so under TSan two ranges sharing one cache race in this test.
TEST(Concurrency, EachRangeCacheHasOneOwner) {
  FrozenImage image(BuildRoutes());
  const FrozenRouteSet& frozen = image.routes();

  std::vector<std::string> pool;
  for (int i = 0; i < 1800; ++i) {
    int site = i % 300;
    pool.push_back("site" + std::to_string(site) + ".dept" + std::to_string(site % 11) +
                   ".edu");
  }
  std::vector<std::string_view> queries = Views(pool);

  Resolver reference(&frozen, ResolveOptions{});
  std::vector<BatchLookup> expected(queries.size());
  const size_t expected_resolved = reference.ResolveBatchScalar(queries, expected);
  ASSERT_EQ(expected_resolved, queries.size()) << "every query is an interned route";

  constexpr int kEngines = 4;
  std::vector<std::thread> threads;
  threads.reserve(kEngines);
  for (int t = 0; t < kEngines; ++t) {
    threads.emplace_back([&] {
      BatchEngineOptions options;
      options.threads = 2;
      options.cache_entries = 128;
      FrozenBatchEngine engine(&frozen, options);
      std::vector<BatchLookup> results(queries.size());
      for (int round = 0; round < kRounds; ++round) {
        ASSERT_EQ(engine.ResolveBatch(queries, results), expected_resolved);
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(results[i].via, expected[i].via) << queries[i];
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
}

// The pool itself: claimed indices partition exactly, across many back-to-back
// batches, including batches with more jobs than lanes and with slow wakeups.
TEST(Concurrency, ThreadPoolRunsEveryJobExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.width(), 4);
  for (int round = 0; round < 200; ++round) {
    int jobs = 1 + round % 13;
    std::vector<std::atomic<int>> ran(static_cast<size_t>(jobs));
    pool.Run(jobs, [&](int job) { ran[static_cast<size_t>(job)].fetch_add(1); });
    for (int job = 0; job < jobs; ++job) {
      ASSERT_EQ(ran[static_cast<size_t>(job)].load(), 1) << "round " << round;
    }
  }
}

TEST(Concurrency, WidthOnePoolIsSerial) {
  ThreadPool pool(1);
  int sum = 0;
  pool.Run(10, [&](int job) { sum += job; });  // no workers: runs on this thread
  EXPECT_EQ(sum, 45);
}

}  // namespace
}  // namespace exec
}  // namespace pathalias
