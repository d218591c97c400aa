// The batch engine's contract: byte-identical to the serial resolver at any
// thread count, and after any adopt, to a resolver over the adopted image.

#include "src/exec/batch_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/image/frozen_route_set.h"
#include "src/image/image_format.h"
#include "src/image/image_writer.h"
#include "src/route_db/resolver.h"
#include "src/route_db/route_db.h"

namespace pathalias {
namespace exec {
namespace {

// A route set big enough that every shard of an 8-way engine sees real traffic:
// hosts across several domains, domain keys, and a deep suffix chain.
RouteSet BuildRoutes() {
  RouteSet set;
  set.Add("seismo", "seismo!%s", 100);
  set.Add(".edu", "seismo!%s", 100);
  set.Add(".rutgers.edu", "caip!%s", 50);
  set.Add(".cs.wisc.edu", "spool!%s", 60);
  set.Add("duke", "duke!%s", 500);
  set.Add("phs", "duke!phs!%s", 800);
  set.Add("ucbvax", "duke!research!ucbvax!%s", 3300);
  for (int i = 0; i < 200; ++i) {
    std::string host = "host" + std::to_string(i);
    set.Add(host, host + "!%s", 100 + i);
    std::string member = "m" + std::to_string(i) + ".dept" + std::to_string(i % 7) + ".edu";
    set.Add(member, "seismo!" + member + "!%s", 200 + i);
  }
  return set;
}

// The mixed workload every test resolves: exact hits, suffix fallbacks through
// interned and un-interned names, misses, and queries with no routable shape.
std::vector<std::string> BuildQueryPool() {
  std::vector<std::string> pool;
  for (int i = 0; i < 200; ++i) {
    pool.push_back("host" + std::to_string(i));
    pool.push_back("m" + std::to_string(i) + ".dept" + std::to_string(i % 7) + ".edu");
    pool.push_back("stranger" + std::to_string(i) + ".rutgers.edu");
    pool.push_back("miss" + std::to_string(i) + ".unrouted.example");
  }
  pool.push_back("phs");
  pool.push_back(".edu");          // a domain key queried directly
  pool.push_back(".rutgers.edu");  // likewise, via an interned id
  pool.push_back("nowhere");       // undotted miss
  pool.push_back("");              // no routable shape at all
  pool.push_back("   ");           // whitespace only
  return pool;
}

std::vector<std::string_view> Views(const std::vector<std::string>& pool) {
  return std::vector<std::string_view>(pool.begin(), pool.end());
}

// Every observable field must match, including the view identity: results must
// alias the route source's storage, never a copy.
void ExpectSameResults(const std::vector<BatchLookup>& expected,
                       const std::vector<BatchLookup>& actual,
                       const std::vector<std::string_view>& queries) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].route.name, actual[i].route.name) << queries[i];
    EXPECT_EQ(expected[i].route.cost, actual[i].route.cost) << queries[i];
    EXPECT_EQ(expected[i].via, actual[i].via) << queries[i];
    EXPECT_EQ(expected[i].suffix_match, actual[i].suffix_match) << queries[i];
    EXPECT_EQ(expected[i].route.route.data(), actual[i].route.route.data())
        << queries[i] << ": the route view must alias the same storage";
    EXPECT_EQ(expected[i].route.route.size(), actual[i].route.route.size()) << queries[i];
  }
}

TEST(BatchEngine, MatchesSerialResolverAtEveryThreadAndCacheSetting) {
  FrozenImage image(BuildRoutes());
  const FrozenRouteSet& routes = image.routes();
  std::vector<std::string> pool = BuildQueryPool();
  std::vector<std::string_view> queries = Views(pool);

  Resolver resolver(&routes, ResolveOptions{});
  std::vector<BatchLookup> serial(queries.size());
  size_t serial_resolved = resolver.ResolveBatchScalar(queries, serial);
  ASSERT_GT(serial_resolved, 0u);

  for (int threads : {1, 2, 4, 8}) {
    BatchEngineOptions options;
    options.threads = threads;
    FrozenBatchEngine engine(&routes, options);
    std::vector<BatchLookup> parallel(queries.size());
    size_t resolved = engine.ResolveBatch(queries, parallel);
    EXPECT_EQ(resolved, serial_resolved) << threads << " threads";
    ExpectSameResults(serial, parallel, queries);
  }
}

// The serving update: a long-lived frozen engine adopts a refrozen image, and the
// next batch answers every name, the edited destination too, from it.
TEST(BatchEngine, AdoptRoutesServesFreshDirtyRoutesWithoutFlushingCleanOnes) {
  RouteSet routes = BuildRoutes();
  FrozenImage image_a(routes);

  BatchEngineOptions options;
  options.threads = 1;
  FrozenBatchEngine engine(&image_a.routes(), options);

  std::vector<std::string> pool = BuildQueryPool();
  std::vector<std::string_view> queries = Views(pool);
  std::vector<BatchLookup> results(queries.size());
  engine.ResolveBatch(queries, results);

  routes.Add("host7", "rerouted!host7!%s", 9999);
  FrozenImage image_b(routes);
  engine.AdoptRoutes(&image_b.routes());  // image A stays alive above — required

  std::vector<BatchLookup> after(queries.size());
  engine.ResolveBatch(queries, after);
  Resolver reference(&image_b.routes(), ResolveOptions{});
  std::vector<BatchLookup> expected(queries.size());
  reference.ResolveBatchScalar(queries, expected);
  ExpectSameResults(expected, after, queries);
}

TEST(BatchEngine, NinetyPercentRepeatedDestinationsIdenticalWithCacheOnAndOff) {
  // A delivery scan where 90% of the batch is a hot set of repeated destinations:
  // four ranges answer it as the serial resolver does.
  FrozenImage image(BuildRoutes());
  const FrozenRouteSet& routes = image.routes();
  std::vector<std::string> hot = {"phs",     "duke",    "ucbvax",
                                  "host7",   "host42",  "m3.dept3.edu",
                                  "host100", "host199", "m150.dept3.edu",
                                  "stranger0.rutgers.edu"};
  std::vector<std::string> pool;
  for (int i = 0; i < 5000; ++i) {
    if (i % 10 == 9) {
      pool.push_back("cold" + std::to_string(i) + ".unrouted.example");
    } else {
      // i + i/10 de-syncs the pick from the 90% filter so every hot name occurs.
      pool.push_back(hot[static_cast<size_t>(i + i / 10) % hot.size()]);
    }
  }
  std::vector<std::string_view> queries = Views(pool);

  Resolver resolver(&routes, ResolveOptions{});
  std::vector<BatchLookup> serial(queries.size());
  size_t serial_resolved = resolver.ResolveBatchScalar(queries, serial);

  BatchEngineOptions options;
  options.threads = 4;
  FrozenBatchEngine engine(&routes, options);
  std::vector<BatchLookup> parallel(queries.size());
  EXPECT_EQ(engine.ResolveBatch(queries, parallel), serial_resolved);
  ExpectSameResults(serial, parallel, queries);
}

TEST(BatchEngine, EmptyBatchAndTruncatedResultsSpan) {
  FrozenImage image(BuildRoutes());
  const FrozenRouteSet& routes = image.routes();
  BatchEngineOptions options;
  options.threads = 4;
  FrozenBatchEngine engine(&routes, options);

  std::vector<BatchLookup> none;
  EXPECT_EQ(engine.ResolveBatch({}, none), 0u);

  // A results span shorter than the hosts span truncates the batch (the documented
  // ResolveBatch contract), in the engine exactly as in the serial resolver.
  std::vector<std::string_view> queries = {"phs", "duke", "ucbvax"};
  std::vector<BatchLookup> short_results(2);
  EXPECT_EQ(engine.ResolveBatch(queries, short_results), 2u);
  EXPECT_TRUE(short_results[0].route.ok());
  EXPECT_TRUE(short_results[1].route.ok());
}

TEST(BatchEngine, ZeroThreadsMeansHardwareWidth) {
  FrozenImage image(BuildRoutes());
  const FrozenRouteSet& routes = image.routes();
  BatchEngineOptions options;
  options.threads = 0;
  FrozenBatchEngine engine(&routes, options);
  EXPECT_GE(engine.shards(), 1);
  std::vector<std::string_view> queries = {"phs"};
  std::vector<BatchLookup> results(1);
  EXPECT_EQ(engine.ResolveBatch(queries, results), 1u);
}

// A small topology with interned non-route keys: interning "a.b.org" also
// interns ".b.org" and ".org", so querying ".b.org" is a suffix match through an
// interned name (via ".org") and querying ".z.net" an interned miss.
RouteSet BuildChainRoutes(const char* org_route) {
  RouteSet set;
  set.Add("gate", "gate!%s", 5);
  set.Add(".org", org_route, 10);
  set.Add("a.b.org", "gate!a.b.org!%s", 15);
  set.Add("c.z.net", "gate!c.z.net!%s", 20);
  return set;
}

// Regression: a suffix-match result depends on its VIA's route, not just its own
// key: ".b.org" (via ".org") must follow a change to ".org" alone.
TEST(BatchEngine, AdoptRoutesCondemnsSuffixMatchWhoseViaChanged) {
  FrozenImage v1(BuildChainRoutes("gate!%s"));
  BatchEngineOptions options;
  options.threads = 1;
  FrozenBatchEngine engine(&v1.routes(), options);

  std::vector<std::string_view> query = {".b.org"};
  std::vector<BatchLookup> result(1);
  ASSERT_EQ(engine.ResolveBatch(query, result), 1u);
  ASSERT_TRUE(result[0].suffix_match);
  ASSERT_EQ(result[0].route.route, "gate!%s");
  ASSERT_EQ(engine.ResolveBatch(query, result), 1u);

  // Only ".org"'s route differs.
  FrozenImage v2(BuildChainRoutes("spool!%s"));
  engine.AdoptRoutes(&v2.routes());

  ASSERT_EQ(engine.ResolveBatch(query, result), 1u);
  EXPECT_EQ(result[0].route.route, "spool!%s")
      << "the suffix match kept the old route although its via's route changed";
}

// Regression: a MISS depends on every id of its suffix chain staying routeless.
// When ".net" gains a route, the miss for ".z.net" must become a suffix match.
TEST(BatchEngine, AdoptRoutesCondemnsCachedMissWhoseDomainGainedARoute) {
  FrozenImage image_v1(BuildChainRoutes("gate!%s"));
  BatchEngineOptions options;
  options.threads = 1;
  FrozenBatchEngine engine(&image_v1.routes(), options);

  std::vector<std::string_view> query = {".z.net"};
  std::vector<BatchLookup> result(1);
  ASSERT_EQ(engine.ResolveBatch(query, result), 0u);
  ASSERT_EQ(engine.ResolveBatch(query, result), 0u);

  RouteSet v2 = BuildChainRoutes("gate!%s");
  v2.Add(".net", "gate!%s", 1);  // ".net" was interned already; now it has a route
  FrozenImage image_v2(v2);
  engine.AdoptRoutes(&image_v2.routes());

  ASSERT_EQ(engine.ResolveBatch(query, result), 1u)
      << "the miss survived although its domain gained a route";
  EXPECT_TRUE(result[0].suffix_match);
  EXPECT_EQ(result[0].route.route, "gate!%s");
}

// Any image adopts into the same engine, whatever its ids: a two-range engine
// adopts the same routes added in another order, with one route changed, one
// removed and one added, and every answer is the fresh image's.
TEST(BatchEngine, AdoptRoutesAcrossIdSpacesKeepsTheCacheWarm) {
  RouteSet routes = BuildRoutes();
  FrozenImage image_a(routes);
  BatchEngineOptions options;
  options.threads = 2;
  FrozenBatchEngine engine(&image_a.routes(), options);
  std::vector<std::string> pool = BuildQueryPool();
  pool.push_back("newhost");
  std::vector<std::string_view> queries = Views(pool);
  std::vector<BatchLookup> results(queries.size());
  engine.ResolveBatch(queries, results);

  RouteSet reordered;
  for (auto it = routes.routes().rbegin(); it != routes.routes().rend(); ++it) {
    if (routes.NameOf(*it) != "host9") {
      reordered.Add(routes.NameOf(*it), it->route, it->cost);
    }
  }
  reordered.Add("host7", "rerouted!host7!%s", 9999);
  reordered.Add("newhost", "newhost!%s", 1);
  FrozenImage image_b(reordered);
  ASSERT_NE(image_b.routes().names().Find("seismo"), image_a.routes().names().Find("seismo"));
  ASSERT_EQ(image_b.routes().names().Find("host9"), kNoName);
  engine.AdoptRoutes(&image_b.routes());

  std::vector<BatchLookup> after(queries.size());
  engine.ResolveBatch(queries, after);
  Resolver reference(&image_b.routes(), ResolveOptions{});
  std::vector<BatchLookup> expected(queries.size());
  reference.ResolveBatchScalar(queries, expected);
  ExpectSameResults(expected, after, queries);
}

// An image that folds case differently adopts like any other: the next batch
// answers as the folding image does.
TEST(BatchEngine, AdoptRoutesAcrossACaseFoldingMismatchDropsEveryEntry) {
  RouteSet routes = BuildRoutes();
  FrozenImage image_a(routes);
  std::string folded = image::ImageWriter::Freeze(routes);
  image::ImageHeader header;
  std::memcpy(&header, folded.data(), sizeof(header));
  header.flags |= image::kFlagFoldCase;
  std::memcpy(folded.data(), &header, sizeof(header));
  std::string error;
  auto view = image::ImageView::Adopt(folded, image::ImageView::Verify::kStructure, &error);
  ASSERT_TRUE(view.has_value()) << error;
  FrozenRouteSet image_b(*view);
  ASSERT_TRUE(image_b.names().fold_case());

  BatchEngineOptions options;
  options.threads = 2;
  FrozenBatchEngine engine(&image_a.routes(), options);
  std::vector<std::string_view> queries = {"phs", "duke", "m3.dept3.edu", ".rutgers.edu"};
  std::vector<BatchLookup> results(queries.size());
  engine.ResolveBatch(queries, results);

  engine.AdoptRoutes(&image_b);
  std::vector<std::string_view> upper = {"PHS", "Duke", "M3.dept3.EDU", ".Rutgers.edu"};
  std::vector<BatchLookup> after(upper.size());
  engine.ResolveBatch(upper, after);
  Resolver reference(&image_b, ResolveOptions{});
  std::vector<BatchLookup> expected(upper.size());
  reference.ResolveBatchScalar(upper, expected);
  ExpectSameResults(expected, after, upper);
  EXPECT_TRUE(after[0].route.ok()) << "the folding image finds PHS";
}

// After AdoptRoutes, NOTHING in the engine may reference the old source.
// Clobbering the old image's bytes (the moral equivalent of munmap) must not
// change any result.
TEST(BatchEngine, AdoptRoutesReleasesEveryReferenceToTheOldImage) {
  RouteSet v1 = BuildChainRoutes("gate!%s");
  std::string image_a = image::ImageWriter::Freeze(v1);
  std::string error;
  auto view_a = image::ImageView::Adopt(image_a, image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(view_a.has_value()) << error;
  FrozenRouteSet frozen_a(*view_a);

  BatchEngineOptions options;
  options.threads = 1;
  FrozenBatchEngine engine(&frozen_a, options);

  std::vector<std::string_view> queries = {"a.b.org", ".b.org", ".z.net", "gate"};
  std::vector<BatchLookup> results(queries.size());
  engine.ResolveBatch(queries, results);  // every result kind, over image A

  RouteSet v2 = BuildChainRoutes("spool!%s");
  std::string image_b = image::ImageWriter::Freeze(v2);
  auto view_b = image::ImageView::Adopt(image_b, image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(view_b.has_value()) << error;
  FrozenRouteSet frozen_b(*view_b);
  engine.AdoptRoutes(&frozen_b);

  // "Unmap" image A.  Any surviving view into it now reads garbage, which the
  // byte-compare below (and ASan's container annotations) would catch.
  std::fill(image_a.begin(), image_a.end(), '\0');

  std::vector<BatchLookup> after(queries.size());
  engine.ResolveBatch(queries, after);
  Resolver reference(&frozen_b, ResolveOptions{});
  std::vector<BatchLookup> expected(queries.size());
  reference.ResolveBatchScalar(queries, expected);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(after[i].route.ok(), expected[i].route.ok()) << queries[i];
    EXPECT_EQ(after[i].route.route, expected[i].route.route) << queries[i];
    if (after[i].route.ok()) {
      // And the views must alias image B's storage, not a copy of it.
      EXPECT_EQ(after[i].route.route.data(),
                frozen_b.FindRouteView(after[i].via).route.data())
          << queries[i];
    }
  }
}

}  // namespace
}  // namespace exec
}  // namespace pathalias
