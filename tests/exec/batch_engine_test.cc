// The batch engine's contract: byte-identical to the serial resolver at any
// thread count, with the result cache on or off.

#include "src/exec/batch_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/exec/result_cache.h"
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

// Every observable field must match, including the view identity: cached results
// must alias the route source's storage, never a copy.
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
    for (size_t cache_entries : {size_t{0}, size_t{8}, size_t{4096}}) {
      BatchEngineOptions options;
      options.threads = threads;
      options.cache_entries = cache_entries;
      FrozenBatchEngine engine(&routes, options);
      std::vector<BatchLookup> parallel(queries.size());
      size_t resolved = engine.ResolveBatch(queries, parallel);
      EXPECT_EQ(resolved, serial_resolved)
          << threads << " threads, " << cache_entries << " cache entries";
      ExpectSameResults(serial, parallel, queries);
    }
  }
}

// The flush-free serving update: a long-lived frozen engine adopts a refrozen image
// and re-resolves every cached name in it.  The edited destination comes back
// fresh, and the cache holds what it held: the next batch hits exactly as often
// as on an engine that never adopted.
TEST(BatchEngine, AdoptRoutesServesFreshDirtyRoutesWithoutFlushingCleanOnes) {
  RouteSet routes = BuildRoutes();
  FrozenImage image_a(routes);

  BatchEngineOptions options;
  options.threads = 1;
  options.cache_entries = 1024;
  FrozenBatchEngine engine(&image_a.routes(), options);

  std::vector<std::string> pool = BuildQueryPool();
  std::vector<std::string_view> queries = Views(pool);
  std::vector<BatchLookup> results(queries.size());
  engine.ResolveBatch(queries, results);  // warm every shard cache
  ASSERT_GT(engine.stats().cache_lookups, 0u);
  FrozenBatchEngine control(&image_a.routes(), options);
  control.ResolveBatch(queries, results);
  const uint64_t control_warm_hits = control.stats().cache_hits;
  control.ResolveBatch(queries, results);

  routes.Add("host7", "rerouted!host7!%s", 9999);
  FrozenImage image_b(routes);
  engine.AdoptRoutes(&image_b.routes());  // image A stays alive above — required

  const BatchEngineStats before = engine.stats();
  std::vector<BatchLookup> after(queries.size());
  engine.ResolveBatch(queries, after);
  Resolver reference(&image_b.routes(), ResolveOptions{});
  std::vector<BatchLookup> expected(queries.size());
  reference.ResolveBatchScalar(queries, expected);
  ExpectSameResults(expected, after, queries);
  EXPECT_EQ(engine.stats().cache_hits - before.cache_hits,
            control.stats().cache_hits - control_warm_hits)
      << "every cached name, the edited one too, is still cached after the adopt";
  EXPECT_GT(engine.stats().cache_hits, before.cache_hits);
}

TEST(BatchEngine, NinetyPercentRepeatedDestinationsIdenticalWithCacheOnAndOff) {
  // The satellite case: a delivery scan where 90% of the batch is a hot set of
  // repeated destinations.  The cache must change the speed, never the bytes.
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

  BatchEngineOptions cached_options;
  cached_options.threads = 4;
  cached_options.cache_entries = 64;
  FrozenBatchEngine cached(&routes, cached_options);
  BatchEngineOptions uncached_options;
  uncached_options.threads = 4;
  FrozenBatchEngine uncached(&routes, uncached_options);

  std::vector<BatchLookup> with_cache(queries.size());
  std::vector<BatchLookup> without_cache(queries.size());
  size_t resolved_cached = cached.ResolveBatch(queries, with_cache);
  size_t resolved_uncached = uncached.ResolveBatch(queries, without_cache);
  EXPECT_EQ(resolved_cached, resolved_uncached);
  ExpectSameResults(without_cache, with_cache, queries);

  // The interned hot set (9 of the 10 hot names) dominates, so the hit rate must too.
  // The tenth hot name is a stranger: never cached, resolved by suffix walk each time.
  EXPECT_GT(cached.stats().hit_rate(), 0.95);
  EXPECT_EQ(uncached.stats().cache_lookups, 0u);
}

TEST(BatchEngine, CachesNegativeResults) {
  RouteSet set;
  set.Add("x.y.zz", "x.y.zz!%s", 10);  // interns ".y.zz" and ".zz", both routeless
  FrozenImage image(set);
  BatchEngineOptions options;
  options.cache_entries = 16;
  FrozenBatchEngine engine(&image.routes(), options);

  std::vector<std::string_view> queries = {".y.zz", ".y.zz", ".y.zz"};
  std::vector<BatchLookup> results(queries.size());
  EXPECT_EQ(engine.ResolveBatch(queries, results), 0u);
  for (const BatchLookup& result : results) {
    EXPECT_FALSE(result.route.ok());
  }
  EXPECT_EQ(engine.stats().cache_lookups, 3u);
  EXPECT_EQ(engine.stats().cache_hits, 2u) << "a cached miss is as final as a cached route";
}

TEST(BatchEngine, CachePersistsAcrossBatches) {
  FrozenImage image(BuildRoutes());
  const FrozenRouteSet& routes = image.routes();
  BatchEngineOptions options;
  options.threads = 2;
  options.cache_entries = 64;
  FrozenBatchEngine engine(&routes, options);

  std::vector<std::string_view> queries = {"phs", "duke", "ucbvax"};
  std::vector<BatchLookup> results(queries.size());
  EXPECT_EQ(engine.ResolveBatch(queries, results), 3u);
  uint64_t hits_after_first = engine.stats().cache_hits;
  EXPECT_EQ(engine.ResolveBatch(queries, results), 3u);
  EXPECT_EQ(engine.stats().cache_hits, hits_after_first + 3)
      << "a server loop's second batch runs entirely from the warm cache";
}

// The ranges follow the batch's slots, not its names: at two threads the batch
// a, b, a, b | a, b, a, b splits into two ranges of four, and each range's cache
// pays its own first miss for both names.
TEST(BatchEngine, EachRangeWarmsItsOwnCache) {
  FrozenImage image(BuildRoutes());
  const FrozenRouteSet& routes = image.routes();
  BatchEngineOptions options;
  options.threads = 2;
  options.cache_entries = 64;
  FrozenBatchEngine engine(&routes, options);

  std::vector<std::string_view> queries = {"phs", "duke", "phs", "duke",
                                           "phs", "duke", "phs", "duke"};
  Resolver resolver(&routes, ResolveOptions{});
  std::vector<BatchLookup> expected(queries.size());
  ASSERT_EQ(resolver.ResolveBatchScalar(queries, expected), queries.size());

  std::vector<BatchLookup> results(queries.size());
  EXPECT_EQ(engine.ResolveBatch(queries, results), queries.size());
  ExpectSameResults(expected, results, queries);
  EXPECT_EQ(engine.stats().cache_lookups, 8u);
  EXPECT_EQ(engine.stats().cache_hits, 4u) << "each range misses each name once";

  EXPECT_EQ(engine.ResolveBatch(queries, results), queries.size());
  ExpectSameResults(expected, results, queries);
  EXPECT_EQ(engine.stats().cache_lookups, 16u);
  EXPECT_EQ(engine.stats().cache_hits, 12u) << "both ranges are warm for both names";
}

TEST(BatchEngine, StrangersAreNeverCached) {
  FrozenImage image(BuildRoutes());
  const FrozenRouteSet& routes = image.routes();
  BatchEngineOptions options;
  options.cache_entries = 64;
  FrozenBatchEngine engine(&routes, options);
  std::vector<std::string_view> queries = {"s1.rutgers.edu", "s1.rutgers.edu",
                                           "nope.example", "nope.example"};
  std::vector<BatchLookup> results(queries.size());
  EXPECT_EQ(engine.ResolveBatch(queries, results), 2u);
  EXPECT_EQ(engine.stats().cache_lookups, 0u)
      << "no NameId, no cache key: strangers bypass the cache entirely";
}

TEST(BatchEngine, EmptyBatchAndTruncatedResultsSpan) {
  FrozenImage image(BuildRoutes());
  const FrozenRouteSet& routes = image.routes();
  BatchEngineOptions options;
  options.threads = 4;
  options.cache_entries = 16;
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

TEST(ResultCache, ClockEvictsUnreferencedWaysFirst) {
  ResultCache cache(4);  // one set of four ways
  ASSERT_EQ(cache.capacity(), 4u);
  BatchLookup value;
  value.via = 7;
  BatchLookup out;
  // With one set, every hash places a key there.
  auto put = [&cache, &value](NameId id) { cache.Put(cache.Begin(id), id, value); };
  auto get = [&cache, &out](NameId id) { return cache.Get(cache.Begin(id), id, &out); };

  // Ids 0..3 fill the only set.
  for (NameId id = 0; id < 4; ++id) {
    put(id);
  }
  for (NameId id = 0; id < 4; ++id) {
    EXPECT_TRUE(get(id));
  }
  // All four are armed; inserting a fifth forces the hand all the way around: it
  // disarms everything, evicts exactly one resident, and the other three survive.
  put(4);
  EXPECT_TRUE(get(4));
  int survivors = 0;
  for (NameId id = 0; id < 4; ++id) {
    if (get(id)) {
      ++survivors;
    }
  }
  EXPECT_EQ(survivors, 3);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCache, RoundsCapacityAndDisablesAtZero) {
  EXPECT_FALSE(ResultCache(0).enabled());
  EXPECT_EQ(ResultCache(1).capacity(), 4u);
  EXPECT_EQ(ResultCache(5).capacity(), 8u);
  EXPECT_EQ(ResultCache(4096).capacity(), 4096u);
}

// A small topology with cacheable non-route keys: interning "a.b.org" also
// interns ".b.org" and ".org", so querying ".b.org" produces a cacheable
// suffix-match entry (via ".org") and querying ".z.net" a cacheable miss.
RouteSet BuildChainRoutes(const char* org_route) {
  RouteSet set;
  set.Add("gate", "gate!%s", 5);
  set.Add(".org", org_route, 10);
  set.Add("a.b.org", "gate!a.b.org!%s", 15);
  set.Add("c.z.net", "gate!c.z.net!%s", 20);
  return set;
}

// Regression: a cached suffix-match result depends on its VIA's route, not just
// its own key.  Key-only invalidation left ".b.org"'s cached entry (via ".org")
// stale when only ".org" changed; the adopt re-resolves the whole chain.
TEST(BatchEngine, AdoptRoutesCondemnsSuffixMatchWhoseViaChanged) {
  FrozenImage v1(BuildChainRoutes("gate!%s"));
  BatchEngineOptions options;
  options.threads = 1;
  options.cache_entries = 64;
  FrozenBatchEngine engine(&v1.routes(), options);

  std::vector<std::string_view> query = {".b.org"};
  std::vector<BatchLookup> result(1);
  ASSERT_EQ(engine.ResolveBatch(query, result), 1u);
  ASSERT_TRUE(result[0].suffix_match);
  ASSERT_EQ(result[0].route.route, "gate!%s");
  ASSERT_EQ(engine.ResolveBatch(query, result), 1u);  // now served from cache
  ASSERT_GT(engine.stats().cache_hits, 0u);

  // Only ".org"'s route differs.
  FrozenImage v2(BuildChainRoutes("spool!%s"));
  engine.AdoptRoutes(&v2.routes());

  ASSERT_EQ(engine.ResolveBatch(query, result), 1u);
  EXPECT_EQ(result[0].route.route, "spool!%s")
      << "cached suffix match survived although its via's route changed";
}

// Regression: a cached MISS depends on every id of its suffix chain staying
// routeless.  When ".net" gains a route, the cached miss for ".z.net" must go.
TEST(BatchEngine, AdoptRoutesCondemnsCachedMissWhoseDomainGainedARoute) {
  FrozenImage image_v1(BuildChainRoutes("gate!%s"));
  BatchEngineOptions options;
  options.threads = 1;
  options.cache_entries = 64;
  FrozenBatchEngine engine(&image_v1.routes(), options);

  std::vector<std::string_view> query = {".z.net"};
  std::vector<BatchLookup> result(1);
  ASSERT_EQ(engine.ResolveBatch(query, result), 0u);  // miss, and cached as one
  ASSERT_EQ(engine.ResolveBatch(query, result), 0u);
  ASSERT_GT(engine.stats().cache_hits, 0u);

  RouteSet v2 = BuildChainRoutes("gate!%s");
  v2.Add(".net", "gate!%s", 1);  // ".net" was interned already; now it has a route
  FrozenImage image_v2(v2);
  engine.AdoptRoutes(&image_v2.routes());

  ASSERT_EQ(engine.ResolveBatch(query, result), 1u)
      << "cached miss survived although its domain gained a route";
  EXPECT_TRUE(result[0].suffix_match);
  EXPECT_EQ(result[0].route.route, "gate!%s");
}

// The update step's count matches routes by name, so an image that numbers the
// same names differently changes nothing.
TEST(BatchEngine, CountChangedRoutesMatchesNamesNotIds) {
  RouteSet routes = BuildRoutes();
  FrozenImage served(routes);
  EXPECT_EQ(CountChangedRoutes(served.routes(), routes), 0u) << "identical";

  RouteSet recost = BuildRoutes();
  recost.Add("phs", "duke!phs!%s", 801);
  EXPECT_EQ(CountChangedRoutes(served.routes(), recost), 1u) << "recost";

  RouteSet added = BuildRoutes();
  added.Add("newa", "newa!%s", 1);
  added.Add("b.new.example", "newa!b.new.example!%s", 2);
  EXPECT_EQ(CountChangedRoutes(served.routes(), added), 2u) << "added";

  RouteSet removed;
  for (const Route& route : routes.routes()) {
    std::string_view name = routes.NameOf(route);
    if (name != "duke" && name != ".edu") {
      removed.Add(name, route.route, route.cost);
    }
  }
  EXPECT_EQ(CountChangedRoutes(served.routes(), removed), 2u) << "removed";

  // The same routes added in reverse: every name is there, under other ids.
  RouteSet reordered;
  for (auto it = routes.routes().rbegin(); it != routes.routes().rend(); ++it) {
    reordered.Add(routes.NameOf(*it), it->route, it->cost);
  }
  ASSERT_NE(reordered.names().Find("seismo"), routes.names().Find("seismo"));
  EXPECT_EQ(CountChangedRoutes(served.routes(), reordered), 0u) << "reordered";
  reordered.Add("host7", "rerouted!host7!%s", 9999);
  reordered.Add("newa", "newa!%s", 1);
  EXPECT_EQ(CountChangedRoutes(served.routes(), reordered), 2u) << "reordered and edited";
}

// Any image adopts warm, whatever its ids: a two-shard engine adopts the same
// routes added in another order, with one route changed, one removed and one
// added.  Every cached name the fresh image still interns is answered from the
// cache, and every answer is the fresh image's.
TEST(BatchEngine, AdoptRoutesAcrossIdSpacesKeepsTheCacheWarm) {
  RouteSet routes = BuildRoutes();
  FrozenImage image_a(routes);
  BatchEngineOptions options;
  options.threads = 2;
  options.cache_entries = 4096;
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

  const BatchEngineStats before = engine.stats();
  std::vector<BatchLookup> after(queries.size());
  engine.ResolveBatch(queries, after);
  Resolver reference(&image_b.routes(), ResolveOptions{});
  std::vector<BatchLookup> expected(queries.size());
  reference.ResolveBatchScalar(queries, expected);
  ExpectSameResults(expected, after, queries);
  // host9 is a stranger now and asks no cache; newhost is the one cold lookup.
  EXPECT_EQ(engine.stats().cache_hits - before.cache_hits,
            engine.stats().cache_lookups - before.cache_lookups - 1);
}

// The cache places a name by its hash, which folds as the interner does, so an
// image that folds case differently starts cold: every entry is dropped.
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
  options.cache_entries = 64;
  FrozenBatchEngine engine(&image_a.routes(), options);
  std::vector<std::string_view> queries = {"phs", "duke", "m3.dept3.edu", ".rutgers.edu"};
  std::vector<BatchLookup> results(queries.size());
  engine.ResolveBatch(queries, results);
  engine.ResolveBatch(queries, results);
  ASSERT_EQ(engine.stats().cache_hits, queries.size());

  engine.AdoptRoutes(&image_b);
  std::vector<std::string_view> upper = {"PHS", "Duke", "M3.dept3.EDU", ".Rutgers.edu"};
  std::vector<BatchLookup> after(upper.size());
  engine.ResolveBatch(upper, after);
  EXPECT_EQ(engine.stats().cache_hits, queries.size()) << "no entry survives";
  EXPECT_EQ(engine.stats().cache_lookups, 3 * queries.size()) << "the counters keep counting";
  Resolver reference(&image_b, ResolveOptions{});
  std::vector<BatchLookup> expected(upper.size());
  reference.ResolveBatchScalar(upper, expected);
  ExpectSameResults(expected, after, upper);
  EXPECT_TRUE(after[0].route.ok()) << "the folding image finds PHS";
}

// After AdoptRoutes, NOTHING in the engine may reference the old source: every
// kept cache entry is re-resolved onto the fresh storage.  Clobbering the
// old image's bytes (the moral equivalent of munmap) must not change any result.
TEST(BatchEngine, AdoptRoutesReleasesEveryReferenceToTheOldImage) {
  RouteSet v1 = BuildChainRoutes("gate!%s");
  std::string image_a = image::ImageWriter::Freeze(v1);
  std::string error;
  auto view_a = image::ImageView::Adopt(image_a, image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(view_a.has_value()) << error;
  FrozenRouteSet frozen_a(*view_a);

  BatchEngineOptions options;
  options.threads = 1;
  options.cache_entries = 64;
  FrozenBatchEngine engine(&frozen_a, options);

  std::vector<std::string_view> queries = {"a.b.org", ".b.org", ".z.net", "gate"};
  std::vector<BatchLookup> results(queries.size());
  engine.ResolveBatch(queries, results);  // warm the cache with all entry kinds

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
