// The pipelined batch path's contract: ResolveBatchPipelined is byte-identical to
// ResolveBatchScalar at EVERY window size, for every query shape the stranger walk
// can meet — leading dots, trailing dots, consecutive dots, single labels, and
// strangers whose first interned suffix is routeless — and for every way a query
// leaves the window: retired there, or finished after it by the interned walk or
// the memoized stranger walk.  The scalar loop is the golden reference (it is the
// pre-pipeline ResolveBatch, kept verbatim); these tests are what lets the pipeline
// restructure the probe order, defer the walks, and memoize suffixes without a
// semantics review.

#include "src/route_db/resolver.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "src/image/frozen_route_set.h"
#include "src/image/image_format.h"
#include "src/image/image_writer.h"
#include "src/route_db/route_db.h"

namespace pathalias {
namespace {

// Every window size worth distinguishing: degenerate (1 = scalar order, windowed
// bookkeeping), tiny, the default, the max, and an over-max value the clamp must
// absorb.
const size_t kWindows[] = {1, 2, 3, 4, 8, 16, 24, 64, 1024};

RouteSet EdgeCaseRoutes() {
  RouteSet set;
  set.Add("seismo", "seismo!%s", 100);
  set.Add(".edu", "seismo!%s", 100);
  set.Add("duke", "duke!%s", 500);
  set.Add("phs", "duke!phs!%s", 800);
  // Interns ".rutgers.edu" (routeless) on the suffix chain to ".edu": the
  // "first interned suffix has no route" shape below.
  set.Add("caip.rutgers.edu", "seismo!caip.rutgers.edu!%s", 195);
  // A fully routeless chain: ".y.zz" and ".zz" are interned, neither has a route.
  set.Add("x.y.zz", "x.y.zz!%s", 10);
  return set;
}

// Asserts results[i] from two batch runs are byte-identical — including the view
// identity: both must alias the same storage, never copies.
void ExpectIdentical(const std::vector<BatchLookup>& expected,
                     const std::vector<BatchLookup>& actual,
                     const std::vector<std::string_view>& queries, size_t window) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].route.ok(), actual[i].route.ok())
        << "window " << window << " query '" << queries[i] << "'";
    EXPECT_EQ(expected[i].route.name, actual[i].route.name)
        << "window " << window << " query '" << queries[i] << "'";
    EXPECT_EQ(expected[i].route.cost, actual[i].route.cost)
        << "window " << window << " query '" << queries[i] << "'";
    EXPECT_EQ(expected[i].route.route.data(), actual[i].route.route.data())
        << "window " << window << " query '" << queries[i]
        << "': views must alias the same storage";
    EXPECT_EQ(expected[i].route.route.size(), actual[i].route.route.size())
        << "window " << window << " query '" << queries[i] << "'";
    EXPECT_EQ(expected[i].via, actual[i].via)
        << "window " << window << " query '" << queries[i] << "'";
    EXPECT_EQ(expected[i].suffix_match, actual[i].suffix_match)
        << "window " << window << " query '" << queries[i] << "'";
  }
}

// Runs the golden comparison over one image: scalar once, pipelined at every
// window in kWindows, bit-for-bit equal results and equal resolved counts.
void ExpectPipelineMatchesScalar(const FrozenRouteSet& routes,
                                 const std::vector<std::string_view>& queries) {
  Resolver resolver(&routes, ResolveOptions{});
  std::vector<BatchLookup> scalar(queries.size());
  size_t scalar_resolved = resolver.ResolveBatchScalar(queries, scalar);
  for (size_t window : kWindows) {
    std::vector<BatchLookup> pipelined(queries.size());
    size_t resolved = resolver.ResolveBatchPipelined(queries, pipelined, window);
    EXPECT_EQ(resolved, scalar_resolved) << "window " << window;
    ExpectIdentical(scalar, pipelined, queries, window);
  }
}

// --- LookupStranger edge-case semantics, pinned one query at a time ---

TEST(LookupStranger, LeadingDotQueryNeverMatchesItselfAsASuffix) {
  // ".unknown.edu" is not interned.  The walk starts at find('.', 1): the leading
  // dot is never treated as the query's own suffix, so the first probe is ".edu".
  FrozenImage image(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  BatchLookup out = resolver.LookupStranger(".unknown.edu");
  ASSERT_TRUE(out.route.ok());
  EXPECT_EQ(image.routes().names().View(out.via), ".edu");
  EXPECT_TRUE(out.suffix_match);
}

TEST(LookupStranger, InternedLeadingDotQueryIsAnExactMatchNotASuffixMatch) {
  // ".edu" queried directly hits its own entry via the interned path: via is the
  // key itself and suffix_match is false (the mailer must NOT prepend the host).
  FrozenImage image(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  BatchLookup out = resolver.LookupOne(".edu");
  ASSERT_TRUE(out.route.ok());
  EXPECT_EQ(image.routes().names().View(out.via), ".edu");
  EXPECT_FALSE(out.suffix_match);
}

TEST(LookupStranger, TrailingDotDrainsToAMiss) {
  // "phs." is not "phs": its only dotted suffix is ".", which is not interned,
  // so the walk must drain cleanly to a miss — no wraparound, no empty probe.
  FrozenImage image(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  for (std::string_view query : {"phs.", "edu.", "caip.rutgers.edu."}) {
    BatchLookup out = resolver.LookupOne(query);
    EXPECT_FALSE(out.route.ok()) << query;
    EXPECT_EQ(out.via, kNoName) << query;
  }
}

TEST(LookupStranger, ConsecutiveDotsProbeEachSuffixPosition) {
  // "a..edu": the suffixes tried are "..edu" (empty label — not interned) and
  // then ".edu" (a hit).  Double dots must not short-circuit or skip positions.
  FrozenImage image(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  BatchLookup out = resolver.LookupOne("a..edu");
  ASSERT_TRUE(out.route.ok());
  EXPECT_EQ(image.routes().names().View(out.via), ".edu");
  EXPECT_TRUE(out.suffix_match);
  // All dots, no labels: every suffix position misses.
  EXPECT_FALSE(resolver.LookupOne("...").route.ok());
}

TEST(LookupStranger, SingleLabelStrangerIsAPlainMiss) {
  // No dot after position 0 means no suffix walk at all.
  FrozenImage image(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  BatchLookup out = resolver.LookupStranger("nowhere");
  EXPECT_FALSE(out.route.ok());
  EXPECT_EQ(out.via, kNoName);
  EXPECT_FALSE(out.suffix_match);
}

TEST(LookupStranger, FirstInternedSuffixRoutelessFallsThroughToShorter) {
  // "blue.rutgers.edu" is a stranger; its first interned suffix ".rutgers.edu"
  // has no route, but the chain continues to ".edu", which does.  The walk must
  // chase the chain from the first interned suffix, not re-probe shorter ones.
  FrozenImage image(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  BatchLookup out = resolver.LookupStranger("blue.rutgers.edu");
  ASSERT_TRUE(out.route.ok());
  EXPECT_EQ(image.routes().names().View(out.via), ".edu");
  EXPECT_TRUE(out.suffix_match);
}

TEST(LookupStranger, FullyRoutelessChainIsAMiss) {
  // "w.y.zz": first interned suffix ".y.zz" is routeless and so is its chain
  // (".zz") — the walk must drain the chain and retire a miss, never loop.
  FrozenImage image(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  BatchLookup out = resolver.LookupStranger("w.y.zz");
  EXPECT_FALSE(out.route.ok());
  EXPECT_EQ(out.via, kNoName);
}

TEST(LookupStranger, UninternedMiddleSuffixIsSkippedNotFatal) {
  // "m.cs.wisc.edu": ".cs.wisc.edu" and ".wisc.edu" are not interned, ".edu" is.
  FrozenImage image(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  BatchLookup out = resolver.LookupStranger("m.cs.wisc.edu");
  ASSERT_TRUE(out.route.ok());
  EXPECT_EQ(image.routes().names().View(out.via), ".edu");
}

// --- the same shapes through the pipelined path, at every window size ---

std::vector<std::string> EdgeCasePool() {
  std::vector<std::string> pool = {
      "phs",                 // exact host hit
      ".edu",                // interned domain key queried directly
      ".rutgers.edu",        // interned, routeless, chain to .edu
      ".unknown.edu",        // leading-dot stranger
      "phs.",                // trailing dot
      "edu.",                // trailing dot over a name that LOOKS like a domain
      "caip.rutgers.edu.",   // trailing dot on an interned name's bytes
      "a..edu",              // consecutive dots
      "..edu",               // leading + consecutive
      "...",                 // all dots
      ".",                   // a lone dot
      "nowhere",             // single-label stranger
      "blue.rutgers.edu",    // first interned suffix routeless, shorter routed
      "w.y.zz",              // fully routeless chain
      "m.cs.wisc.edu",       // un-interned middle suffixes
      "caip.rutgers.edu",    // interned exact
      "miss.unrouted.example",  // dotted miss, nothing interned
      "",                    // no routable shape
      " ",                   //
      "  \t ",               //
  };
  return pool;
}

TEST(ResolverPipeline, EdgeCasesMatchScalarAtEveryWindow) {
  FrozenImage image(EdgeCaseRoutes());
  std::vector<std::string> pool = EdgeCasePool();
  std::vector<std::string_view> queries(pool.begin(), pool.end());
  ExpectPipelineMatchesScalar(image.routes(), queries);
}

// The same golden over the image as a delivery agent meets it: written to a file
// and mmap'd, so every probe reads page-mapped bytes rather than a heap buffer.
TEST(ResolverPipeline, EdgeCasesMatchScalarOverTheFrozenBackend) {
  std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("pathalias_pipeline_test_" + std::to_string(getpid()) + ".pari");
  ASSERT_TRUE(image::ImageWriter::WriteFile(EdgeCaseRoutes(), path.string()));
  std::string error;
  auto mapped = FrozenImage::Open(path.string(), image::ImageView::Verify::kChecksum, &error);
  std::filesystem::remove(path);
  ASSERT_TRUE(mapped.has_value()) << error;
  std::vector<std::string> pool = EdgeCasePool();
  std::vector<std::string_view> queries(pool.begin(), pool.end());
  ExpectPipelineMatchesScalar(mapped->routes(), queries);
}

// A batch big enough to arm the suffix memo (it engages at 64+ queries), with the
// repeated-domain shape the memo exists for AND the edge cases interleaved — so a
// memoized outcome must never leak onto a query whose bytes differ.
TEST(ResolverPipeline, LargeRepeatedDomainBatchMatchesScalar) {
  FrozenImage image(EdgeCaseRoutes());
  std::vector<std::string> pool;
  std::vector<std::string> edges = EdgeCasePool();
  for (int i = 0; i < 120; ++i) {
    pool.push_back("stranger" + std::to_string(i) + ".rutgers.edu");
    pool.push_back("host" + std::to_string(i) + ".edu");
    pool.push_back("miss" + std::to_string(i) + ".unrouted.example");
    pool.push_back("deep" + std::to_string(i) + ".y.zz");
    pool.push_back(edges[static_cast<size_t>(i) % edges.size()]);
  }
  std::vector<std::string_view> queries(pool.begin(), pool.end());
  ASSERT_GT(queries.size(), 64u) << "must be big enough to arm the suffix memo";
  ExpectPipelineMatchesScalar(image.routes(), queries);
}

TEST(ResolverPipeline, RandomizedQueriesMatchScalarAtEveryWindow) {
  // Seeded fuzz over a hostile alphabet: short labels from a tiny character set
  // (maximizing accidental suffix collisions), dots sprinkled anywhere including
  // the ends, plus draws from the interned names themselves.
  FrozenImage image(EdgeCaseRoutes());
  std::mt19937_64 rng(0x50415249u);
  const char alphabet[] = "ab.z";
  std::vector<std::string> pool;
  for (int i = 0; i < 800; ++i) {
    if (i % 7 == 0) {
      pool.push_back(i % 2 == 0 ? "caip.rutgers.edu" : ".edu");
      continue;
    }
    size_t len = 1 + rng() % 12;
    std::string q;
    for (size_t c = 0; c < len; ++c) {
      q += alphabet[rng() % (sizeof(alphabet) - 1)];
    }
    if (i % 11 == 0) {
      q += ".edu";  // force some real suffix hits into the stream
    }
    pool.push_back(std::move(q));
  }
  std::vector<std::string_view> queries(pool.begin(), pool.end());
  ExpectPipelineMatchesScalar(image.routes(), queries);
}

// --- the queries that leave the window, and the memo that finishes strangers ---

// Hosts in two domains with routes of their own, a routed and a routeless domain
// key, and interned names (each host's suffix chain) that have no route.
RouteSet DeferredWalkRoutes() {
  RouteSet set;
  set.Add(".rutgers.edu", "caip!%s", 50);
  set.Add(".edu", "seismo!%s", 100);
  for (int i = 0; i < 16; ++i) {
    std::string host = "h" + std::to_string(i);
    set.Add(host + ".cs.rutgers.edu", "caip!" + host + "!%s", 60 + i);
    set.Add(host + ".lab.y.zz", "zzgate!" + host + "!%s", 70 + i);
  }
  return set;
}

// The key a result matched, or "*miss*".
std::string_view MatchedKey(const FrozenRouteSet& routes, const BatchLookup& lookup) {
  return lookup.route.ok() ? routes.names().View(lookup.via) : "*miss*";
}

TEST(ResolverPipeline, RoutelessInternedNamesInterleavedWithExactHitsMatchScalar) {
  // ".cs.rutgers.edu" is interned without a route and its chain reaches the routed
  // ".rutgers.edu"; ".lab.y.zz", ".y.zz" and ".zz" are interned, routeless, and
  // reach nothing.  Each leaves the window at once and is finished by the interned
  // walk, between exact hits that retire inside the window.
  FrozenImage image(DeferredWalkRoutes());
  std::vector<std::string> pool;
  for (int i = 0; i < 96; ++i) {
    std::string host = "h" + std::to_string(i % 16);
    pool.push_back(host + ".cs.rutgers.edu");
    pool.push_back(i % 2 == 0 ? ".cs.rutgers.edu" : ".lab.y.zz");
    pool.push_back(host + ".lab.y.zz");
    pool.push_back(i % 3 == 0 ? ".zz" : ".y.zz");
  }
  std::vector<std::string_view> queries(pool.begin(), pool.end());
  ExpectPipelineMatchesScalar(image.routes(), queries);

  Resolver resolver(&image.routes(), ResolveOptions{});
  std::vector<BatchLookup> results(queries.size());
  resolver.ResolveBatchPipelined(queries, results, Resolver::kDefaultPipelineWindow);
  EXPECT_EQ(MatchedKey(image.routes(), results[1]), ".rutgers.edu") << "a chain reaching a route";
  EXPECT_TRUE(results[1].suffix_match);
  EXPECT_FALSE(results[3].route.ok()) << "a chain reaching none";
  EXPECT_FALSE(results[5].route.ok()) << "a chain reaching none";
}

TEST(ResolverPipeline, StrangerBatchesAroundTheMemoThresholdMatchScalar) {
  // The memo is armed once 64 queries have left the window.  Strangers under a few
  // domains, interleaved with exact hits that never leave it, so the batch is
  // larger than the count that arms the memo.
  FrozenImage image(DeferredWalkRoutes());
  const char* const kDomains[] = {".cs.rutgers.edu", ".rutgers.edu", ".lab.y.zz",
                                  ".unrouted.example"};
  for (size_t strangers : {size_t{63}, size_t{64}, size_t{65}}) {
    std::vector<std::string> pool;
    for (size_t i = 0; i < strangers; ++i) {
      pool.push_back("s" + std::to_string(i) + kDomains[i % 4]);
      pool.push_back("h" + std::to_string(i % 16) + ".cs.rutgers.edu");
    }
    std::vector<std::string_view> queries(pool.begin(), pool.end());
    SCOPED_TRACE(std::to_string(strangers) + " strangers");
    ExpectPipelineMatchesScalar(image.routes(), queries);

    Resolver resolver(&image.routes(), ResolveOptions{});
    std::vector<BatchLookup> results(queries.size());
    ResolvePipelineStats stats;
    resolver.ResolveBatchPipelined(queries, results, Resolver::kDefaultPipelineWindow, &stats);
    if (ResolvePipelineStats::compiled_in()) {
      EXPECT_EQ(stats.deferred_queries, strangers);
      EXPECT_EQ(stats.window_retirements, strangers);
      if (strangers < 64) {
        EXPECT_EQ(stats.suffix_memo_hits, 0u) << "too few deferred queries to arm the memo";
      } else {
        EXPECT_GT(stats.suffix_memo_hits, 0u);
      }
    }
  }
}

TEST(ResolverPipeline, StrangersDifferingOnlyAfterTheFirstDotMatchScalar) {
  // One first label, many tails.  The memo key runs from the first dot, so each
  // tail walks on its own: "host.rutgers.edu" matches .rutgers.edu while
  // "host.wisc.edu", with the same last label, falls back to .edu.
  FrozenImage image(DeferredWalkRoutes());
  const char* const kTails[] = {".rutgers.edu", ".wisc.edu",   ".edu",      ".cs.rutgers.edu",
                                ".rutgers.com", ".a.lab.y.zz", ".lab.y.zz.", ".y.zz"};
  std::vector<std::string> pool;
  for (int round = 0; round < 12; ++round) {
    for (const char* tail : kTails) {
      pool.push_back(std::string("host") + tail);
    }
  }
  std::vector<std::string_view> queries(pool.begin(), pool.end());
  ASSERT_GE(queries.size(), 64u) << "must be big enough to arm the suffix memo";
  ExpectPipelineMatchesScalar(image.routes(), queries);

  Resolver resolver(&image.routes(), ResolveOptions{});
  std::vector<BatchLookup> results(queries.size());
  resolver.ResolveBatchPipelined(queries, results, Resolver::kDefaultPipelineWindow);
  const size_t last = queries.size() - std::size(kTails);
  EXPECT_EQ(MatchedKey(image.routes(), results[last]), ".rutgers.edu");
  EXPECT_EQ(MatchedKey(image.routes(), results[last + 1]), ".edu");
  EXPECT_EQ(MatchedKey(image.routes(), results[last + 2]), ".edu");
  EXPECT_EQ(MatchedKey(image.routes(), results[last + 3]), ".rutgers.edu");
  EXPECT_FALSE(results[last + 4].route.ok());
}

TEST(ResolverPipeline, CaseFoldingStrangersDifferingOnlyInCaseMatchScalar) {
  // Under -i the interner folds: "HOST.Rutgers.EDU" finds .rutgers.edu as
  // "host.rutgers.edu" does.  The memo keys raw bytes, so each spelling walks once
  // and none takes another's outcome by accident.  The image is the same routes
  // with the fold flag set; every name is already lower case, so the stored hashes
  // and bytes are what a folding writer stores.
  std::string bytes = image::ImageWriter::Freeze(DeferredWalkRoutes());
  image::ImageHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.flags |= image::kFlagFoldCase;
  std::memcpy(bytes.data(), &header, sizeof(header));
  std::string error;
  auto view = image::ImageView::Adopt(bytes, image::ImageView::Verify::kStructure, &error);
  ASSERT_TRUE(view.has_value()) << error;
  FrozenRouteSet routes(*view);
  ASSERT_TRUE(routes.names().fold_case());

  const char* const kSpellings[] = {"host.rutgers.edu",  "HOST.RUTGERS.EDU",  "Host.Rutgers.Edu",
                                    "host.Wisc.EDU",     "HOST.wisc.edu",     "h3.CS.rutgers.edu",
                                    "H3.cs.RUTGERS.edu", "X.Unrouted.Example"};
  std::vector<std::string> pool;
  for (int round = 0; round < 12; ++round) {
    for (const char* spelling : kSpellings) {
      pool.push_back(spelling);
    }
  }
  std::vector<std::string_view> queries(pool.begin(), pool.end());
  ExpectPipelineMatchesScalar(routes, queries);

  Resolver resolver(&routes, ResolveOptions{});
  std::vector<BatchLookup> results(queries.size());
  resolver.ResolveBatchPipelined(queries, results, Resolver::kDefaultPipelineWindow);
  EXPECT_EQ(MatchedKey(routes, results[1]), ".rutgers.edu");
  EXPECT_EQ(MatchedKey(routes, results[4]), ".edu");
  EXPECT_EQ(MatchedKey(routes, results[6]), "h3.cs.rutgers.edu") << "an exact hit";
  EXPECT_FALSE(results[6].suffix_match);
  EXPECT_FALSE(results[7].route.ok());
}

TEST(ResolverPipeline, TruncatedResultsSpanMatchesScalar) {
  // The common-prefix contract must hold identically through the pipeline.
  FrozenImage image(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  std::vector<std::string_view> queries = {"phs", "nowhere", "duke", "seismo"};
  std::vector<BatchLookup> scalar(2);
  std::vector<BatchLookup> pipelined(2);
  size_t scalar_resolved = resolver.ResolveBatchScalar(queries, scalar);
  for (size_t window : kWindows) {
    EXPECT_EQ(resolver.ResolveBatchPipelined(queries, pipelined, window), scalar_resolved);
    ExpectIdentical(scalar, pipelined, queries, window);
  }
}

TEST(ResolverPipeline, StatsAreZeroedAndConsistent) {
  // The stats out-param is always zeroed; in PATHALIAS_PROBE_STATS builds the
  // counters must balance — every query leaves the window exactly once, retired
  // there or deferred — and the memo must actually fire on the repeated-domain
  // strangers (otherwise the "suffix memo stays byte-identical" property above is
  // vacuous).
  FrozenImage image(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  std::vector<std::string> pool;
  constexpr size_t kStrangers = 200;
  constexpr size_t kHosts = 50;  // routed exact names: retired in the window
  constexpr size_t kRouteless = 50;  // interned without a route: deferred
  for (size_t i = 0; i < kStrangers; ++i) {
    pool.push_back("stranger" + std::to_string(i) + ".rutgers.edu");
    if (i < kHosts) {
      pool.push_back(i % 2 == 0 ? "phs" : "caip.rutgers.edu");
    }
    if (i < kRouteless) {
      pool.push_back(i % 2 == 0 ? ".rutgers.edu" : ".y.zz");
    }
  }
  std::vector<std::string_view> queries(pool.begin(), pool.end());
  std::vector<BatchLookup> results(queries.size());

  ResolvePipelineStats stats;
  stats.lookups = 0xdeadbeef;  // must be overwritten by the zeroing contract
  size_t resolved = resolver.ResolveBatchPipelined(queries, results,
                                                   Resolver::kDefaultPipelineWindow, &stats);
  EXPECT_EQ(resolved, kStrangers + kHosts + kRouteless / 2);
  if (ResolvePipelineStats::compiled_in()) {
    EXPECT_EQ(stats.lookups, queries.size());
    EXPECT_EQ(stats.window_retirements + stats.deferred_queries, stats.lookups)
        << "every lookup leaves the window exactly once";
    EXPECT_EQ(stats.window_retirements, kHosts);
    EXPECT_EQ(stats.deferred_queries, kStrangers + kRouteless);
    EXPECT_EQ(stats.suffix_memo_hits, kStrangers - 1)
        << "strangers under one domain walk it once";
  } else {
    EXPECT_EQ(stats.lookups, 0u);
    EXPECT_EQ(stats.window_retirements, 0u);
    EXPECT_EQ(stats.deferred_queries, 0u);
    EXPECT_EQ(stats.suffix_memo_hits, 0u);
  }
}

TEST(ResolverPipeline, EmptyAndDegenerateBatches) {
  FrozenImage image(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  std::vector<BatchLookup> none;
  EXPECT_EQ(resolver.ResolveBatchPipelined({}, none, 8), 0u);
  std::vector<std::string_view> one = {"phs"};
  std::vector<BatchLookup> result(1);
  // Window 0 clamps to 1; a huge window clamps to kMaxPipelineWindow.
  EXPECT_EQ(resolver.ResolveBatchPipelined(one, result, 0), 1u);
  EXPECT_TRUE(result[0].route.ok());
  EXPECT_EQ(resolver.ResolveBatchPipelined(one, result, size_t{1} << 40), 1u);
  EXPECT_TRUE(result[0].route.ok());
}

TEST(ResolverPipeline, EmptyRouteSetFallsBackCleanly) {
  // An empty interner cannot be probed slot-wise; the pipeline must take the
  // scalar fallback and agree with it.
  FrozenImage image{RouteSet()};
  Resolver resolver(&image.routes(), ResolveOptions{});
  std::vector<std::string_view> queries = {"phs", "a.b.c", "", "."};
  std::vector<BatchLookup> results(queries.size());
  EXPECT_EQ(resolver.ResolveBatchPipelined(queries, results, 8), 0u);
  for (const BatchLookup& r : results) {
    EXPECT_FALSE(r.route.ok());
  }
}

TEST(ResolverPipeline, ResolveBatchIsThePipelinedPath) {
  // ResolveBatch == ResolveBatchPipelined at the default window, by contract.
  FrozenImage image(EdgeCaseRoutes());
  Resolver resolver(&image.routes(), ResolveOptions{});
  std::vector<std::string> pool = EdgeCasePool();
  std::vector<std::string_view> queries(pool.begin(), pool.end());
  std::vector<BatchLookup> via_batch(queries.size());
  std::vector<BatchLookup> via_pipeline(queries.size());
  size_t a = resolver.ResolveBatch(queries, via_batch);
  size_t b = resolver.ResolveBatchPipelined(queries, via_pipeline,
                                            Resolver::kDefaultPipelineWindow);
  EXPECT_EQ(a, b);
  ExpectIdentical(via_batch, via_pipeline, queries, Resolver::kDefaultPipelineWindow);
}

}  // namespace
}  // namespace pathalias
