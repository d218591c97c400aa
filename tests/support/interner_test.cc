#include "src/support/interner.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

namespace pathalias {
namespace {

TEST(NameInterner, InternIsIdempotent) {
  NameInterner interner;
  NameId a = interner.Intern("seismo");
  NameId b = interner.Intern("seismo");
  EXPECT_EQ(a, b);
  EXPECT_NE(interner.Intern("ihnp4"), a);
}

TEST(NameInterner, FindNeverCreates) {
  NameInterner interner;
  EXPECT_EQ(interner.Find("ghost"), kNoName);
  size_t before = interner.size();
  EXPECT_EQ(interner.Find("ghost"), kNoName);
  EXPECT_EQ(interner.size(), before);
  NameId id = interner.Intern("ghost");
  EXPECT_EQ(interner.Find("ghost"), id);
}

TEST(NameInterner, ViewIsNulTerminatedAndStable) {
  NameInterner interner;
  NameId id = interner.Intern(std::string("duke"));  // temporary: bytes must be copied
  std::string_view view = interner.View(id);
  EXPECT_EQ(view, "duke");
  EXPECT_EQ(view.data()[view.size()], '\0');
  EXPECT_STREQ(interner.CStr(id), "duke");
}

TEST(NameInterner, CaseNormalizationFoldsEverySurface) {
  NameInterner interner(NameInterner::Options{.fold_case = true});
  NameId a = interner.Intern("SeIsMo");
  EXPECT_EQ(interner.Intern("seismo"), a);
  EXPECT_EQ(interner.Intern("SEISMO"), a);
  EXPECT_EQ(interner.Find("sEiSmO"), a);
  EXPECT_EQ(interner.View(a), "seismo") << "stored copy is the normalized form";
}

TEST(NameInterner, CaseMattersByDefault) {
  NameInterner interner;
  EXPECT_NE(interner.Intern("Seismo"), interner.Intern("seismo"));
  EXPECT_EQ(interner.Find("SEISMO"), kNoName);
}

TEST(NameInterner, IdsAreDenseAndStableAcrossRehash) {
  NameInterner interner;
  constexpr int kCount = 20000;  // far past several Fibonacci growths
  std::vector<NameId> ids;
  std::vector<const char*> pointers;
  ids.reserve(kCount);
  for (int i = 0; i < kCount; ++i) {
    std::string name = "host" + std::to_string(i);
    NameId id = interner.Intern(name);
    ids.push_back(id);
    pointers.push_back(interner.CStr(id));
  }
  EXPECT_GT(interner.stats().rehashes, 5u) << "the test must actually cross rehashes";
  for (int i = 0; i < kCount; ++i) {
    std::string name = "host" + std::to_string(i);
    EXPECT_EQ(interner.Find(name), ids[i]) << name;
    EXPECT_EQ(interner.Intern(name), ids[i]) << name;
    EXPECT_EQ(interner.CStr(ids[i]), pointers[i]) << "string storage must not move";
  }
}

TEST(NameInterner, PrehashedInternMatchesIntern) {
  // Two interners fed the same names, one hashing inside Intern and one given
  // HashOf(name): same ids (suffix chains included), same views, same stats, across
  // growth rehashes and under case folding.
  for (bool fold : {false, true}) {
    SCOPED_TRACE(fold ? "fold_case" : "exact case");
    NameInterner plain(NameInterner::Options{.fold_case = fold});
    NameInterner prehashed(NameInterner::Options{.fold_case = fold});
    for (int i = 0; i < 3000; ++i) {
      std::string name = "Host" + std::to_string(i % 1700);
      if (i % 3 == 0) {
        name += ".Dept" + std::to_string(i % 7) + ".EDU";
      }
      NameId id = plain.Intern(name);
      EXPECT_EQ(prehashed.Intern(name, prehashed.HashOf(name)), id) << name;
    }
    ASSERT_EQ(prehashed.size(), plain.size());
    for (NameId id = 0; id < plain.size(); ++id) {
      EXPECT_EQ(prehashed.View(id), plain.View(id));
      EXPECT_EQ(prehashed.Suffix(id), plain.Suffix(id));
      EXPECT_EQ(prehashed.HashOf(id), plain.HashOf(id));
    }
    EXPECT_EQ(prehashed.stats().accesses, plain.stats().accesses);
    EXPECT_EQ(prehashed.stats().probes, plain.stats().probes);
    EXPECT_EQ(prehashed.stats().rehashes, plain.stats().rehashes);
  }
}

TEST(NameInterner, SuffixChainForDottedHost) {
  NameInterner interner;
  NameId caip = interner.Intern("caip.rutgers.edu");
  NameId rutgers = interner.Find(".rutgers.edu");
  NameId edu = interner.Find(".edu");
  ASSERT_NE(rutgers, kNoName) << "interning a dotted name interns its suffixes";
  ASSERT_NE(edu, kNoName);
  EXPECT_EQ(interner.Suffix(caip), rutgers);
  EXPECT_EQ(interner.Suffix(rutgers), edu);
  EXPECT_EQ(interner.Suffix(edu), kNoName);
}

TEST(NameInterner, SuffixChainOfUndottedNameIsEmpty) {
  NameInterner interner;
  EXPECT_EQ(interner.Suffix(interner.Intern("seismo")), kNoName);
}

TEST(NameInterner, HasSuffixWalksTheChain) {
  NameInterner interner;
  NameId sub = interner.Intern(".css.gov.edu");
  NameId gov = interner.Find(".gov.edu");
  NameId edu = interner.Find(".edu");
  EXPECT_TRUE(interner.HasSuffix(sub, gov));
  EXPECT_TRUE(interner.HasSuffix(sub, edu));
  EXPECT_FALSE(interner.HasSuffix(sub, sub)) << "a name is not its own suffix";
  EXPECT_FALSE(interner.HasSuffix(edu, sub));
  NameId unrelated = interner.Intern(".com");
  EXPECT_FALSE(interner.HasSuffix(sub, unrelated));
}

TEST(NameInterner, SuffixChainSharedBetweenSiblings) {
  NameInterner interner;
  NameId a = interner.Intern("caip.rutgers.edu");
  NameId b = interner.Intern("topaz.rutgers.edu");
  EXPECT_EQ(interner.Suffix(a), interner.Suffix(b)) << "siblings share one chain";
}

TEST(NameInterner, SuffixChainsRespectCaseFolding) {
  NameInterner interner(NameInterner::Options{.fold_case = true});
  NameId caip = interner.Intern("CAIP.Rutgers.EDU");
  NameId edu = interner.Find(".edu");
  ASSERT_NE(edu, kNoName);
  EXPECT_TRUE(interner.HasSuffix(caip, edu));
}

TEST(NameInterner, StealTableKeepsViewsAndDegradesLookups) {
  NameInterner interner;
  NameId caip = interner.Intern("caip.rutgers.edu");
  NameId seismo = interner.Intern("seismo");
  uint64_t capacity = interner.table_capacity();
  auto [storage, bytes] = interner.StealTable();
  ASSERT_NE(storage, nullptr);
  EXPECT_EQ(bytes, capacity * 8u) << "8-byte slots: big enough for a pointer heap";
  EXPECT_EQ(reinterpret_cast<uintptr_t>(storage) % 8u, 0u);
  EXPECT_TRUE(interner.stolen());
  // Back-resolution and chains survive the theft.
  EXPECT_EQ(interner.View(caip), "caip.rutgers.edu");
  EXPECT_EQ(interner.Suffix(caip), interner.Find(".rutgers.edu"));
  // Lookups fall back to a linear scan, and interning still works.
  EXPECT_EQ(interner.Find("seismo"), seismo);
  EXPECT_EQ(interner.Intern("seismo"), seismo);
  NameId late = interner.Intern("latecomer");
  EXPECT_EQ(interner.Find("latecomer"), late);
}

TEST(NameInterner, ReserveSizesOnceAndKeepsIds) {
  NameInterner interner;
  NameId early = interner.Intern("caip.rutgers.edu");
  interner.Reserve(20000);
  EXPECT_EQ(interner.stats().rehashes, 2u) << "first growth, then the one reserve";
  EXPECT_GE(interner.table_capacity() * NameInterner::kHighWater, 20000.0);
  EXPECT_EQ(interner.Find("caip.rutgers.edu"), early);
  EXPECT_EQ(interner.Suffix(early), interner.Find(".rutgers.edu"));
  const uint64_t capacity = interner.table_capacity();
  for (int i = static_cast<int>(interner.size()); i < 20000; ++i) {
    interner.Intern("host" + std::to_string(i));
  }
  EXPECT_EQ(interner.table_capacity(), capacity) << "the reserved table never grows";
  EXPECT_EQ(interner.stats().rehashes, 2u);
  interner.Reserve(100);
  EXPECT_EQ(interner.table_capacity(), capacity) << "a smaller reserve is a no-op";
  for (int i = 0; i < 10; ++i) {  // the prime leaves a few names of slack
    interner.Intern("more" + std::to_string(i));
  }
  EXPECT_GT(interner.table_capacity(), capacity) << "growth resumes past the reserve";
  EXPECT_EQ(interner.Find("host12345"), interner.Intern("host12345"));

  // A stolen table is the heap's now: Reserve leaves it alone.
  interner.StealTable();
  interner.Reserve(1000000);
  EXPECT_TRUE(interner.stolen());
  EXPECT_EQ(interner.table_capacity(), 0u);
  EXPECT_EQ(interner.Find("more9"), interner.size() - 1);
}

TEST(NameInterner, SharedArenaReceivesTheStrings) {
  Arena arena;
  size_t before = arena.stats().bytes_requested;
  NameInterner interner(&arena, NameInterner::Options{});
  interner.Intern("research");
  EXPECT_GT(arena.stats().bytes_requested, before);
}

TEST(NameInterner, MatchesReferenceMapUnderCollisionPressure) {
  NameInterner interner;
  std::unordered_map<std::string, NameId> reference;
  for (int i = 0; i < 5000; ++i) {
    std::string name = "c" + std::to_string((i * 7919) % 2500);
    NameId id = interner.Intern(name);
    auto [it, inserted] = reference.emplace(name, id);
    EXPECT_EQ(it->second, id) << name;
  }
  EXPECT_EQ(interner.size(), reference.size());
}

// The growth path the route database needs: a million distinct names keep dense ids,
// O(1) views, and a load factor below the paper's αH high-water mark.
TEST(NameInterner, MillionNameGrowthPath) {
  NameInterner interner;
  constexpr uint32_t kCount = 1000000;
  for (uint32_t i = 0; i < kCount; ++i) {
    char buffer[32];
    int len = std::snprintf(buffer, sizeof(buffer), "n%u", i);
    NameId id = interner.Intern(std::string_view(buffer, static_cast<size_t>(len)));
    ASSERT_EQ(id, i) << "ids are dense in first-intern order";
  }
  EXPECT_EQ(interner.size(), kCount);
  EXPECT_LE(interner.load_factor(), NameInterner::kHighWater + 1e-9);
  // Spot-check id -> view -> id round trips across the whole range.
  for (uint32_t i = 0; i < kCount; i += 99991) {
    std::string expected = "n" + std::to_string(i);
    EXPECT_EQ(interner.View(i), expected);
    EXPECT_EQ(interner.Find(expected), i);
  }
}

}  // namespace
}  // namespace pathalias
