// Interned symbol table: the one owner of every host/domain name string.
//
// The paper spends a whole section on symbol handling because name strings are the
// dominant cost of mapping.  This module pushes that observation through the entire
// pipeline: a name is interned exactly once (at tokenization) and every layer above —
// graph, mapper, route printer, route database, resolver — traffics in dense `NameId`
// handles.  Whether two names denote the same object collapses to an integer compare;
// id → string_view back-resolution is O(1) and only happens lazily, at output time.
//
// The table is open addressing with double hashing in the style of
// src/support/hash_table.h (same primary/secondary hashes, same Fibonacci-prime growth,
// same αH = 0.79 high-water mark), with two additions:
//   * each slot caches 32 bits of the key's hash, so probe collisions are filtered
//     without touching the string bytes;
//   * interning a dotted name precomputes its domain-suffix chain: interning
//     "caip.rutgers.edu" also interns ".rutgers.edu" and ".edu" and records the links,
//     so a resolver's suffix walk (paper §Domains lookup order) and the mapper's
//     up-the-domain-tree test are id-chasing, never substring re-hashing.
//
// The paper's retired-table trick is preserved: once parsing is done the probe table
// can be stolen (StealTable) to hold the shortest-path heap.  Ids, views and suffix
// chains survive the theft; string → id lookups degrade to a linear scan, which only
// rare post-mapping probes take.
//
// The interner can also run *frozen*: AdoptFrozen points it at entry/slot/byte arrays
// laid out by src/image's ImageWriter (typically an mmap'd .pari file).  A frozen
// interner answers Find/View/Suffix against the mapping with zero copies and zero
// allocations; Intern and StealTable are forbidden.  The frozen record types below are
// the on-disk layout — fixed-width, offset-based, no pointers — shared by the writer,
// the image validator, and the adopt mode.

#ifndef SRC_SUPPORT_INTERNER_H_
#define SRC_SUPPORT_INTERNER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "src/support/arena.h"
#include "src/support/fastmod.h"
#include "src/support/primes.h"

namespace pathalias {

// Dense handle for an interned name.  Ids are assigned in first-intern order and are
// stable for the interner's lifetime (rehashing moves slots, never ids).
using NameId = uint32_t;
inline constexpr NameId kNoName = std::numeric_limits<uint32_t>::max();

class NameInterner {
 public:
  struct Options {
    bool fold_case = false;  // normalize ASCII upper case away (-i)
    uint64_t initial_capacity = 0;
  };

  // Write-side (Intern) accounting only.  Const lookups — Find/View/Suffix, on a live
  // or frozen table — mutate nothing, not even these counters, so any number of
  // threads may read one interner (typically one shared .pari mapping) concurrently
  // with no synchronization.  Interning concurrently with anything is still a race.
  struct Stats {
    uint64_t accesses = 0;  // Intern calls
    uint64_t probes = 0;    // slot inspections on their behalf
    uint64_t rehashes = 0;  // table growths
  };

  // One name record in frozen layout: everything the live Entry holds, with the char
  // pointer replaced by an offset into a shared NUL-terminated byte pool.
  struct FrozenEntry {
    uint64_t hash;          // full probe hash, as HashName computed it at intern time
    uint32_t bytes_offset;  // into the name-byte pool; the name is NUL-terminated there
    uint32_t length;
    NameId suffix;          // domain-suffix chain link, or kNoName
    uint32_t reserved;
  };
  static_assert(sizeof(FrozenEntry) == 24);

  // One probe-table slot in frozen layout — bit-identical to the live table's slots.
  struct alignas(8) FrozenSlot {
    NameId id;      // kNoName == empty
    uint32_t hash;  // low 32 bits of the entry's probe hash
  };
  static_assert(sizeof(FrozenSlot) == 8);

  // A complete frozen table: pointers into externally owned (typically mmap'd) memory
  // that must outlive the adopting interner.
  struct FrozenView {
    const char* name_bytes = nullptr;
    size_t name_bytes_size = 0;
    const FrozenEntry* entries = nullptr;
    uint32_t entry_count = 0;
    const FrozenSlot* slots = nullptr;
    uint64_t table_capacity = 0;
    bool fold_case = false;
  };

  NameInterner();  // owns a private arena
  explicit NameInterner(Options options);
  // Shares `arena` (which must outlive the interner); names and tables live there.
  NameInterner(Arena* arena, Options options);

  NameInterner(NameInterner&&) = default;
  NameInterner& operator=(NameInterner&&) = default;
  NameInterner(const NameInterner&) = delete;
  NameInterner& operator=(const NameInterner&) = delete;

  // A read-only interner running directly over frozen-layout arrays (see FrozenView).
  // The backing memory must outlive the result.  Intern/StealTable are forbidden on
  // the result; Find/View/Suffix/HasSuffix work without copying or allocating.
  static NameInterner AdoptFrozen(const FrozenView& view);
  bool frozen() const { return frozen_.entries != nullptr; }

  // Returns the id for `name`, interning (and case-normalizing) it if new.
  // Forbidden on a frozen interner (asserts; degrades to Find in release builds).
  NameId Intern(std::string_view name) { return Intern(name, HashName(name)); }
  // Intern with the hash precomputed by HashOf(name), as FindPrehashed is to Find:
  // the same id and stats, one hash pass saved.  A batch caller hashes a window of
  // names and prefetches their first probe slots before interning them in order.
  NameId Intern(std::string_view name, uint64_t hash);

  // Presizes the probe table for `names` names in one rehash, so a caller that can
  // estimate its input skips the growth rehashes on the way there.  The new capacity
  // is the smallest prime that holds `names` under αH; growth past it continues the
  // Fibonacci-prime sequence.  A no-op on a frozen or stolen table, or on one that
  // already holds `names`.
  void Reserve(uint64_t names);

  // Read-only lookup: the id for `name`, or kNoName.  Never allocates and never
  // writes (see Stats): safe to call from many threads against one table.
  NameId Find(std::string_view name) const;

  // O(1) back-resolution.  The view/pointer is NUL-terminated, case-normalized, and
  // stable for the interner's lifetime.
  std::string_view View(NameId id) const {
    if (frozen()) {
      const FrozenEntry& entry = frozen_.entries[id];
      return {frozen_.name_bytes + entry.bytes_offset, entry.length};
    }
    const Entry& entry = entries_[id];
    return {entry.chars, entry.length};
  }
  const char* CStr(NameId id) const {
    return frozen() ? frozen_.name_bytes + frozen_.entries[id].bytes_offset
                    : entries_[id].chars;
  }

  // The next link of `id`'s precomputed domain-suffix chain: for "caip.rutgers.edu"
  // that is ".rutgers.edu", then ".edu", then kNoName.
  NameId Suffix(NameId id) const {
    return frozen() ? frozen_.entries[id].suffix : entries_[id].suffix;
  }

  // The full probe hash recorded for `id` at intern time — what ImageWriter freezes so
  // an adopted table probes identically without ever re-hashing a string.
  uint64_t HashOf(NameId id) const {
    return frozen() ? frozen_.entries[id].hash : entries_[id].hash;
  }
  // The probe hash for arbitrary bytes, folded exactly like the stored copies —
  // hashing a window of queries up front is stage 1 of the resolver's software
  // pipeline (the per-byte shift/xor chains of different queries are independent,
  // so a block of HashOf calls overlaps where one-at-a-time hashing serializes).
  uint64_t HashOf(std::string_view name) const { return HashName(name); }
  bool fold_case() const { return options_.fold_case; }

  // --- Pipelined (prefetch-aware) probing ------------------------------------
  //
  // Find() is one dependent-miss chain: slot -> entry -> name bytes.  The calls
  // below break it into resumable steps so a batch caller can keep K probes in
  // flight, prefetching each probe's first slot one round (K lookups' steps)
  // before inspecting it.  The step sequence visits exactly the slots ProbeFor
  // visits and applies the same filters (slot hash32, then byte equality — plus
  // the stored full hash, a pure narrowing of the same filter), so the outcome is
  // identical to Find(name) for every input.

  // A resumable double-hashing probe position.  `hash` is HashOf(name).
  struct ProbeCursor {
    uint64_t index = 0;
    uint64_t stride = 0;
    uint64_t hash = 0;
  };

  // True when the table supports slot-level probing: a live table with slots, or
  // a non-empty frozen one.  False (empty, stolen) means callers must fall back
  // to Find(), which handles the degraded modes.
  bool can_probe() const {
    if (frozen()) {
      return frozen_.entry_count > 0 && frozen_.table_capacity >= 5;
    }
    return !stolen_ && capacity_ >= 5;
  }

  ProbeCursor BeginProbe(uint64_t hash) const {
    // Same geometry as ProbeFor — slot k mod T, the paper's secondary hash
    // T-2-(k mod T-2) in [1, T-2] — but both remainders go through precomputed
    // magic reciprocals (see fastmod.h): the hardware divider does not pipeline,
    // so two DIVs per probe sequence would serialize the in-flight window that
    // ResolveBatchPipelined exists to overlap.
    return ProbeCursor{fast_index_.Mod(hash),
                       fast_stride_.divisor() - fast_stride_.Mod(hash), hash};
  }

  // Prefetches the cursor's next probe position(s).  Depth is deliberately 1:
  // although the stride is fixed at BeginProbe (so deeper positions are
  // address-computable up front), measured end-to-end batch throughput REGRESSES
  // at depth 2-3 — most probes stop at the first slot, so deeper prefetches are
  // mostly wasted bandwidth and page walks.
  static constexpr uint64_t kProbePrefetchDepth = 1;
  void PrefetchSlot(const ProbeCursor& cursor) const {
    const Slot* slots = probe_slots();
    const uint64_t capacity = table_capacity();
    uint64_t index = cursor.index;
    for (uint64_t step = 0; step < kProbePrefetchDepth; ++step) {
      __builtin_prefetch(slots + index);
      index += cursor.stride;
      if (index >= capacity) {
        index -= capacity;
      }
    }
  }

  enum class ProbeOutcome : uint8_t {
    kEmpty,      // the name is not in the table; the probe is over
    kCandidate,  // slot hash32 matched: verify `*candidate`'s bytes next
    kCollision,  // occupied by a different hash: cursor advanced, probe again
  };

  // Inspects exactly one slot (which PrefetchSlot should have been called for one
  // pipeline round earlier) and advances the cursor past it on kCandidate and
  // kCollision, so a rejected candidate resumes the probe exactly where ProbeFor
  // would.
  ProbeOutcome ProbeStep(ProbeCursor* cursor, NameId* candidate) const {
    const Slot& slot = probe_slots()[cursor->index];
    if (slot.id == kNoName) {
      return ProbeOutcome::kEmpty;
    }
    cursor->index += cursor->stride;
    if (cursor->index >= table_capacity()) {
      cursor->index -= table_capacity();
    }
    if (slot.hash == static_cast<uint32_t>(cursor->hash)) {
      *candidate = slot.id;
      return ProbeOutcome::kCandidate;
    }
    return ProbeOutcome::kCollision;
  }

  // Candidate verification: filter on the stored full hash (a superset of the
  // slot's 32-bit filter, so rejections here are exactly ProbeFor's byte-compare
  // rejections), then compare the bytes.
  bool CandidateHashMatches(NameId id, uint64_t hash) const { return HashOf(id) == hash; }
  bool CandidateEquals(NameId id, std::string_view name) const {
    if (options_.fold_case) {
      return EqualName(id, name);  // byte-by-byte, folding the query as it goes
    }
    // Word-wide compare: host names are 5-25 bytes, where libc memcmp's call
    // and dispatch overhead rivals the compare itself.  Candidates here have
    // already matched 64 hash bits, so equality is the overwhelmingly common
    // outcome and the loop nearly always runs to completion.
    std::string_view stored = View(id);
    if (stored.size() != name.size()) {
      return false;
    }
    const char* a = stored.data();
    const char* b = name.data();
    size_t n = name.size();
    for (; n >= 8; a += 8, b += 8, n -= 8) {
      uint64_t wa;
      uint64_t wb;
      __builtin_memcpy(&wa, a, 8);
      __builtin_memcpy(&wb, b, 8);
      if (wa != wb) {
        return false;
      }
    }
    for (; n > 0; ++a, ++b, --n) {
      if (*a != *b) {
        return false;
      }
    }
    return true;
  }

  // Find with the hash precomputed by HashOf(name): identical outcome, one hash
  // pass saved.  Handles every mode Find handles (frozen, stolen, empty).
  NameId FindPrehashed(std::string_view name, uint64_t hash) const;

  // True if `id`'s name ends with the dot-prefixed domain `suffix` — an integer walk
  // of the chain, no byte comparisons.  A name is not a suffix of itself.
  bool HasSuffix(NameId id, NameId suffix) const {
    for (NameId s = Suffix(id); s != kNoName; s = Suffix(s)) {
      if (s == suffix) {
        return true;
      }
    }
    return false;
  }

  size_t size() const { return frozen() ? frozen_.entry_count : entries_.size(); }
  uint64_t table_capacity() const { return frozen() ? frozen_.table_capacity : capacity_; }
  double load_factor() const {
    uint64_t capacity = table_capacity();
    return capacity == 0 ? 0.0 : static_cast<double>(size()) / static_cast<double>(capacity);
  }
  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats{}; }
  bool stolen() const { return stolen_; }
  Arena& arena() { return *arena_; }  // live interners only; a frozen one has no arena

  // Relinquishes the probe table (the mapper builds the shortest-path heap in it).
  // Ids, View and Suffix keep working; Find/Intern fall back to a linear scan.
  // Forbidden on a frozen interner.
  std::pair<void*, size_t> StealTable();

  static constexpr double kHighWater = 0.79;

 private:
  // The one definition of the interner's case normalization (-i folds ASCII upper
  // case away).
  static char FoldChar(char c) {
    return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }

  struct Entry {
    const char* chars;  // NUL-terminated, arena-owned, already case-normalized
    uint32_t length;
    NameId suffix;      // domain-suffix chain link, or kNoName
    uint64_t hash;      // full probe hash; growth reinserts without touching strings
  };

  // The live table uses the frozen slot layout directly (8-byte, 8-aligned so a stolen
  // table can hold a PathLabel* heap), which is what makes freezing a straight copy.
  using Slot = FrozenSlot;

  NameInterner(const FrozenView& view, Options options);  // AdoptFrozen backend

  // The probe table in whichever mode is active; only valid when can_probe().
  const Slot* probe_slots() const { return frozen() ? frozen_.slots : slots_; }

  uint64_t HashName(std::string_view name) const;
  bool EqualName(NameId id, std::string_view name) const;
  // Index of the probe_slots() slot holding `name` (hash `k`), or of the empty slot
  // where it belongs; requires can_probe().  `stats` is where probe counts accrue:
  // &stats_ on the Intern path, nullptr on the const Find path (which must stay
  // mutation-free for concurrent readers).
  uint64_t ProbeFor(std::string_view name, uint64_t k, Stats* stats) const;
  void Rehash(uint64_t new_capacity);
  NameId LinearFind(std::string_view name) const;

  // Recomputes the probe-geometry reciprocals after any table_capacity() change
  // (growth rehash, frozen adoption).  A capacity below the can_probe() floor
  // leaves them stale, which is harmless: BeginProbe requires can_probe().
  void RefreshProbeDivisors() {
    uint64_t capacity = table_capacity();
    if (capacity >= 5) {
      fast_index_.Reset(capacity);
      fast_stride_.Reset(capacity - 2);
    }
  }

  std::unique_ptr<Arena> owned_arena_;
  Arena* arena_ = nullptr;
  Options options_;
  Slot* slots_ = nullptr;
  uint64_t capacity_ = 0;
  FastMod fast_index_;   // reciprocal of table_capacity()
  FastMod fast_stride_;  // reciprocal of table_capacity() - 2
  std::vector<Entry> entries_;
  FibonacciPrimes growth_;
  FrozenView frozen_;  // non-null entries => adopt-read-only mode
  bool stolen_ = false;
  Stats stats_;  // write-side only; const lookups never touch it (concurrent readers)
};

}  // namespace pathalias

#endif  // SRC_SUPPORT_INTERNER_H_
