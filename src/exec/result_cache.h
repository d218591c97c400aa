// A fixed-size cache of full batch-lookup results keyed by interned destination
// NameId, placed by the name's hash, with set-associative CLOCK replacement.
//
// The POI-alias observation (He et al., 2021; see PAPERS.md) holds for mail routing
// too: resolution traffic is dominated by a small hot set of repeated destinations.
// For a destination the interner knows, the entire walk that follows the initial hash
// — exact-route probe, then the precomputed domain-suffix chain — is a pure function
// of its NameId, so one cache probe replaces the whole thing, negative outcomes
// included (a cached miss is as final as a cached route).  Strangers have no NameId
// and are never cached; their dotted-suffix probing runs every time.
//
// Shape: `entries` slots organized as power-of-two sets of kWays ways.  An entry's
// set comes from its name's probe hash (NameInterner::HashOf), not from its id: the
// hash belongs to the name's bytes, so when the route source is replaced and a name
// gets another id, its entry stays in its set and is re-keyed in place.  Lookup
// probes one set (at most kWays key compares, one cache line of keys); replacement
// is CLOCK within the set — a hit arms the way's reference bit, the rotating hand
// evicts the first unarmed way and disarms the armed ones it passes.  No linked
// lists, no tombstones, no allocation after construction.
//
// Concurrency: one owner.  A ResultCache belongs to exactly one range of one batch
// engine — range r of every batch resolves through cache r — and nothing but that
// range's job touches it.  The job may run on a different pool thread from one
// batch to the next; ThreadPool::Run's lock handoff orders each batch's accesses
// after the previous batch's, so keys and values are plain memory.  Every other
// entry point (RekeyEntries, the stats) runs on the engine's calling thread
// between batches.
//
// Lifetime: cached BatchLookups hold views into the route source's storage (interner
// bytes, route bytes — possibly an mmap'd .pari image).  The cache must not outlive
// the route source; when the source is replaced, FrozenBatchEngine::AdoptRoutes
// re-keys and re-resolves every entry through RekeyEntries, or drops it.

#ifndef SRC_EXEC_RESULT_CACHE_H_
#define SRC_EXEC_RESULT_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/route_db/resolver.h"
#include "src/support/interner.h"

namespace pathalias {
namespace exec {

class ResultCache {
 private:
  // Defined up front so the public Handle below can point at one.
  struct Set {
    NameId keys[4] = {kNoName, kNoName, kNoName, kNoName};
    uint8_t armed[4] = {0, 0, 0, 0};  // CLOCK reference bits
    uint8_t hand = 0;
    BatchLookup values[4];
  };

 public:
  static constexpr size_t kWays = 4;
  static_assert(sizeof(Set::keys) / sizeof(Set::keys[0]) == kWays);

  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };

  // A resolved set position: Begin() maps the key's hash to its set once and
  // prefetches the set's line, then Get and Put reuse the handle instead of
  // recomputing the tag — the recompute was a measurable slice of the hit path,
  // and issuing Begin a query early hides the set's cache miss behind the
  // previous query's walk.
  class Handle {
   public:
    Handle() = default;

   private:
    friend class ResultCache;
    explicit Handle(Set* set) : set_(set) {}
    Set* set_ = nullptr;
  };

  // `entries` is the requested capacity; it is rounded up to a whole power-of-two
  // number of sets (so the real capacity is the next multiple of kWays whose set
  // count is a power of two).  0 disables the cache entirely.
  explicit ResultCache(size_t entries) {
    if (entries == 0) {
      return;
    }
    size_t sets = 1;
    while (sets * kWays < entries) {
      sets *= 2;
    }
    sets_ = std::vector<Set>(sets);
    set_mask_ = sets - 1;
  }

  bool enabled() const { return !sets_.empty(); }
  size_t capacity() const { return sets_.size() * kWays; }
  const Stats& stats() const { return stats_; }

  // Locates the set of the key whose probe hash is `hash` (NameInterner::HashOf)
  // and prefetches its line.  Issue as early as the hash is known — ideally a
  // query ahead — then hand the handle to Get and Put.
  Handle Begin(uint64_t hash) {
    Set* set = &sets_[SetOf(hash)];
    __builtin_prefetch(set);
    return Handle(set);
  }

  // True and fills `out` if `key` is cached; arms the way's CLOCK reference bit.
  // `handle` must come from Begin with the hash of `key`'s name.
  bool Get(Handle handle, NameId key, BatchLookup* out) {
    ++stats_.lookups;
    Set& set = *handle.set_;
    for (size_t way = 0; way < kWays; ++way) {
      if (set.keys[way] == key) {
        set.armed[way] = 1;
        *out = set.values[way];
        ++stats_.hits;
        return true;
      }
    }
    return false;
  }

  // Inserts (or refreshes) `key`.  The caller has just computed `value` with
  // Resolver::LookupInterned, so `value` is THE result for `key` — a duplicate
  // insert simply overwrites with identical bytes.  `handle` as for Get.
  void Put(Handle handle, NameId key, const BatchLookup& value) {
    Set& set = *handle.set_;
    size_t victim = kWays;  // first empty or matching way wins without the hand
    for (size_t way = 0; way < kWays; ++way) {
      if (set.keys[way] == key || set.keys[way] == kNoName) {
        victim = way;
        break;
      }
    }
    if (victim == kWays) {
      // CLOCK: march the hand, disarming armed ways, until an unarmed way turns up.
      // Bounded: after at most kWays steps every way is disarmed.
      for (;;) {
        size_t way = set.hand;
        set.hand = (set.hand + 1) % kWays;
        if (set.armed[way] == 0) {
          victim = way;
          break;
        }
        set.armed[way] = 0;
      }
      ++stats_.evictions;
    }
    set.keys[victim] = key;
    set.values[victim] = value;
    set.armed[victim] = 1;
    ++stats_.insertions;
  }

  // The adoption hook: calls `rekey(key, &value)` for every live entry, which
  // rewrites the value and returns the key to keep it under, or returns kNoName
  // to drop it.  A kept entry stays in its set, so its new key must name the
  // same bytes, hashed the same way, as the old one did.
  template <typename Rekey>
  void RekeyEntries(Rekey&& rekey) {
    for (Set& set : sets_) {
      for (size_t way = 0; way < kWays; ++way) {
        if (set.keys[way] != kNoName) {
          set.keys[way] = rekey(set.keys[way], &set.values[way]);
        }
      }
    }
  }

 private:
  size_t SetOf(uint64_t hash) const {
    // Fibonacci scramble: spreads names whose hashes differ only in a few bits.
    return (hash * 0x9E3779B97F4A7C15ull >> 32) & set_mask_;
  }

  std::vector<Set> sets_;
  size_t set_mask_ = 0;
  Stats stats_;
};

}  // namespace exec
}  // namespace pathalias

#endif  // SRC_EXEC_RESULT_CACHE_H_
