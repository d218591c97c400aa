// LinkIndex: the (from, to) -> link map behind Graph's duplicate-link resolution.
//
// A link declared twice must find its first declaration.  Walking the source node's
// adjacency list to find it costs O(out-degree) per declaration, and a 20,000-member
// net makes that quadratic.  This index answers in O(1): open addressing with double
// hashing at prime capacity, grown along the interner's Fibonacci-prime sequence at the
// same αH = 0.79 high-water mark, with the paper's probe geometry (slot k mod T, stride
// T-2-(k mod T-2)) through FastMod reciprocals.  The key packs the two endpoints'
// creation orders into one integer; Thomas Wang's 64-bit integer mix (the inthash
// family) spreads it before the remainders.
//
// Only non-alias links are indexed.  At most one exists per ordered pair, because every
// one is created through Graph::AddLink, which merges duplicates here; links are never
// unlinked, so an entry never goes stale.

#ifndef SRC_GRAPH_LINK_INDEX_H_
#define SRC_GRAPH_LINK_INDEX_H_

#include <cstdint>
#include <vector>

#include "src/graph/link.h"
#include "src/graph/node.h"
#include "src/support/fastmod.h"
#include "src/support/primes.h"

namespace pathalias {

class LinkIndex {
 public:
  // The from→to link, or nullptr if none was recorded.
  Link* Find(const Node* from, const Node* to) const {
    if (slots_.empty()) {
      return nullptr;
    }
    return slots_[SlotFor(Key(from, to))].link;
  }

  // Records `link` as from→to's link.  The pair must not be recorded yet.
  void Insert(const Node* from, const Node* to, Link* link) {
    if (static_cast<double>(size_ + 1) > kHighWater * static_cast<double>(slots_.size())) {
      Grow();
    }
    const uint64_t key = Key(from, to);
    slots_[SlotFor(key)] = Slot{key, link};
    ++size_;
  }

  // Presizes the table for `links` links in one rehash: the smallest prime that holds
  // them under αH.  A no-op when the table already does.
  void Reserve(size_t links) {
    const uint64_t needed = static_cast<uint64_t>(static_cast<double>(links) / kHighWater) + 1;
    if (needed > slots_.size()) {
      Rehash(NextPrime(needed < 5 ? 5 : needed));
    }
  }

 private:
  static constexpr double kHighWater = NameInterner::kHighWater;

  struct Slot {
    uint64_t key = 0;
    Link* link = nullptr;  // nullptr: empty
  };

  static uint64_t Key(const Node* from, const Node* to) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(from->order)) << 32) |
           static_cast<uint32_t>(to->order);
  }

  // Thomas Wang's 64-bit integer hash.
  static uint64_t Mix(uint64_t key) {
    key += ~(key << 32);
    key ^= key >> 22;
    key += ~(key << 13);
    key ^= key >> 8;
    key += key << 3;
    key ^= key >> 15;
    key += ~(key << 27);
    key ^= key >> 31;
    return key;
  }

  // Index of the slot holding `key`, or of the empty slot where it belongs.
  uint64_t SlotFor(uint64_t key) const {
    const uint64_t k = Mix(key);
    const uint64_t capacity = slots_.size();
    uint64_t index = fast_index_.Mod(k);
    const uint64_t stride = fast_stride_.divisor() - fast_stride_.Mod(k);
    while (slots_[index].link != nullptr && slots_[index].key != key) {
      index += stride;
      if (index >= capacity) {
        index -= capacity;
      }
    }
    return index;
  }

  void Grow() { Rehash(growth_.NextSize(slots_.size() < 5 ? 5 : slots_.size())); }

  void Rehash(uint64_t capacity) {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.assign(capacity, Slot{});
    fast_index_.Reset(capacity);
    fast_stride_.Reset(capacity - 2);
    for (const Slot& slot : old) {
      if (slot.link != nullptr) {
        slots_[SlotFor(slot.key)] = slot;
      }
    }
  }

  std::vector<Slot> slots_;
  FastMod fast_index_;   // reciprocal of the capacity
  FastMod fast_stride_;  // reciprocal of the capacity - 2
  FibonacciPrimes growth_;
  size_t size_ = 0;
};

}  // namespace pathalias

#endif  // SRC_GRAPH_LINK_INDEX_H_
