#include "src/support/interner.h"

#include <cassert>
#include <cstring>

namespace pathalias {

// Case folding lives in the header now (NameInterner::FoldChar) so the batch
// engine's shard hash can normalize identically; member bodies below call it
// unqualified.

NameInterner::NameInterner() : NameInterner(Options{}) {}

NameInterner::NameInterner(Options options)
    : owned_arena_(std::make_unique<Arena>()), arena_(owned_arena_.get()), options_(options) {
  if (options_.initial_capacity > 0) {
    Rehash(NextPrime(options_.initial_capacity < 5 ? 5 : options_.initial_capacity));
    stats_.rehashes = 0;  // initial sizing is not a growth event
  }
}

NameInterner::NameInterner(Arena* arena, Options options) : arena_(arena), options_(options) {
  if (options_.initial_capacity > 0) {
    Rehash(NextPrime(options_.initial_capacity < 5 ? 5 : options_.initial_capacity));
    stats_.rehashes = 0;
  }
}

NameInterner::NameInterner(const FrozenView& view, Options options)
    : options_(options), frozen_(view) {
  RefreshProbeDivisors();
}

NameInterner NameInterner::AdoptFrozen(const FrozenView& view) {
  Options options;
  options.fold_case = view.fold_case;
  return NameInterner(view, options);
}

uint64_t NameInterner::HashName(std::string_view name) const {
  // The paper's bit-level shift/xor key, folded to match the stored normalization.
  uint64_t k = 0x5061746841ull;
  if (options_.fold_case) {
    for (char c : name) {
      k ^= static_cast<unsigned char>(FoldChar(c));
      k ^= k << 13;
      k ^= k >> 7;
      k ^= k << 17;
    }
  } else {
    for (unsigned char c : name) {
      k ^= c;
      k ^= k << 13;
      k ^= k >> 7;
      k ^= k << 17;
    }
  }
  return k;
}

bool NameInterner::EqualName(NameId id, std::string_view name) const {
  std::string_view stored = View(id);
  if (stored.size() != name.size()) {
    return false;
  }
  if (!options_.fold_case) {
    return std::memcmp(stored.data(), name.data(), name.size()) == 0;
  }
  for (size_t i = 0; i < stored.size(); ++i) {
    if (stored[i] != FoldChar(name[i])) {
      return false;
    }
  }
  return true;
}

uint64_t NameInterner::ProbeFor(std::string_view name, uint64_t k, Stats* stats) const {
  const Slot* slots = probe_slots();
  const uint64_t capacity = table_capacity();
  // Slot k mod T and the paper's secondary hash T-2-(k mod T-2), range [1, T-2].
  const ProbeCursor start = BeginProbe(k);
  uint64_t index = start.index;
  const uint64_t stride = start.stride;
  const uint32_t hash32 = static_cast<uint32_t>(k);
  for (;;) {
    if (stats != nullptr) {
      ++stats->probes;
    }
    const Slot& slot = slots[index];
    if (slot.id == kNoName || (slot.hash == hash32 && EqualName(slot.id, name))) {
      return index;
    }
    index += stride;
    if (index >= capacity) {
      index -= capacity;
    }
  }
}

void NameInterner::Rehash(uint64_t new_capacity) {
  assert(new_capacity > entries_.size() && new_capacity >= 5);
  Slot* old_slots = slots_;
  uint64_t old_capacity = capacity_;
  slots_ = arena_->NewArray<Slot>(new_capacity);
  for (uint64_t i = 0; i < new_capacity; ++i) {
    slots_[i] = Slot{kNoName, 0};
  }
  capacity_ = new_capacity;
  RefreshProbeDivisors();
  ++stats_.rehashes;
  // Reinsert by cached hash: id stability means no string is ever re-hashed or
  // re-compared during growth (slots carry their full probe identity).
  for (uint64_t i = 0; i < old_capacity; ++i) {
    if (old_slots[i].id == kNoName) {
      continue;
    }
    const ProbeCursor start = BeginProbe(entries_[old_slots[i].id].hash);
    uint64_t index = start.index;
    const uint64_t stride = start.stride;
    while (slots_[index].id != kNoName) {
      index += stride;
      if (index >= capacity_) {
        index -= capacity_;
      }
    }
    slots_[index] = old_slots[i];
  }
  if (old_slots != nullptr) {
    // "they are placed on a list and made available to our memory allocator"
    arena_->Donate(old_slots, old_capacity * sizeof(Slot));
  }
}

NameId NameInterner::LinearFind(std::string_view name) const {
  size_t count = size();
  for (size_t id = 0; id < count; ++id) {
    if (EqualName(static_cast<NameId>(id), name)) {
      return static_cast<NameId>(id);
    }
  }
  return kNoName;
}

NameId NameInterner::Find(std::string_view name) const {
  // No stats here: the const lookup path writes nothing, which is what lets any
  // number of reader threads share one table (or one mmap'd image) lock-free.
  if (frozen()) {
    if (frozen_.entry_count == 0 || frozen_.table_capacity < 5) {
      return kNoName;
    }
    return frozen_.slots[ProbeFor(name, HashName(name), nullptr)].id;
  }
  if (stolen_) {
    return LinearFind(name);
  }
  if (capacity_ == 0) {
    return kNoName;
  }
  return slots_[ProbeFor(name, HashName(name), nullptr)].id;  // kNoName: an empty slot
}

NameId NameInterner::FindPrehashed(std::string_view name, uint64_t hash) const {
  // Find(name) with the hash already computed (callers batch HashOf up front).
  // Same degraded modes, same const/no-stats discipline, same outcome.
  if (frozen()) {
    if (frozen_.entry_count == 0 || frozen_.table_capacity < 5) {
      return kNoName;
    }
    return frozen_.slots[ProbeFor(name, hash, nullptr)].id;
  }
  if (stolen_) {
    return LinearFind(name);
  }
  if (capacity_ == 0) {
    return kNoName;
  }
  return slots_[ProbeFor(name, hash, nullptr)].id;
}

NameId NameInterner::Intern(std::string_view name, uint64_t k) {
  assert(!frozen() && "Intern on a frozen (read-only) interner");
  assert(k == HashName(name));
  if (frozen()) {
    return FindPrehashed(name, k);  // release-mode degradation: read-only lookup
  }
  ++stats_.accesses;
  // One hash per intern: HashName folds exactly like the stored copy, so `k` is also
  // the normalized entry's probe hash below.
  if (stolen_) {
    // Degraded mode after the heap stole the table: ids and views still work, new
    // names append without a probe table.  Rare (post-mapping) by construction.
    NameId existing = LinearFind(name);
    if (existing != kNoName) {
      return existing;
    }
  } else {
    if (capacity_ == 0 || static_cast<double>(entries_.size() + 1) >
                              kHighWater * static_cast<double>(capacity_)) {
      Rehash(growth_.NextSize(capacity_ < 5 ? 5 : capacity_));
    }
    uint64_t index = ProbeFor(name, k, &stats_);
    if (slots_[index].id != kNoName) {
      return slots_[index].id;
    }
    slots_[index] = Slot{static_cast<NameId>(entries_.size()), static_cast<uint32_t>(k)};
  }

  // Normalized, NUL-terminated copy in the arena; the interner is the one owner.
  char* chars = static_cast<char*>(arena_->Allocate(name.size() + 1, 1));
  if (options_.fold_case) {
    for (size_t i = 0; i < name.size(); ++i) {
      chars[i] = FoldChar(name[i]);
    }
  } else {
    std::memcpy(chars, name.data(), name.size());
  }
  chars[name.size()] = '\0';
  NameId id = static_cast<NameId>(entries_.size());
  entries_.push_back(Entry{chars, static_cast<uint32_t>(name.size()), kNoName, k});

  // Precompute the domain-suffix chain: ".rutgers.edu" for "caip.rutgers.edu", and
  // so on recursively.  Suffixes are strictly shorter, so this terminates; interning
  // may rehash, so re-index entries_ after the recursive call.
  std::string_view stored{chars, name.size()};
  size_t dot = stored.find('.', 1);
  if (dot != std::string_view::npos) {
    NameId suffix = Intern(stored.substr(dot));
    entries_[id].suffix = suffix;
  }
  return id;
}

void NameInterner::Reserve(uint64_t names) {
  if (frozen() || stolen_) {
    return;
  }
  // Intern grows before the insert that would pass αH; `needed` keeps all `names`
  // under it.
  uint64_t needed = static_cast<uint64_t>(static_cast<double>(names) / kHighWater) + 1;
  if (needed <= capacity_) {
    return;
  }
  Rehash(NextPrime(needed < 5 ? 5 : needed));
}

std::pair<void*, size_t> NameInterner::StealTable() {
  assert(!frozen() && "StealTable on a frozen (read-only) interner");
  assert(!stolen_);
  if (frozen()) {
    return {nullptr, 0};
  }
  stolen_ = true;
  void* storage = slots_;
  size_t bytes = static_cast<size_t>(capacity_) * sizeof(Slot);
  slots_ = nullptr;
  capacity_ = 0;
  return {storage, bytes};
}

}  // namespace pathalias
