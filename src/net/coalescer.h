// Request coalescing and duplicate-request dedup for the routedbd loop.
//
// RequestCoalescer: the daemon drains every datagram the kernel has queued before
// resolving anything, accumulating all their queries into ONE flat batch — so a
// burst of concurrent clients costs one FrozenBatchEngine::ResolveBatch call
// instead of N small ones, and the demultiplexing back to per-client replies is a
// span slice per request.
// Query bytes are copied out of the receive buffer into an owned arena (the buffer
// is reused for the next datagram); views are materialized only at Finish(), after
// the arena stops growing.
//
// ReplayBuffer: the dedup side of the retransmit discipline (wire.h).  Keyed by
// (peer address bytes, request id), holding the encoded reply datagram that was
// sent.  A retransmitted request is answered by resending those exact bytes with
// kReplyFlagReplayed OR'd in — the resolve is not repeated, and a client that
// missed the first reply cannot observe a different answer computed after a map
// rollover (the at-most-once answer property the linearizability test leans on).
// Bounded FIFO: `capacity` entries AND `max_bytes` of stored key+reply bytes,
// oldest evicted first past either limit — entry count alone would let a few
// thousand 64 KiB replies pin tens of MiB.  A replay miss after eviction falls
// through to a fresh resolve, which is still correct — just not guaranteed
// byte-identical across a rollover, matching UDP's at-least-once reality.
// Evictions are counted (entries and bytes) for DaemonStats.

#ifndef SRC_NET_COALESCER_H_
#define SRC_NET_COALESCER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/net/socket.h"

namespace pathalias {
namespace net {

class RequestCoalescer {
 public:
  // One accepted request datagram awaiting its slice of the batch results.
  struct Pending {
    PeerAddress peer;
    uint64_t request_id = 0;
    size_t first_query = 0;  // offset of this request's queries in the flat batch
    size_t query_count = 0;
  };

  // Appends a request's queries to the batch.  `queries` views the receive
  // buffer; the bytes are copied here.
  void Add(const PeerAddress& peer, uint64_t request_id,
           const std::vector<std::string_view>& queries);

  // Materializes the flat query views (stable until Reset).  Call once after the
  // last Add of a turn.
  const std::vector<std::string_view>& Finish();

  const std::vector<Pending>& pending() const { return pending_; }
  size_t total_queries() const { return offsets_.size(); }
  bool empty() const { return pending_.empty(); }

  // Clears for the next turn, keeping the arena's capacity warm.
  void Reset();

 private:
  std::vector<Pending> pending_;
  std::string arena_;  // all query bytes, back to back
  std::vector<std::pair<uint32_t, uint32_t>> offsets_;  // (offset, length) per query
  std::vector<std::string_view> views_;
};

class ReplayBuffer {
 public:
  // `capacity` bounds entries; `max_bytes` bounds total stored key+reply bytes
  // (0 = unlimited).  Either bound alone triggers FIFO eviction.
  explicit ReplayBuffer(size_t capacity, size_t max_bytes = 0)
      : capacity_(capacity), max_bytes_(max_bytes) {}

  // The stored reply for (peer, id), or nullptr.  The pointer is valid until the
  // next Put.
  const std::string* Find(const PeerAddress& peer, uint64_t request_id) const;

  // Records the reply sent for (peer, id), evicting oldest-first past either
  // bound.  A repeat Put for the same key (client retransmitted before we
  // replied, and both got answered) overwrites in place.  A single reply larger
  // than the whole byte budget is not stored — the budget is a hard cap.
  void Put(const PeerAddress& peer, uint64_t request_id, std::string reply);

  size_t size() const { return replies_.size(); }
  size_t bytes() const { return bytes_; }
  // Monotonic totals since construction, for DaemonStats.
  uint64_t evicted_entries() const { return evicted_entries_; }
  uint64_t evicted_bytes() const { return evicted_bytes_; }

 private:
  static std::string KeyOf(const PeerAddress& peer, uint64_t request_id);
  void EvictOldest();

  size_t capacity_;
  size_t max_bytes_;
  size_t bytes_ = 0;  // stored key + reply bytes across all live entries
  uint64_t evicted_entries_ = 0;
  uint64_t evicted_bytes_ = 0;
  std::unordered_map<std::string, std::string> replies_;
  std::deque<std::string> order_;  // insertion order of keys, for FIFO eviction
};

}  // namespace net
}  // namespace pathalias

#endif  // SRC_NET_COALESCER_H_
