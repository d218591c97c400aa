// Counters for everything the routedbd loop does, printed when the daemon exits.
// Plain uint64s: the daemon loop is single-threaded, so there is nothing to
// synchronize — the struct exists so tests and the smoke harness can assert on
// behavior (dedup hits, truncations, rollovers) instead of scraping logs.

#ifndef SRC_NET_STATS_H_
#define SRC_NET_STATS_H_

#include <cstdint>
#include <string>

namespace pathalias {
namespace net {

struct DaemonStats {
  // Datagram traffic.
  uint64_t datagrams_in = 0;
  uint64_t datagrams_out = 0;
  uint64_t bad_datagrams = 0;      // undecodable requests (bad-request reply or silence)
  uint64_t send_drops = 0;         // replies the kernel or a vanished peer dropped
  // Request/reply protocol.
  uint64_t requests = 0;           // well-formed requests accepted (dedup included)
  uint64_t duplicate_requests = 0; // answered from the replay buffer, no resolve
  uint64_t truncated_replies = 0;  // replies sent with kReplyFlagTruncated
  uint64_t overload_replies = 0;   // requests shed with kReplyFlagOverloaded
  // Replay buffer (synced from ReplayBuffer once per turn).
  uint64_t replay_bytes = 0;           // current stored key+reply bytes
  uint64_t replay_evictions = 0;       // entries evicted by count or byte budget
  uint64_t replay_evicted_bytes = 0;   // bytes those evictions released
  // Resolution.
  uint64_t batches = 0;            // ResolveBatch calls (the coalescing ratio is
                                   // queries / batches vs queries / requests)
  uint64_t queries = 0;
  uint64_t resolved = 0;
  uint64_t malformed_queries = 0;  // per-name rejects inside well-formed requests
  // Rollover.
  uint64_t reloads_attempted = 0;
  uint64_t reloads_applied = 0;    // the engine adopted a fresh mapping
  uint64_t reloads_noop = 0;       // no route changed; the served image stays
  uint64_t reload_errors = 0;
  uint64_t images_retired = 0;     // old mappings unmapped after their drain

  std::string ToString() const {
    auto line = [](const char* key, uint64_t value) {
      return std::string(key) + "=" + std::to_string(value);
    };
    return line("datagrams_in", datagrams_in) + " " + line("datagrams_out", datagrams_out) +
           " " + line("bad_datagrams", bad_datagrams) + " " +
           line("send_drops", send_drops) + " " + line("requests", requests) + " " +
           line("duplicate_requests", duplicate_requests) + " " +
           line("truncated_replies", truncated_replies) + " " +
           line("overload_replies", overload_replies) + " " +
           line("replay_bytes", replay_bytes) + " " +
           line("replay_evictions", replay_evictions) + " " +
           line("replay_evicted_bytes", replay_evicted_bytes) + " " + line("batches", batches) +
           " " + line("queries", queries) + " " + line("resolved", resolved) + " " +
           line("malformed_queries", malformed_queries) + " " +
           line("reloads_attempted", reloads_attempted) + " " +
           line("reloads_applied", reloads_applied) + " " +
           line("reloads_noop", reloads_noop) + " " +
           line("reload_errors", reload_errors) + " " +
           line("images_retired", images_retired);
  }
};

}  // namespace net
}  // namespace pathalias

#endif  // SRC_NET_STATS_H_
