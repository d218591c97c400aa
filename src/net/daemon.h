// The routedbd serving loop: datagram resolve service with in-process rollover.
// A rollover never tears or mixes a reply, but it is not free of downtime: the
// reload runs on the serving thread, so queries that arrive during it wait until
// it ends.
//
// One thread, one poll loop, three wakeup sources: the unix-domain socket, the
// UDP socket, and a self-pipe the (async-signal-safe) signal handlers write one
// control byte to ('T' terminate, 'H' reload).  Each turn:
//
//   1. Drain BOTH sockets completely — every datagram the kernel has queued is
//      decoded and its queries appended to one RequestCoalescer batch.  Duplicate
//      requests (same peer, same id) short-circuit to the ReplayBuffer and never
//      reach the resolver.
//   2. One ResolveBatch over the whole coalesced batch, then one reply datagram
//      per request, sliced back out of the flat result span, bounded by
//      max_reply_bytes with explicit truncation flags.  routedbd's serving engine
//      (exec::FrozenBatchEngine) has one range and its result cache on, so the
//      batch resolves one query at a time through the cache, never through the
//      resolver's window.
//   3. Housekeeping: a pending SIGHUP runs the in-process reload; the image file
//      is polled for external replacement on watch_interval_ms cadence; any image
//      a swap took out of service is unmapped (RolloverController::RetireDrained).
//      The engine's batch is fork-join and this loop owns it, so by this point no
//      thread still reads the old mapping.
//
// Because the resolve happens between drains, a rollover observed by this loop is
// linearizable from any client's point of view: every reply sent after
// AdoptRoutes returns was computed against the new mapping, and a retransmitted
// request that was first answered pre-rollover is re-answered with the SAME
// stored bytes (replay buffer), never a mix.
//
// Tests drive the loop deterministically with PollOnce(); production uses Run().

#ifndef SRC_NET_DAEMON_H_
#define SRC_NET_DAEMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/coalescer.h"
#include "src/net/rollover.h"
#include "src/net/socket.h"
#include "src/net/stats.h"
#include "src/net/wire.h"

namespace pathalias {
namespace net {

struct DaemonOptions {
  RolloverOptions rollover;       // image, map files, engine knobs
  std::string unix_path;          // unix-domain datagram socket ("" = disabled)
  int udp_port = -1;              // -1 disabled, 0 ephemeral, else the port
  size_t max_reply_bytes = kMaxDatagramBytes;  // per-reply budget (clamped by wire.cc)
  size_t replay_entries = 1024;   // dedup replay buffer capacity (0 disables dedup)
  size_t replay_bytes = 4 * 1024 * 1024;  // replay buffer byte budget (0 = unlimited)
  // Load shedding: once a turn's coalesced batch holds this many queries,
  // further requests this turn get a header-only kReplyFlagOverloaded reply
  // instead of joining the batch (0 = never shed).  An explicit "back off and
  // retry" beats a silent drop: the client stops burning its timeout, and the
  // daemon's turn latency stays bounded under a flood.
  size_t max_queries_per_turn = 16384;
  int watch_interval_ms = 1000;   // external-image poll cadence; <= 0 disables
  // Log reload outcomes (and their error detail) to stderr.  Off in tests —
  // routedbd turns it on so a failed rollover is visible in the daemon log, not
  // just a counter.
  bool log_reloads = false;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Opens the image, builds the engine, binds the sockets, creates the self-pipe.
  // False with *error on any failure.  Does NOT install signal handlers — call
  // InstallSignalHandlers() (production) or drive Request*() directly (tests).
  bool Start(std::string* error);

  // Routes SIGTERM/SIGINT → RequestTerminate and SIGHUP → RequestReload for this
  // daemon instance (one instance per process), and ignores SIGPIPE.
  bool InstallSignalHandlers(std::string* error);

  // One loop turn: wait up to `timeout_ms` (-1 = until work arrives) for a
  // datagram or control byte, then drain, resolve, reply, and do housekeeping.
  // Returns false once termination has been requested (the turn still completes:
  // queued requests are answered before shutdown).
  bool PollOnce(int timeout_ms);

  // PollOnce until terminated.  Returns the process exit code (0).
  int Run();

  // Async-signal-safe shutdown/reload triggers (each writes one self-pipe byte).
  void RequestTerminate();
  void RequestReload();

  const DaemonStats& stats() const { return stats_; }
  RolloverController& rollover() { return rollover_; }
  // The live engine (test hook; the same object across every swap).
  exec::FrozenBatchEngine* engine() { return rollover_.engine(); }
  // After Start with udp_port == 0: the kernel-assigned port.
  uint16_t udp_port() const;
  const std::string& unix_path() const { return options_.unix_path; }

 private:
  // Drains one socket: decode, dedup, coalesce.  Malformed datagrams get their
  // bad-request reply (or silence) immediately.
  void DrainSocket(DatagramSocket* socket);
  // Resolves the coalesced batch and sends every reply.
  void ResolveAndReply();
  // Sends `datagram` to `peer` out the socket matching its address family,
  // keeping the traffic counters.
  void SendReply(std::string_view datagram, const PeerAddress& peer);
  // Runs the HUP reload / image-watch / retirement housekeeping for this turn.
  void Housekeeping();
  // Reads every pending control byte off the self-pipe.
  void DrainControlPipe();

  DaemonOptions options_;
  RolloverController rollover_;
  DatagramSocket unix_socket_;
  DatagramSocket udp_socket_;
  int control_read_fd_ = -1;
  int control_write_fd_ = -1;
  bool terminate_requested_ = false;
  bool reload_requested_ = false;
  int64_t next_watch_ms_ = 0;  // steady-clock deadline for the next image stat

  RequestCoalescer coalescer_;
  ReplayBuffer replay_;
  std::vector<char> recv_buffer_;
  std::vector<BatchLookup> results_;
  std::string reply_buffer_;
  DaemonStats stats_;
};

}  // namespace net
}  // namespace pathalias

#endif  // SRC_NET_DAEMON_H_
