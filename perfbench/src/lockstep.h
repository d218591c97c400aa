// The lock-step serving driver shared by serve_1m and churn_1986.
//
// One pinned thread plays both sides.  Each turn it encodes and sends W request
// datagrams, calls Daemon::PollOnce(0) exactly once, then receives, decodes and
// checks the W replies against the reference answers.  No daemon thread runs,
// so no number rests on a cross-thread wakeup, and a request's round trip is
// encode -> send -> the daemon's whole turn -> receive -> decode.
//
// ShadowTurn is the traced dissection of a daemon turn.  It repeats, with the
// same public calls and the daemon's engine options, every step PollOnce takes
// (poll and drain, DecodeRequest, RequestCoalescer::Add/Finish,
// FrozenBatchEngine::ResolveBatch, EncodeReply, ReplayBuffer::Put, sendto) on a
// parallel stream drawn from the same distribution, and times each step.  The
// parallel stream keeps it from resolving the very names the daemon has just
// pulled into the CPU caches.

#ifndef PERFBENCH_SRC_LOCKSTEP_H_
#define PERFBENCH_SRC_LOCKSTEP_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/workloads.h"
#include "src/exec/batch_engine.h"
#include "src/image/frozen_route_set.h"
#include "src/net/coalescer.h"
#include "src/net/daemon.h"
#include "src/net/socket.h"
#include "src/net/wire.h"

namespace perfbench {

namespace exec = pathalias::exec;
namespace image = pathalias::image;
namespace net = pathalias::net;
using pathalias::BatchLookup;
using pathalias::FrozenImage;
using pathalias::FrozenRouteSet;
using pathalias::NameId;
using pathalias::RouteView;

// What the serving loops count.  Latencies are per request.
struct LoopCounters {
  uint64_t turns = 0;
  uint64_t queries = 0;  // destinations sent (attempted)
  uint64_t failed = 0;   // destinations answered wrongly, refused or never answered
  uint64_t exact = 0, suffix = 0, miss = 0;
  int64_t poll_ns = 0;    // PollOnce wall time
  int64_t driver_ns = 0;  // the rest of each turn: encode, send, receive, decode, check
  LatencyHistogram latency;  // every request
  Windows windows;           // answered destinations per second, by window
};

// churn_1986's visibility probe: a single-name request riding a turn.
struct Probe {
  std::string name;
  bool expect_route = true;  // the new outcome: an exact route (true) or a miss
};

struct ProbeReply {
  bool visible = false;  // the reply shows the new outcome
  int64_t done_ns = 0;      // when the reply was decoded
};

class LockstepDriver {
 public:
  LockstepDriver(net::Daemon* daemon, const QueryPool* pool, size_t requests_per_turn,
                 size_t queries_per_request, Tracer* tracer);

  bool Open(const std::string& client_path, std::string* error);

  // One turn.  With `record` false the turn is warm-up: its answers are checked
  // and its queries and failures counted, but no timing or outcome is kept.
  // A non-null `probe` makes the turn's last request a single-name probe whose
  // outcome lands in *probe_reply.
  void Turn(LoopCounters* counters, bool record, const Probe* probe = nullptr,
            ProbeReply* probe_reply = nullptr);

  // Sends every pool name once, in pool order (the set-up warm pass).
  void WarmPass(LoopCounters* counters);

  // Plants a wrong reference answer for the hottest destination (self-test).
  void PlantWrongAnswer();

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  // PollOnce wall time of the most recent turn.
  int64_t last_poll_ns() const { return last_poll_ns_; }

 private:
  struct Sent {
    uint64_t id = 0;
    int64_t start_ns = 0;
    size_t first = 0;  // offset into indices_
    size_t count = 0;
    bool probe = false;
    bool answered = false;
  };

  // One turn whose requests take names from `order`, starting at *cursor.
  void RunTurn(LoopCounters* counters, bool record, const Probe* probe,
               ProbeReply* probe_reply, const std::vector<uint32_t>& order, size_t* cursor);
  void SendRequest(size_t first, size_t count, const Probe* probe, LoopCounters* counters);
  void ReceiveReplies(LoopCounters* counters, bool record, const Probe* probe,
                      ProbeReply* probe_reply);

  net::Daemon* daemon_;
  const QueryPool* pool_;
  std::vector<uint64_t> expected_;  // the pool's answers (a copy the self-test may plant)
  size_t requests_per_turn_;
  size_t queries_per_request_;
  Tracer* tracer_;
  std::optional<net::DatagramSocket> client_;
  net::PeerAddress server_;
  uint64_t next_id_ = 1;
  size_t cursor_ = 0;
  int64_t last_poll_ns_ = 0;
  std::vector<uint32_t> warm_order_;
  std::vector<Sent> sent_;
  std::vector<uint32_t> indices_;
  std::vector<std::string_view> queries_;
  std::string datagram_;
  std::vector<char> buffer_;
};

// The traced dissection of one daemon turn (see the file comment).
class ShadowTurn {
 public:
  ShadowTurn(const QueryPool* pool, size_t requests_per_turn, size_t queries_per_request,
             Tracer* tracer);

  bool Open(const std::string& image_path, const exec::BatchEngineOptions& engine,
            const std::string& dir, std::string* error);

  // Reopens the image after the daemon swapped it, and hands the engine the
  // changed ids exactly as AdoptRoutes expects them.  Untimed.
  bool Refresh(std::string* error);

  // One dissected turn.  Returns the summed time of the timed steps, in ns.
  int64_t Turn();

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  int64_t resolve_ns() const { return resolve_ns_; }

 private:
  const QueryPool* pool_;
  size_t requests_per_turn_;
  size_t queries_per_request_;
  Tracer* tracer_;
  std::string image_path_;
  std::unique_ptr<FrozenImage> image_;
  std::unique_ptr<exec::FrozenBatchEngine> engine_;
  std::optional<net::DatagramSocket> server_;
  std::optional<net::DatagramSocket> client_;
  net::PeerAddress server_address_;
  net::RequestCoalescer coalescer_;
  net::ReplayBuffer replay_;
  size_t cursor_;
  uint64_t next_id_ = 1;
  int64_t resolve_ns_ = 0;
  std::vector<std::string_view> queries_;
  std::vector<BatchLookup> results_;
  std::vector<net::ReplyResult> reply_results_;
  std::string datagram_;
  std::string reply_;
  std::vector<char> buffer_;
};

// Fills the serving workloads' per-layer metrics from a traced phase: the
// shadow dissection (`dissected_ns` over `turns` turns, `shadow_resolve_ns` of
// it in ResolveBatch) against the daemon's PollOnce time (`poll_ns` over the
// same turns), the daemon's own counters, and the untraced phase's driver time
// and reply mix.
void ReportServingLayers(WorkloadResult* result, const Tracer& tracer,
                         const LoopCounters& untraced, net::Daemon& daemon,
                         int64_t shadow_resolve_ns, int64_t dissected_ns, int64_t poll_ns,
                         uint64_t turns, size_t requests_per_turn);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LOCKSTEP_H_
