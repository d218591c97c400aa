#include "src/net/daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "src/support/io_retry.h"

namespace pathalias {
namespace net {

namespace {

// The one self-pipe write end signal handlers reach (one daemon per process; the
// handler must be a free function and async-signal-safe, so no member access).
volatile int g_signal_pipe_fd = -1;

extern "C" void DaemonSignalHandler(int signum) {
  int fd = g_signal_pipe_fd;
  if (fd < 0) {
    return;
  }
  char byte = signum == SIGHUP ? 'H' : 'T';
  // A full pipe means requests are already pending; dropping the byte is fine.
  int saved_errno = errno;
  // pathalint: allow(R3): async-signal context — RetryEintr is a template call
  // and retrying inside a handler is wrong anyway; a dropped self-pipe byte is
  // explicitly fine (see comment above), so the bare one-shot write is correct.
  [[maybe_unused]] ssize_t ignored = ::write(fd, &byte, 1);
  errno = saved_errno;
}

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The same routable-query rule `routedb batch` applies: printable, non-blank
// ASCII.  Anything else is answered kResultMalformed instead of being treated as
// a (never-matching) database key.
bool RoutableQuery(std::string_view query) {
  for (unsigned char c : query) {
    if (c < 0x21 || c > 0x7e) {
      return false;
    }
  }
  return !query.empty();
}

// OR a flag into an encoded reply's header in place (flags live at byte 6).
void OrReplyFlag(std::string* datagram, uint16_t flag) {
  if (datagram->size() < sizeof(WireHeader)) {
    return;
  }
  uint16_t flags;
  std::memcpy(&flags, datagram->data() + 6, sizeof(flags));
  flags |= flag;
  std::memcpy(datagram->data() + 6, &flags, sizeof(flags));
}

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      rollover_(options_.rollover),
      replay_(options_.replay_entries, options_.replay_bytes) {}

Daemon::~Daemon() {
  if (g_signal_pipe_fd == control_write_fd_) {
    g_signal_pipe_fd = -1;
  }
  if (control_read_fd_ >= 0) {
    ::close(control_read_fd_);
  }
  if (control_write_fd_ >= 0) {
    ::close(control_write_fd_);
  }
}

bool Daemon::Start(std::string* error) {
  if (options_.unix_path.empty() && options_.udp_port < 0) {
    *error = "no listening address: configure a unix socket path or a UDP port";
    return false;
  }
  if (!rollover_.Start(error)) {
    return false;
  }
  if (!options_.unix_path.empty()) {
    auto socket = DatagramSocket::BindUnix(options_.unix_path, error);
    if (!socket.has_value()) {
      return false;
    }
    unix_socket_ = std::move(*socket);
  }
  if (options_.udp_port >= 0) {
    auto socket = DatagramSocket::BindUdp(static_cast<uint16_t>(options_.udp_port), error);
    if (!socket.has_value()) {
      return false;
    }
    udp_socket_ = std::move(*socket);
  }
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  control_read_fd_ = pipe_fds[0];
  control_write_fd_ = pipe_fds[1];
  int fl = ::fcntl(control_read_fd_, F_GETFL);
  if (fl < 0 || ::fcntl(control_read_fd_, F_SETFL, fl | O_NONBLOCK) != 0) {
    *error = std::string("fcntl(control pipe): ") + std::strerror(errno);
    return false;
  }
  recv_buffer_.resize(kMaxDatagramBytes);
  next_watch_ms_ = options_.watch_interval_ms > 0
                       ? SteadyNowMs() + options_.watch_interval_ms
                       : 0;
  return true;
}

bool Daemon::InstallSignalHandlers(std::string* error) {
  if (control_write_fd_ < 0) {
    *error = "InstallSignalHandlers before Start";
    return false;
  }
  support::IgnoreSigpipe();
  g_signal_pipe_fd = control_write_fd_;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = DaemonSignalHandler;
  sigemptyset(&action.sa_mask);
  // No SA_RESTART: poll should return EINTR so the control byte is seen promptly
  // (it is retried by WaitReadable/poll loops anyway).
  for (int signum : {SIGTERM, SIGINT, SIGHUP}) {
    if (::sigaction(signum, &action, nullptr) != 0) {
      *error = std::string("sigaction: ") + std::strerror(errno);
      return false;
    }
  }
  return true;
}

void Daemon::RequestTerminate() {
  char byte = 'T';
  support::RetryEintr([&] { return ::write(control_write_fd_, &byte, 1); });
}

void Daemon::RequestReload() {
  char byte = 'H';
  support::RetryEintr([&] { return ::write(control_write_fd_, &byte, 1); });
}

void Daemon::DrainControlPipe() {
  // The read end is O_NONBLOCK (Start): read until EAGAIN.
  char bytes[64];
  for (;;) {
    ssize_t got = support::RetryEintr(
        [&] { return ::read(control_read_fd_, bytes, sizeof(bytes)); });
    if (got <= 0) {
      return;
    }
    for (ssize_t i = 0; i < got; ++i) {
      if (bytes[i] == 'T') {
        terminate_requested_ = true;
      } else if (bytes[i] == 'H') {
        reload_requested_ = true;
      }
    }
  }
}

void Daemon::DrainSocket(DatagramSocket* socket) {
  if (!socket->valid()) {
    return;
  }
  for (;;) {
    PeerAddress peer;
    bool got_one = false;
    std::string error;
    ssize_t got = socket->Recv(recv_buffer_.data(), recv_buffer_.size(), &peer, &got_one,
                               &error);
    if (!got_one) {
      return;  // drained (or a transient error; either way this turn is done)
    }
    ++stats_.datagrams_in;
    std::string_view datagram(recv_buffer_.data(), static_cast<size_t>(got));
    DecodedRequest request;
    std::string why;
    uint64_t recovered_id = 0;
    if (!DecodeRequest(datagram, &request, &why, &recovered_id)) {
      ++stats_.bad_datagrams;
      if (recovered_id != 0 || datagram.size() >= sizeof(WireHeader)) {
        EncodeBadRequestReply(recovered_id, &reply_buffer_);
        SendReply(reply_buffer_, peer);
      }
      continue;
    }
    ++stats_.requests;
    if (const std::string* stored = replay_.Find(peer, request.request_id)) {
      // Retransmit: answer with the SAME bytes (flagged), no second resolve —
      // the at-most-once answer a rollover must not be able to change.
      ++stats_.duplicate_requests;
      reply_buffer_ = *stored;
      OrReplyFlag(&reply_buffer_, kReplyFlagReplayed);
      SendReply(reply_buffer_, peer);
      continue;
    }
    if (options_.max_queries_per_turn > 0 &&
        coalescer_.total_queries() + request.queries.size() >
            options_.max_queries_per_turn) {
      // Shed: answer "overloaded" now instead of letting the batch (and this
      // turn's latency) grow without bound.  NOT recorded in the replay buffer
      // — the client retransmits the same id and gets a real answer once the
      // flood subsides.
      ++stats_.overload_replies;
      EncodeOverloadReply(request.request_id, &reply_buffer_);
      SendReply(reply_buffer_, peer);
      continue;
    }
    coalescer_.Add(peer, request.request_id, request.queries);
  }
}

void Daemon::ResolveAndReply() {
  if (coalescer_.empty()) {
    return;
  }
  const std::vector<std::string_view>& queries = coalescer_.Finish();
  results_.assign(queries.size(), BatchLookup{});
  exec::FrozenBatchEngine* engine = rollover_.engine();
  size_t resolved = engine->ResolveBatch(queries, results_);
  ++stats_.batches;
  stats_.queries += queries.size();
  stats_.resolved += resolved;

  const FrozenRouteSet* routes = rollover_.routes();
  std::vector<ReplyResult> reply_results;
  for (const RequestCoalescer::Pending& pending : coalescer_.pending()) {
    reply_results.clear();
    reply_results.reserve(pending.query_count);
    for (size_t i = 0; i < pending.query_count; ++i) {
      size_t slot = pending.first_query + i;
      ReplyResult result;
      if (!RoutableQuery(queries[slot])) {
        result.status = kResultMalformed;
        ++stats_.malformed_queries;
      } else if (!results_[slot].route.ok()) {
        result.status = kResultMiss;
      } else {
        result.status = results_[slot].suffix_match ? kResultSuffix : kResultExact;
        result.via = routes->names().View(results_[slot].via);
        result.route = results_[slot].route.route;
      }
      reply_results.push_back(result);
    }
    size_t included = EncodeReply(pending.request_id, 0, pending.query_count,
                                  reply_results, options_.max_reply_bytes, &reply_buffer_);
    if (included < pending.query_count) {
      ++stats_.truncated_replies;
    }
    // Record BEFORE sending: if the send drops, the client's retransmit must
    // still find the answer that was committed for this id.
    replay_.Put(pending.peer, pending.request_id, reply_buffer_);
    SendReply(reply_buffer_, pending.peer);
  }
  coalescer_.Reset();
}

void Daemon::SendReply(std::string_view datagram, const PeerAddress& peer) {
  DatagramSocket* socket =
      peer.addr()->sa_family == AF_UNIX ? &unix_socket_ : &udp_socket_;
  if (!socket->valid()) {
    ++stats_.send_drops;
    return;
  }
  bool dropped = false;
  std::string error;
  if (socket->SendTo(datagram, peer, &dropped, &error)) {
    ++stats_.datagrams_out;
  } else {
    ++stats_.send_drops;
  }
}

void Daemon::Housekeeping() {
  std::string detail;
  // Counts a reload outcome and — crucially for a failed rollover — logs the
  // detail instead of discarding it.  A failed reload is NOT fatal: the old map
  // keeps serving, the error is visible, and the image watch (or the next HUP)
  // retries, so a transiently bad publish heals without operator intervention.
  auto account = [&](const char* trigger, ReloadOutcome outcome) {
    switch (outcome) {
      case ReloadOutcome::kApplied:
        ++stats_.reloads_applied;
        if (options_.log_reloads) {
          std::fprintf(stderr, "routedbd: reload (%s) applied: %s\n", trigger, detail.c_str());
        }
        break;
      case ReloadOutcome::kNoop:
        ++stats_.reloads_noop;
        break;
      case ReloadOutcome::kError:
        ++stats_.reload_errors;
        if (options_.log_reloads) {
          std::fprintf(stderr,
                       "routedbd: reload (%s) failed, still serving the old map: %s\n",
                       trigger, detail.c_str());
        }
        break;
    }
  };
  if (reload_requested_) {
    reload_requested_ = false;
    ++stats_.reloads_attempted;
    // HUP means "re-read the sources" when they are configured; a daemon serving
    // an externally-updated image treats HUP as "check the image right now".
    account("SIGHUP", options_.rollover.map_files.empty()
                          ? rollover_.CheckImage(&detail)
                          : rollover_.ReloadFromSources(&detail));
  }
  if (options_.watch_interval_ms > 0) {
    int64_t now = SteadyNowMs();
    if (now >= next_watch_ms_) {
      next_watch_ms_ = now + options_.watch_interval_ms;
      ++stats_.reloads_attempted;
      account("watch", rollover_.CheckImage(&detail));
    }
  }
  stats_.images_retired += rollover_.RetireDrained();
  stats_.replay_bytes = replay_.bytes();
  stats_.replay_evictions = replay_.evicted_entries();
  stats_.replay_evicted_bytes = replay_.evicted_bytes();
}

bool Daemon::PollOnce(int timeout_ms) {
  struct pollfd fds[3];
  nfds_t count = 0;
  int unix_slot = -1;
  int udp_slot = -1;
  if (unix_socket_.valid()) {
    unix_slot = static_cast<int>(count);
    fds[count++] = {unix_socket_.fd(), POLLIN, 0};
  }
  if (udp_socket_.valid()) {
    udp_slot = static_cast<int>(count);
    fds[count++] = {udp_socket_.fd(), POLLIN, 0};
  }
  fds[count++] = {control_read_fd_, POLLIN, 0};

  // Wake for the image watch even when no traffic arrives.
  int wait_ms = timeout_ms;
  if (options_.watch_interval_ms > 0) {
    int64_t until_watch = next_watch_ms_ - SteadyNowMs();
    int watch_ms = static_cast<int>(std::max<int64_t>(0, until_watch));
    wait_ms = timeout_ms < 0 ? watch_ms : std::min(timeout_ms, watch_ms);
  }
  support::RetryEintr([&] { return ::poll(fds, count, wait_ms); });

  DrainControlPipe();
  // Drain BOTH sockets before resolving: this is the coalescing window — every
  // datagram already queued joins this turn's single batch.
  if (unix_slot >= 0) {
    DrainSocket(&unix_socket_);
  }
  if (udp_slot >= 0) {
    DrainSocket(&udp_socket_);
  }
  ResolveAndReply();
  Housekeeping();
  return !terminate_requested_;
}

int Daemon::Run() {
  while (PollOnce(-1)) {
  }
  return 0;
}

uint16_t Daemon::udp_port() const { return udp_socket_.bound_udp_port(); }

}  // namespace net
}  // namespace pathalias
