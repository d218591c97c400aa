// Closed-loop latency of the routedbd serving loop: an in-process daemon on a
// unix-domain datagram socket, a client issuing one request at a time and
// waiting for the reply.  What gets measured is the full service path a mailer
// would see — encode, sendto, poll wakeup, drain, coalesce, resolve, reply
// encode, sendto, client recv, decode — not the resolver alone; the resolver's
// own numbers live in the batch_resolve sections.
//
// Percentiles are reported in milliseconds (lower is better) so
// scripts/bench_delta.py gates them like every other *_ms metric.

#ifndef BENCH_DAEMON_LATENCY_H_
#define BENCH_DAEMON_LATENCY_H_

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/net/daemon.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/support/io_retry.h"

namespace pathalias {
namespace bench_daemon {

struct LatencyStats {
  bool ok = false;
  std::string error;
  size_t requests = 0;
  size_t queries_per_request = 0;
  size_t resolved = 0;  // total hit results across all timed requests
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double mean_ms = 0.0;
};

inline double Percentile(const std::vector<double>& sorted, double fraction) {
  if (sorted.empty()) {
    return 0.0;
  }
  size_t index = static_cast<size_t>(fraction * static_cast<double>(sorted.size()));
  return sorted[std::min(index, sorted.size() - 1)];
}

// Serves `image_path` from a background-thread daemon and runs `requests` timed
// closed-loop round trips of `queries_per_request` destinations drawn round-robin
// from `pool` (plus a 10% warmup that is not recorded).  The daemon serves as
// routedbd does: one engine thread and a 4096-entry result cache.
inline LatencyStats MeasureDaemonLatency(const std::string& image_path,
                                         const std::vector<std::string_view>& pool,
                                         size_t queries_per_request, size_t requests) {
  namespace fs = std::filesystem;
  LatencyStats stats;
  stats.requests = requests;
  stats.queries_per_request = queries_per_request;
  if (pool.empty() || queries_per_request == 0 ||
      queries_per_request > net::kMaxQueriesPerRequest) {
    stats.error = "bad workload shape";
    return stats;
  }

  fs::path dir = fs::temp_directory_path() /
                 ("bench_daemon_" + std::to_string(::getpid()) + "_" +
                  std::to_string(queries_per_request));
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);

  net::DaemonOptions options;
  options.rollover.image_path = image_path;
  options.rollover.engine.cache_entries = 4096;  // the serving configuration
  options.unix_path = (dir / "d.sock").string();
  options.watch_interval_ms = 0;
  net::Daemon daemon(std::move(options));
  if (!daemon.Start(&stats.error)) {
    return stats;
  }
  std::thread server([&daemon] { daemon.Run(); });

  {
    auto client = net::DatagramSocket::ClientForUnix((dir / "c.sock").string(),
                                                     &stats.error);
    if (!client.has_value()) {
      daemon.RequestTerminate();
      server.join();
      return stats;
    }
    net::PeerAddress server_addr = net::DatagramSocket::UnixPeer(daemon.unix_path());
    std::vector<char> buffer(net::kMaxDatagramBytes);
    std::vector<std::string_view> queries(queries_per_request);
    std::vector<double> samples;
    samples.reserve(requests);
    std::string datagram;
    const size_t warmup = requests / 10 + 1;
    uint64_t request_id = 1;
    size_t next = 0;

    for (size_t i = 0; i < warmup + requests; ++i) {
      for (size_t q = 0; q < queries_per_request; ++q) {
        queries[q] = pool[next++ % pool.size()];
      }
      if (!net::EncodeRequest(request_id++, queries, &datagram)) {
        stats.error = "encode failed";
        break;
      }
      bench::WallTimer timer;
      bool dropped = false;
      if (!client->SendTo(datagram, server_addr, &dropped, &stats.error)) {
        stats.error = "send failed: " + stats.error;
        break;
      }
      if (!client->WaitReadable(2000)) {
        stats.error = "reply timeout";
        break;
      }
      net::PeerAddress from;
      bool got_one = false;
      ssize_t got = client->Recv(buffer.data(), buffer.size(), &from, &got_one,
                                 &stats.error);
      if (!got_one) {
        stats.error = "recv failed: " + stats.error;
        break;
      }
      net::DecodedReply reply;
      std::string decode_error;
      if (!net::DecodeReply(std::string_view(buffer.data(), static_cast<size_t>(got)),
                            &reply, &decode_error)) {
        stats.error = "undecodable reply: " + decode_error;
        break;
      }
      double ms = timer.Ms();  // decode included: the full client-visible path
      if (i >= warmup) {
        samples.push_back(ms);
        for (const net::ReplyResult& result : reply.results) {
          if (result.status == net::kResultExact || result.status == net::kResultSuffix) {
            ++stats.resolved;
          }
        }
      }
    }

    if (samples.size() == requests) {
      std::sort(samples.begin(), samples.end());
      stats.p50_ms = Percentile(samples, 0.50);
      stats.p99_ms = Percentile(samples, 0.99);
      stats.max_ms = samples.back();
      double sum = 0.0;
      for (double sample : samples) {
        sum += sample;
      }
      stats.mean_ms = sum / static_cast<double>(samples.size());
      stats.ok = true;
    }
  }

  daemon.RequestTerminate();
  server.join();
  fs::remove_all(dir, ec);
  return stats;
}

struct OpenLoopStats {
  bool ok = false;
  std::string error;
  size_t requests = 0;
  size_t clients = 1;
  size_t offered_rate_per_second = 0;
  size_t replies = 0;     // matched replies; requests - replies were lost
  size_t dropped = 0;
  size_t overload_replies = 0;   // header-only sheds the daemon sent us
  size_t client_send_drops = 0;  // requests the client's sendto itself dropped
  size_t daemon_requests = 0;    // what the daemon saw (from its exit stats)
  size_t daemon_send_drops = 0;  // replies the daemon could not deliver
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

// True once any of `sockets` has a datagram queued; false after `timeout_ms`.
// The open-loop client waits on all of its sockets at once: waiting on one
// leaves the other clients' replies unread until the timeout, which then shows
// up as every run's max latency.
inline bool AnyReadable(const std::vector<net::DatagramSocket>& sockets, int timeout_ms) {
  std::vector<pollfd> entries;
  entries.reserve(sockets.size());
  for (const net::DatagramSocket& socket : sockets) {
    entries.push_back({socket.fd(), POLLIN, 0});
  }
  int ready = support::RetryEintr(
      [&] { return ::poll(entries.data(), entries.size(), timeout_ms); });
  return ready > 0 && std::any_of(entries.begin(), entries.end(), [](const pollfd& entry) {
           return (entry.revents & POLLIN) != 0;
         });
}

// Open-loop, multi-client: single-query requests are SENT on a fixed aggregate
// schedule (offered_rate per second, round-robin across `clients` independent
// sockets) regardless of whether earlier replies have arrived — the
// queueing-delay view a burst of independent mailers produces, where a slow
// turn inflates the latency of everything queued behind it.  Replies are
// matched to their send time by request id (unique across clients).  A
// header-only overloaded reply counts toward overload_replies and the request
// stays outstanding (the client discipline is back off and retransmit), so
// shed load shows up in the latency, never as a silent success.
inline OpenLoopStats MeasureDaemonOfferedLoad(const std::string& image_path,
                                              const std::vector<std::string_view>& pool,
                                              size_t clients,
                                              size_t offered_rate_per_second,
                                              size_t requests) {
  namespace fs = std::filesystem;
  using Clock = std::chrono::steady_clock;
  OpenLoopStats stats;
  stats.requests = requests;
  stats.clients = clients;
  stats.offered_rate_per_second = offered_rate_per_second;
  if (pool.empty() || offered_rate_per_second == 0 || clients == 0) {
    stats.error = "bad workload shape";
    return stats;
  }

  fs::path dir = fs::temp_directory_path() /
                 ("bench_daemon_ol_" + std::to_string(::getpid()) + "_" +
                  std::to_string(offered_rate_per_second));
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);

  net::DaemonOptions options;
  options.rollover.image_path = image_path;
  options.rollover.engine.cache_entries = 4096;
  options.unix_path = (dir / "d.sock").string();
  options.watch_interval_ms = 0;
  net::Daemon daemon(std::move(options));
  if (!daemon.Start(&stats.error)) {
    return stats;
  }
  std::thread server([&daemon] { daemon.Run(); });

  {
    std::vector<net::DatagramSocket> sockets;
    sockets.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      auto client = net::DatagramSocket::ClientForUnix(
          (dir / ("c" + std::to_string(c) + ".sock")).string(), &stats.error);
      if (!client.has_value()) {
        break;
      }
      sockets.push_back(std::move(*client));
    }
    if (sockets.size() != clients) {
      daemon.RequestTerminate();
      server.join();
      return stats;
    }
    net::PeerAddress server_addr = net::DatagramSocket::UnixPeer(daemon.unix_path());
    std::vector<char> buffer(net::kMaxDatagramBytes);
    std::vector<bool> answered(requests, false);
    std::vector<double> samples;
    samples.reserve(requests);
    std::string datagram;
    std::vector<std::string_view> one(1);

    const auto start = Clock::now();
    const double interval_ns = 1e9 / static_cast<double>(offered_rate_per_second);
    auto scheduled = [&](size_t i) {
      return start + std::chrono::nanoseconds(
                         static_cast<int64_t>(interval_ns * static_cast<double>(i)));
    };
    size_t sent = 0;
    const auto deadline_slack = std::chrono::seconds(2);

    auto drain_replies = [&]() {
      for (net::DatagramSocket& socket : sockets) {
        for (;;) {
          net::PeerAddress from;
          bool got_one = false;
          std::string error;
          ssize_t got =
              socket.Recv(buffer.data(), buffer.size(), &from, &got_one, &error);
          if (!got_one) {
            break;
          }
          net::DecodedReply reply;
          if (!net::DecodeReply(
                  std::string_view(buffer.data(), static_cast<size_t>(got)), &reply,
                  &error)) {
            continue;
          }
          if ((reply.flags & net::kReplyFlagOverloaded) != 0) {
            // Shed, not served: the request stays outstanding and its eventual
            // retransmit latency is still clocked from the original schedule.
            ++stats.overload_replies;
            continue;
          }
          size_t index = static_cast<size_t>(reply.request_id) - 1;
          if (index < requests && !answered[index]) {
            answered[index] = true;
            // Latency from the SCHEDULED send time, not the actual sendto — a
            // late dispatch is queueing delay the offered load caused, and must
            // not be silently absorbed (coordinated omission).
            samples.push_back(std::chrono::duration<double, std::milli>(
                                  Clock::now() - scheduled(index))
                                  .count());
          }
        }
      }
    };

    while (sent < requests || samples.size() < requests) {
      auto now = Clock::now();
      // Dispatch everything the schedule says is due by now.  A queue-full
      // sendto (net.unix.max_dgram_qlen can be as low as 10) is backpressure,
      // not loss: drain replies, yield the core to the daemon, and retry —
      // the scheduled-time accounting already charges the stall to latency.
      while (sent < requests && scheduled(sent) <= now) {
        drain_replies();  // keep the clients' own dgram queues (same tiny qlen
                          // cap) from overflowing during a catch-up burst
        one[0] = pool[sent % pool.size()];
        if (!net::EncodeRequest(static_cast<uint64_t>(sent) + 1, one, &datagram)) {
          stats.error = "encode failed";
          break;
        }
        net::DatagramSocket& socket = sockets[sent % clients];
        for (;;) {
          bool dropped = false;
          std::string error;
          if (socket.SendTo(datagram, server_addr, &dropped, &error)) {
            break;
          }
          if (!dropped) {
            stats.error = "send failed: " + error;
            break;
          }
          if (Clock::now() - scheduled(sent) > std::chrono::seconds(1)) {
            ++stats.client_send_drops;  // give up: a real loss, not a stall
            break;
          }
          drain_replies();
          std::this_thread::yield();
        }
        if (!stats.error.empty()) {
          break;
        }
        ++sent;
      }
      if (!stats.error.empty()) {
        break;
      }
      drain_replies();
      if (sent < requests) {
        // Between scheduled sends, yield rather than hot-spin or sleep: a
        // spinning sender starves the single-core daemon until the tiny unix
        // dgram queue overflows, and a millisecond sleep quantizes dispatch
        // into bursts that overflow it from the other side.
        std::this_thread::yield();
      } else {
        if (samples.size() >= requests) {
          break;
        }
        if (Clock::now() - scheduled(requests) > deadline_slack) {
          break;  // whatever is still missing was lost: count it, don't hang
        }
        if (!AnyReadable(sockets, 10)) {
          // A reply was lost (or shed) — the protocol's discipline is client
          // retransmit under the SAME id, which the daemon's replay buffer
          // answers without re-resolving.  Latency is still clocked from the
          // original schedule, so the loss shows up in the percentiles, not
          // silently.
          for (size_t i = 0; i < requests; ++i) {
            if (answered[i]) {
              continue;
            }
            one[0] = pool[i % pool.size()];
            if (net::EncodeRequest(static_cast<uint64_t>(i) + 1, one, &datagram)) {
              bool dropped = false;
              std::string error;
              sockets[i % clients].SendTo(datagram, server_addr, &dropped, &error);
            }
            drain_replies();
          }
        }
      }
    }

    stats.replies = samples.size();
    stats.dropped = requests - samples.size();
    if (stats.error.empty() && !samples.empty()) {
      std::sort(samples.begin(), samples.end());
      stats.p50_ms = Percentile(samples, 0.50);
      stats.p99_ms = Percentile(samples, 0.99);
      stats.max_ms = samples.back();
      stats.ok = true;
    }
  }

  daemon.RequestTerminate();
  server.join();
  stats.daemon_requests = daemon.stats().requests;
  stats.daemon_send_drops = daemon.stats().send_drops;
  fs::remove_all(dir, ec);
  return stats;
}

// The original single-socket open-loop shape, kept for metric continuity.
inline OpenLoopStats MeasureDaemonOpenLoop(const std::string& image_path,
                                           const std::vector<std::string_view>& pool,
                                           size_t offered_rate_per_second,
                                           size_t requests) {
  return MeasureDaemonOfferedLoad(image_path, pool, /*clients=*/1,
                                  offered_rate_per_second, requests);
}

}  // namespace bench_daemon
}  // namespace pathalias

#endif  // BENCH_DAEMON_LATENCY_H_
