// routedbd: the long-lived route-resolution daemon.
//
// Serves resolve queries from a frozen .pari image over unix-domain and/or UDP
// datagram sockets (wire format: src/net/wire.h), coalescing concurrent clients
// into single batch resolves, deduplicating retransmitted requests, and
// hot-swapping the mapping under live traffic when the map changes:
//
//   SIGHUP                 re-read the --map files and run `routedb update`'s
//                          update step in process (one compile, nothing kept, a
//                          torn pair heals; needs <image>.state from `routedb
//                          update --init`); with no --map files, HUP checks the
//                          image file for external replacement
//   image watch            every --watch-interval ms the image file is stat'd;
//                          a rename by an external `routedb update` is picked
//                          up and hot-swapped automatically
//   SIGTERM / SIGINT       finish the current turn (queued requests are
//                          answered) and exit 0, printing final stats
//
// Usage:
//   routedbd --image routes.pari --unix /run/routedb.sock [--udp PORT]
//            [--map FILE]... [--max-reply-bytes B] [--replay-entries R]
//            [--replay-bytes B] [--max-queries-per-turn Q] [--watch-interval MS]
//            [--ready-fd FD]
//
// The serving engine is fixed: one engine thread, which resolves each turn's
// batch through the resolver's window.  More engine threads only added
// coordination in a 32-query closed loop: p50 0.031, 0.039 and 0.044 ms at 1, 2
// and 4 threads on a 4-thread host (the CHANGES.md entry that made routedbd's
// engine fixed records the run).
//
// --ready-fd: a pipe fd the daemon writes one line to once it is serving
// ("ready <udp-port>\n") — how the smoke test and scripts avoid sleep-loops.
//
// Overload: once a turn's coalesced batch reaches --max-queries-per-turn
// queries, further requests that turn get a header-only overloaded reply
// (back off and retransmit) instead of joining the batch.  0 disables.
//
// Fault injection: PATHALIAS_FAILPOINTS in the environment arms named
// failpoints (see src/support/failpoint.h) for chaos testing, e.g.
//   PATHALIAS_FAILPOINTS="rollover.reopen=nth:1" routedbd ...

#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "src/net/daemon.h"
#include "src/support/failpoint.h"
#include "src/support/io_retry.h"

namespace {

int Usage() {
  std::cerr << "usage: routedbd --image <routes.pari> [--unix PATH] [--udp PORT]\n"
               "                [--map FILE]... [--max-reply-bytes B]\n"
               "                [--replay-entries R] [--replay-bytes B]\n"
               "                [--max-queries-per-turn Q] [--watch-interval MS]\n"
               "                [--ready-fd FD]\n"
               "at least one of --unix / --udp is required\n";
  return 2;
}

bool ParseUint(const char* flag, const char* text, uint64_t max, uint64_t* out) {
  std::string_view view(text);
  auto [end, errc] = std::from_chars(view.data(), view.data() + view.size(), *out);
  if (errc != std::errc{} || end != view.data() + view.size() || *out > max) {
    std::cerr << "routedbd: " << flag << " needs an integer in [0, " << max << "], got '"
              << text << "'\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  pathalias::support::failpoint::ArmFromEnv();
  pathalias::net::DaemonOptions options;
  options.udp_port = -1;
  options.log_reloads = true;  // a daemon's failed rollover belongs in its log
  int ready_fd = -1;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "routedbd: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    uint64_t number = 0;
    if (arg == "--image") {
      const char* v = value("--image");
      if (v == nullptr) return Usage();
      options.rollover.image_path = v;
    } else if (arg == "--unix") {
      const char* v = value("--unix");
      if (v == nullptr) return Usage();
      options.unix_path = v;
    } else if (arg == "--udp") {
      const char* v = value("--udp");
      if (v == nullptr || !ParseUint("--udp", v, 65535, &number)) return Usage();
      options.udp_port = static_cast<int>(number);
    } else if (arg == "--map") {
      const char* v = value("--map");
      if (v == nullptr) return Usage();
      options.rollover.map_files.emplace_back(v);
    } else if (arg == "--max-reply-bytes") {
      const char* v = value("--max-reply-bytes");
      if (v == nullptr ||
          !ParseUint("--max-reply-bytes", v, pathalias::net::kMaxDatagramBytes, &number)) {
        return Usage();
      }
      options.max_reply_bytes = static_cast<size_t>(number);
    } else if (arg == "--replay-entries") {
      const char* v = value("--replay-entries");
      if (v == nullptr || !ParseUint("--replay-entries", v, uint64_t{1} << 20, &number)) {
        return Usage();
      }
      options.replay_entries = static_cast<size_t>(number);
    } else if (arg == "--replay-bytes") {
      const char* v = value("--replay-bytes");
      if (v == nullptr || !ParseUint("--replay-bytes", v, uint64_t{1} << 32, &number)) {
        return Usage();
      }
      options.replay_bytes = static_cast<size_t>(number);
    } else if (arg == "--max-queries-per-turn") {
      const char* v = value("--max-queries-per-turn");
      if (v == nullptr ||
          !ParseUint("--max-queries-per-turn", v, uint64_t{1} << 30, &number)) {
        return Usage();
      }
      options.max_queries_per_turn = static_cast<size_t>(number);
    } else if (arg == "--watch-interval") {
      const char* v = value("--watch-interval");
      if (v == nullptr || !ParseUint("--watch-interval", v, 3600'000, &number)) {
        return Usage();
      }
      options.watch_interval_ms = static_cast<int>(number);
    } else if (arg == "--ready-fd") {
      const char* v = value("--ready-fd");
      if (v == nullptr || !ParseUint("--ready-fd", v, 1 << 20, &number)) return Usage();
      ready_fd = static_cast<int>(number);
    } else {
      std::cerr << "routedbd: unknown option " << arg << "\n";
      return Usage();
    }
  }
  if (options.rollover.image_path.empty()) {
    return Usage();
  }
  if (options.unix_path.empty() && options.udp_port < 0) {
    return Usage();
  }

  pathalias::net::Daemon daemon(std::move(options));
  std::string error;
  if (!daemon.Start(&error)) {
    std::cerr << "routedbd: " << error << "\n";
    return 1;
  }
  if (!daemon.InstallSignalHandlers(&error)) {
    std::cerr << "routedbd: " << error << "\n";
    return 1;
  }
  std::cerr << "routedbd: serving";
  if (!daemon.unix_path().empty()) {
    std::cerr << " unix:" << daemon.unix_path();
  }
  if (daemon.udp_port() != 0) {
    std::cerr << " udp:127.0.0.1:" << daemon.udp_port();
  }
  std::cerr << "\n";
  if (ready_fd >= 0) {
    char line[64];
    int wrote = std::snprintf(line, sizeof(line), "ready %u\n", daemon.udp_port());
    if (wrote > 0) {
      pathalias::support::WriteFull(ready_fd, line, static_cast<size_t>(wrote));
    }
    pathalias::support::RetryEintr([&] { return ::close(ready_fd); });
  }

  int exit_code = daemon.Run();
  std::cerr << "routedbd: exiting; " << daemon.stats().ToString() << "\n";
  return exit_code;
}
