// routedb: convert pathalias output into a constant database and query it.
//
// The paper (§Output): "a separate program may be used to convert this file into a
// format appropriate for rapid database retrieval."  This is that program, plus the
// query side a delivery agent would call.  The database is the .pari frozen route
// image: mmap'd and queried in place — no re-parsing, no re-interning; see src/image/.
//
// Usage:
//   routedb freeze <routes.txt> <routes.pari>   freeze the mmap-able route image; a
//                                               malformed line is skipped with a
//                                               file:line warning, and the freeze
//                                               then exits 1 after publishing
//   routedb get <routes.pari> <host>            print the raw route for a host
//   routedb resolve <routes.pari> <address>...  resolve full addresses (domain-suffix
//                                               lookup, rightmost-known rewriting)
//   routedb update --init [--local NAME] <routes.pari> <map-files...>
//                                               parse the map, freeze the image, and
//                                               keep the map sources in one file,
//                                               <routes.pari>.state/manifest, for
//                                               later updates (this also replaces a
//                                               state dir of an older format)
//   routedb update [--remove FILE]... <routes.pari> [changed-map-files...]
//                                               swap the named files' new bytes into
//                                               the kept sources (a --remove must
//                                               name a kept file), compile once,
//                                               rewrite the image atomically, and
//                                               report files changed/unchanged and
//                                               the routes changed against the
//                                               replaced image; when no file changed,
//                                               report "nothing to do" and leave
//                                               image and state untouched.  A torn,
//                                               missing or unreadable image re-reads
//                                               every kept source first.
//   routedb batch [--threads N] [--chunk-lines L] <routes.pari> [hosts.txt]
//                                               bulk host lookup, one per line (stdin
//                                               if no file): "host<TAB>route-key" per
//                                               hit, "host<TAB>*miss*" per miss;
//                                               malformed queries are reported with
//                                               their line number and skipped.
//                                               Input streams through the engine in
//                                               chunks of L lines (default 65536), so
//                                               memory stays bounded on arbitrarily
//                                               large inputs.  --threads N splits
//                                               each chunk into N contiguous ranges,
//                                               one per thread (0 = all cores), each
//                                               through the resolver's window; output
//                                               is byte-identical at any setting.
//   routedb query --socket PATH | --port UDPPORT [--timeout MS] [--retries N]
//                 [--id ID] <host>...           ask a running routedbd (see
//                                               src/net/wire.h): sends one datagram
//                                               request, retransmits the SAME id on
//                                               timeout (the daemon dedups), re-asks
//                                               the tail after a truncated reply.
//                                               Output per host: "host<TAB>via<TAB>
//                                               route" on a hit, "host<TAB>*miss*"
//                                               otherwise.

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <ctime>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/exec/batch_engine.h"
#include "src/image/frozen_route_set.h"
#include "src/image/image_writer.h"
#include "src/incr/map_builder.h"
#include "src/incr/state_dir.h"
#include "src/net/rollover.h"
#include "src/net/socket.h"
#include "src/net/wire.h"
#include "src/route_db/resolver.h"
#include "src/route_db/route_db.h"
#include "src/support/failpoint.h"
#include "src/support/io_retry.h"

namespace {

int Usage() {
  std::cerr << "usage: routedb freeze <routes.txt> <routes.pari>\n"
               "       routedb update --init [--local NAME] <routes.pari> <map-files...>\n"
               "       routedb update [--remove FILE]... <routes.pari> "
               "[changed-map-files...]\n"
               "       routedb get <routes.pari> <host>\n"
               "       routedb resolve <routes.pari> <address>...\n"
               "       routedb batch [--threads N] [--chunk-lines L] <routes.pari> "
               "[hosts.txt]\n"
               "       routedb query (--socket PATH | --port UDPPORT) [--timeout MS] "
               "[--retries N] [--id ID] <host>...\n";
  return 2;
}

// The batch execution knobs.
struct BatchFlags {
  int threads = 1;
  size_t chunk_lines = 65536;  // stdin/file streaming granularity (bounded memory)
};

// Echoing a malformed line verbatim would corrupt the 2-column TSV output (that is
// what made it malformed); tabs and control/non-ASCII bytes become '?' so downstream
// `cut -f2`-style joins still see exactly two fields.
std::string SanitizeForTsv(const std::string& line) {
  std::string out = line;
  for (char& c : out) {
    unsigned char byte = static_cast<unsigned char>(c);
    if (byte == '\t' || byte < 0x20 || byte > 0x7e) {
      c = '?';
    }
  }
  return out;
}

// Bulk delivery scan: the routable queries (net::QueryDefect, routedbd's rule) go
// through the batch engine; malformed lines are reported with their line number and
// skipped instead of poisoning the rest of the batch.  Output is one line per input
// line (misses and malformed queries included), so the stream stays aligned with the
// input for downstream joins — and is byte-identical at every --threads/--chunk-lines
// setting (the engine guarantees the first; chunking only changes how many lines are
// in memory at once, never the per-line result).  Input is consumed in chunks of
// flags.chunk_lines lines through ONE engine, so a pipe-a-billion-lines-through-it
// run holds one chunk, not the whole input.
int RunBatch(const pathalias::FrozenRouteSet& routes, std::istream& in,
             const char* input_name, const BatchFlags& flags) {
  pathalias::exec::BatchEngineOptions engine_options;
  engine_options.threads = flags.threads;
  pathalias::exec::FrozenBatchEngine engine(&routes, engine_options);

  const size_t chunk_lines = flags.chunk_lines == 0 ? 1 : flags.chunk_lines;
  std::vector<std::string> hosts;
  std::vector<int> line_numbers;
  std::vector<std::pair<int, std::string>> malformed;  // line number, sanitized text
  std::vector<std::string_view> queries;
  std::vector<pathalias::BatchLookup> results;
  std::string line;
  int line_number = 0;
  size_t total_queries = 0;
  size_t total_resolved = 0;
  size_t malformed_count = 0;
  bool eof = false;
  while (!eof) {
    hosts.clear();
    line_numbers.clear();
    malformed.clear();
    size_t buffered = 0;  // counts malformed lines too: they are buffered as well
    while (buffered < chunk_lines) {
      if (!std::getline(in, line)) {
        eof = true;
        break;
      }
      ++line_number;
      if (line.empty()) {
        continue;
      }
      ++buffered;
      if (const char* defect = pathalias::net::QueryDefect(line)) {
        std::cerr << "routedb: " << input_name << ":" << line_number
                  << ": malformed query (" << defect << "); skipped\n";
        malformed.emplace_back(line_number, SanitizeForTsv(line));
        ++malformed_count;
        continue;
      }
      hosts.push_back(line);
      line_numbers.push_back(line_number);
    }
    if (hosts.empty() && malformed.empty()) {
      continue;  // a chunk of blank lines right before EOF
    }
    queries.assign(hosts.begin(), hosts.end());
    results.assign(queries.size(), pathalias::BatchLookup{});
    total_resolved += engine.ResolveBatch(queries, results);
    total_queries += queries.size();
    size_t next_malformed = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      // Interleave the malformed lines back at their original positions.
      while (next_malformed < malformed.size() &&
             malformed[next_malformed].first < line_numbers[i]) {
        std::cout << malformed[next_malformed].second << "\t*malformed*\n";
        ++next_malformed;
      }
      if (results[i].route.ok()) {
        std::cout << queries[i] << "\t" << routes.names().View(results[i].via) << "\n";
      } else {
        std::cout << queries[i] << "\t*miss*\n";
      }
    }
    while (next_malformed < malformed.size()) {
      std::cout << malformed[next_malformed].second << "\t*malformed*\n";
      ++next_malformed;
    }
  }
  std::cerr << "routedb: " << total_resolved << "/" << total_queries << " resolved";
  if (malformed_count > 0) {
    std::cerr << ", " << malformed_count << " malformed";
  }
  std::cerr << "\n";
  return 0;
}

int RunGet(const pathalias::FrozenRouteSet& routes, const char* host) {
  pathalias::RouteView route = routes.FindRouteView(std::string_view(host));
  if (!route.ok()) {
    std::cerr << "routedb: no route to " << host << "\n";
    return 1;
  }
  std::cout << route.route << "\n";
  return 0;
}

int RunResolve(const pathalias::FrozenRouteSet& routes,
               const std::vector<const char*>& addresses) {
  pathalias::ResolveOptions options;
  options.optimize = pathalias::ResolveOptions::Optimize::kRightmostKnown;
  pathalias::Resolver resolver(&routes, options);
  int failures = 0;
  for (const char* address : addresses) {
    pathalias::Resolution resolution = resolver.Resolve(address);
    if (resolution.ok) {
      std::cout << address << "\t" << resolution.route << "\t(via " << resolution.via
                << ")\n";
    } else {
      std::cout << address << "\t*error* " << resolution.error << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

// Dispatches get/resolve/batch against the opened image.  `operands` holds the
// positional arguments after the database path.
int RunQueryCommand(const std::string& command, const pathalias::FrozenRouteSet& routes,
                    const std::vector<const char*>& operands, const BatchFlags& flags) {
  if (command == "get") {
    return RunGet(routes, operands.front());
  }
  if (command == "resolve") {
    return RunResolve(routes, operands);
  }
  if (operands.empty()) {
    return RunBatch(routes, std::cin, "<stdin>", flags);
  }
  std::ifstream in(operands.front());
  if (!in) {
    std::cerr << "routedb: cannot open " << operands.front() << "\n";
    return 1;
  }
  return RunBatch(routes, in, operands.front(), flags);
}

// Prints a build's warnings and errors; notes stay quiet.
void PrintDiagnostics(const pathalias::Diagnostics& diag) {
  for (const pathalias::Diagnostic& diagnostic : diag.diagnostics()) {
    if (diagnostic.severity != pathalias::Severity::kNote) {
      std::cerr << pathalias::ToString(diagnostic) << "\n";
    }
  }
}

// The incremental image pipeline: map files → one compile → refrozen .pari, with
// the map sources kept in <image>.state/manifest between invocations.
//
// --init compiles once and publishes generation 1.  An update runs the
// one update step (net::UpdateImage, shared with routedbd's SIGHUP): it loads the
// kept sources, pairs them with the image on disk, swaps in the new bytes of the
// files it is given, compiles once, and republishes image and state.  The report
// (files changed, routes changed against the replaced image by name) is what an
// operator reads for blast radius.  Only the published build's
// diagnostics are printed and counted.
int RunUpdate(int argc, char** argv) {
  bool init = false;
  std::string local;
  std::vector<std::string> removed;
  std::vector<const char*> positional;
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--init") {
      init = true;
    } else if (arg == "--local") {
      if (i + 1 >= argc) {
        return Usage();
      }
      local = argv[++i];
    } else if (arg == "--remove") {
      if (i + 1 >= argc) {
        return Usage();
      }
      removed.emplace_back(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::cerr << "routedb: unknown option " << arg << "\n";
      return Usage();
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.empty() || (init && positional.size() < 2)) {
    return Usage();
  }
  std::string image_path = positional.front();
  std::string state_dir = image_path + ".state";

  std::vector<pathalias::InputFile> files;
  for (size_t i = 1; i < positional.size(); ++i) {
    std::string error;
    std::optional<std::string> bytes = pathalias::support::ReadFileFully(positional[i], &error);
    if (!bytes.has_value()) {
      std::cerr << "routedb: " << error << "\n";
      return 1;
    }
    files.push_back({positional[i], std::move(*bytes)});
  }

  int errors = 0;
  if (!init) {
    pathalias::net::UpdateReport report = pathalias::net::UpdateImage(
        {.image_path = image_path, .changed = std::move(files), .removed = std::move(removed),
         .local = local});
    PrintDiagnostics(report.diag);
    if (!report.note.empty()) {
      std::cerr << "routedb: " << report.note << "\n";
    }
    switch (report.outcome) {
      case pathalias::net::UpdateOutcome::kError:
        std::cerr << "routedb: " << report.error << "\n";
        return 1;
      case pathalias::net::UpdateOutcome::kNothingToDo:
        std::cerr << "routedb: nothing to do (no changed files); " << image_path
                  << " left untouched\n";
        return 0;
      case pathalias::net::UpdateOutcome::kPublished:
        break;
    }
    if (!report.state_saved) {
      std::cerr << "routedb: cannot save " << state_dir << "\n";
      return 1;
    }
    std::cerr << "routedb: rebuilt (" << report.stats.files_changed << " file(s) changed, "
              << report.stats.files_unchanged << " unchanged); " << report.stats.routes_changed
              << " route(s) changed, " << report.routes_total << " total\n";
    errors = report.diag.error_count();
  } else {
    pathalias::incr::MapBuilder builder(pathalias::incr::MapBuilderOptions{.local = local});
    bool built = builder.Build(std::move(files));
    PrintDiagnostics(builder.diag());
    if (!built) {
      std::cerr << "routedb: no routes could be built\n";
      return 1;
    }
    std::string publish_error;
    if (!pathalias::image::ImageWriter::Refreeze(builder.routes(), image_path,
                                                 /*generation=*/1, &publish_error)) {
      std::cerr << "routedb: cannot write " << image_path << ": " << publish_error << "\n";
      return 1;
    }
    if (!pathalias::incr::SaveStateDir(
            state_dir, {.local = local, .image_generation = 1, .artifacts = builder.artifacts()})) {
      std::cerr << "routedb: cannot save " << state_dir << "\n";
      return 1;
    }
    std::cerr << "routedb: initialized " << state_dir << " (" << builder.artifacts().size()
              << " file(s)); froze " << builder.routes().size() << " routes (local "
              << builder.local_name() << ")\n";
    errors = builder.diag().error_count();
  }
  // The image and state were written (a bad line skips one declaration, pathalias
  // style), but an automated updater must see that the inputs were not clean.
  if (errors > 0) {
    std::cerr << "routedb: " << (init ? "init" : "update") << " completed with " << errors
              << " parse error(s); the published image omits the malformed declarations\n";
    return 1;
  }
  return 0;
}

bool ParseCount(const char* flag, const char* text, uint64_t max, uint64_t* out);

// The routedbd client: one datagram request for all the hosts, retransmit-on-
// timeout with the SAME request id (the daemon's replay buffer makes the answer
// idempotent), and truncated replies drive a re-ask of the unanswered tail under
// a new id.  See src/net/wire.h for the full contract.
int RunQuery(int argc, char** argv) {
  std::string socket_path;
  int udp_port = -1;
  uint64_t timeout_ms = 1000;
  uint64_t retries = 4;
  uint64_t request_id = 0;
  bool id_set = false;
  std::vector<std::string_view> hosts;
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    uint64_t number = 0;
    if (arg == "--socket" || arg == "--port" || arg == "--timeout" ||
        arg == "--retries" || arg == "--id") {
      if (i + 1 >= argc) {
        return Usage();
      }
      const char* value = argv[++i];
      if (arg == "--socket") {
        socket_path = value;
      } else if (arg == "--port") {
        if (!ParseCount("--port", value, 65535, &number)) {
          return 2;
        }
        udp_port = static_cast<int>(number);
      } else if (arg == "--timeout") {
        if (!ParseCount("--timeout", value, 3600'000, &number)) {
          return 2;
        }
        timeout_ms = number;
      } else if (arg == "--retries") {
        if (!ParseCount("--retries", value, 1000, &number)) {
          return 2;
        }
        retries = number;
      } else {
        if (!ParseCount("--id", value, ~uint64_t{0} >> 1, &number)) {
          return 2;
        }
        request_id = number;
        id_set = true;
      }
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::cerr << "routedb: unknown option " << arg << "\n";
      return Usage();
    } else {
      hosts.push_back(arg);
    }
  }
  if (hosts.empty() || (socket_path.empty() == (udp_port < 0))) {
    return Usage();  // exactly one of --socket / --port, plus at least one host
  }
  if (!id_set) {
    // Uniqueness, not unpredictability: pid ⊕ time keeps two concurrent clients
    // on one machine from colliding in the daemon's (peer, id) dedup space —
    // and the peer address already differs anyway.
    request_id = (static_cast<uint64_t>(::getpid()) << 32) ^
                 static_cast<uint64_t>(::time(nullptr));
    if (request_id == 0) {
      request_id = 1;
    }
  }

  namespace net = pathalias::net;
  std::string error;
  std::optional<net::DatagramSocket> socket;
  net::PeerAddress server;
  if (!socket_path.empty()) {
    // A unix datagram client must bind its own path to be replyable.
    std::string client_path =
        socket_path + ".q" + std::to_string(static_cast<long>(::getpid()));
    socket = net::DatagramSocket::ClientForUnix(client_path, &error);
    server = net::DatagramSocket::UnixPeer(socket_path);
  } else {
    socket = net::DatagramSocket::ClientUdp(&error);
    server = net::DatagramSocket::UdpPeer(0x7f000001u, static_cast<uint16_t>(udp_port));
  }
  if (!socket.has_value()) {
    std::cerr << "routedb: " << error << "\n";
    return 1;
  }

  std::vector<char> buffer(net::kMaxDatagramBytes);
  std::string request;
  int failures = 0;
  size_t answered = 0;  // hosts [0, answered) are printed and final
  while (answered < hosts.size()) {
    size_t window = std::min(hosts.size() - answered, net::kMaxQueriesPerRequest);
    std::span<const std::string_view> asking(hosts.data() + answered, window);
    if (!net::EncodeRequest(request_id, asking, &request)) {
      std::cerr << "routedb: query violates protocol bounds (name too long?)\n";
      return 1;
    }
    net::DecodedReply reply;
    bool got_reply = false;
    for (uint64_t attempt = 0; attempt <= retries && !got_reply; ++attempt) {
      bool dropped = false;
      if (!socket->SendTo(request, server, &dropped, &error)) {
        if (!dropped) {
          std::cerr << "routedb: " << error << "\n";
          return 1;
        }
        // Dropped (daemon gone or buffer full): fall through to the timeout wait
        // and retransmit — indistinguishable from a lost datagram.
      }
      if (!socket->WaitReadable(static_cast<int>(timeout_ms))) {
        continue;  // timeout: retransmit the same id
      }
      net::PeerAddress from;
      bool got_one = false;
      ssize_t got = socket->Recv(buffer.data(), buffer.size(), &from, &got_one, &error);
      if (!got_one) {
        continue;
      }
      std::string_view datagram(buffer.data(), static_cast<size_t>(got));
      if (!net::DecodeReply(datagram, &reply, &error) || reply.request_id != request_id) {
        continue;  // stray or stale datagram; keep waiting out this attempt's budget
      }
      if ((reply.flags & net::kReplyFlagOverloaded) != 0) {
        // The daemon shed this request under load: nothing was resolved.  Back
        // off briefly and retransmit the SAME id (it is not in the daemon's
        // replay buffer, so the retry gets a real resolve).  Costs an attempt,
        // so a permanently-overloaded daemon still ends in "no reply".
        ::usleep(static_cast<useconds_t>(std::min<uint64_t>(timeout_ms, 50) * 1000));
        continue;
      }
      got_reply = true;
    }
    if (!got_reply) {
      std::cerr << "routedb: no reply from "
                << (socket_path.empty() ? "127.0.0.1:" + std::to_string(udp_port)
                                        : socket_path)
                << " after " << (retries + 1) << " attempt(s)\n";
      return 1;
    }
    if ((reply.flags & net::kReplyFlagBadRequest) != 0) {
      std::cerr << "routedb: daemon rejected the request as malformed\n";
      return 1;
    }
    for (const net::ReplyResult& result : reply.results) {
      std::string_view host = hosts[answered];
      switch (result.status) {
        case net::kResultExact:
        case net::kResultSuffix:
          std::cout << host << "\t" << result.via << "\t" << result.route << "\n";
          break;
        case net::kResultMiss:
          std::cout << host << "\t*miss*\n";
          ++failures;
          break;
        case net::kResultMalformed:
          std::cout << host << "\t*malformed*\n";
          ++failures;
          break;
        case net::kResultTruncated:
        default:
          // This single answer exceeded the daemon's reply budget entirely.
          std::cout << host << "\t*truncated*\n";
          ++failures;
          break;
      }
      ++answered;
    }
    if (reply.results.empty()) {
      // A non-truncated empty reply would loop forever; treat as protocol error.
      std::cerr << "routedb: empty reply\n";
      return 1;
    }
    // Truncated (or > kMaxQueriesPerRequest hosts): re-ask the tail under a NEW id
    // — the daemon's dedup must not replay the truncated answer.
    ++request_id;
  }
  return failures == 0 ? 0 : 1;
}

// Parses an integer flag operand of at most `max`; false (with a diagnostic) on junk.
bool ParseCount(const char* flag, const char* text, uint64_t max, uint64_t* out) {
  std::string_view view(text);
  auto [end, errc] = std::from_chars(view.data(), view.data() + view.size(), *out);
  if (errc != std::errc{} || end != view.data() + view.size() || *out > max) {
    std::cerr << "routedb: " << flag << " needs an integer in [0, " << max << "], got '"
              << text << "'\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  pathalias::support::failpoint::ArmFromEnv();
  if (argc < 2) {
    return Usage();
  }
  std::string command = argv[1];
  if (command == "freeze") {
    if (argc != 4) {
      return Usage();
    }
    std::string error;
    std::optional<std::string> text = pathalias::support::ReadFileFully(argv[2], &error);
    if (!text.has_value()) {
      std::cerr << "routedb: " << error << "\n";
      return 1;
    }
    pathalias::Diagnostics diag;
    pathalias::RouteSet routes = pathalias::RouteSet::FromText(*text, &diag);
    for (pathalias::Diagnostic diagnostic : diag.diagnostics()) {
      diagnostic.pos.file = argv[2];  // FromText knows only the text, not its file
      std::cerr << pathalias::ToString(diagnostic) << "\n";
    }
    if (!pathalias::image::ImageWriter::WriteFile(routes, argv[3], /*generation=*/0, &error)) {
      std::cerr << "routedb: cannot write " << argv[3] << ": " << error << "\n";
      return 1;
    }
    // Re-open with the checksum pass: a freeze that cannot be read back is a failure
    // now, not at delivery time.
    auto reopened = pathalias::FrozenImage::Open(
        argv[3], pathalias::image::ImageView::Verify::kChecksum, &error);
    if (!reopened) {
      std::cerr << "routedb: frozen image fails verification: " << error << "\n";
      return 1;
    }
    std::cerr << "routedb: " << routes.size() << " routes ("
              << reopened->routes().names().size() << " names) frozen\n";
    // Published all the same (a bad line skips one route), but a script must see
    // that the input was not clean, as `routedb update` shows parse errors.
    if (diag.warning_count() > 0) {
      std::cerr << "routedb: freeze skipped " << diag.warning_count()
                << " malformed line(s); the image omits them\n";
      return 1;
    }
    return 0;
  }
  if (command == "update") {
    return RunUpdate(argc, argv);
  }
  if (command == "query") {
    return RunQuery(argc, argv);
  }
  if (command == "get" || command == "resolve" || command == "batch") {
    BatchFlags flags;
    std::vector<const char*> positional;  // db path, then the command's operands
    for (int i = 2; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg == "--threads" || arg == "--chunk-lines") {
        if (command != "batch") {
          std::cerr << "routedb: " << arg << " only applies to batch\n";
          return 2;
        }
        if (i + 1 >= argc) {
          return Usage();
        }
        uint64_t value = 0;
        if (arg == "--threads") {
          // 0 = all hardware threads; cap at a sanity bound, not the hardware.
          if (!ParseCount("--threads", argv[++i], 1024, &value)) {
            return 2;
          }
          flags.threads = static_cast<int>(value);
        } else {
          // 0 would buffer nothing; treat it as the minimum useful chunk.
          if (!ParseCount("--chunk-lines", argv[++i], uint64_t{1} << 30, &value)) {
            return 2;
          }
          flags.chunk_lines = std::max<size_t>(1, static_cast<size_t>(value));
        }
        continue;
      }
      // Single-dash junk is an error too, not a path (parity with the other tools:
      // "routedb get -x db host" must not try to open a database named "-x").
      if (!arg.empty() && arg[0] == '-' && arg != "-") {
        std::cerr << "routedb: unknown option " << arg << "\n";
        return Usage();
      }
      positional.push_back(argv[i]);
    }
    if (positional.empty()) {
      return Usage();
    }
    const char* db_path = positional.front();
    std::vector<const char*> operands(positional.begin() + 1, positional.end());
    // get/resolve need at least one operand; batch's operand is optional (stdin).
    if (command != "batch" && operands.empty()) {
      return Usage();
    }
    std::string error;
    // A batch run walks most of the image: tell the kernel up front.  get/resolve
    // touch a handful of pages; faulting them on demand is cheaper.
    bool readahead = command == "batch";
    auto image = pathalias::FrozenImage::Open(
        db_path, pathalias::image::ImageView::Verify::kStructure, &error, readahead);
    if (!image) {
      std::cerr << "routedb: cannot read " << db_path << (error.empty() ? "" : ": " + error)
                << "\n";
      return 1;
    }
    return RunQueryCommand(command, image->routes(), operands, flags);
  }
  return Usage();
}
