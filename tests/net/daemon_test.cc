// The routedbd serving loop, driven deterministically: every test runs the
// daemon in-process and steps it with PollOnce, so request/reply, coalescing,
// dedup, truncation, and shutdown ordering are all exact — no timing, no
// background threads.

#include "src/net/daemon.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/image/frozen_route_set.h"
#include "src/net/rollover.h"
#include "src/net/wire.h"
#include "src/route_db/resolver.h"

namespace pathalias {
namespace net {
namespace {

namespace fs = std::filesystem;

// A per-test scratch directory (unix socket paths must be short; /tmp is).
fs::path MakeScratchDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::temp_directory_path() /
                 ("routedbd_" + std::to_string(::getpid()) + "_" + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void WriteFileAt(const fs::path& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

// The three-file map the incremental tests use: local "hub", leaves reachable
// through "mid" and "far".
std::vector<InputFile> MapFiles(const fs::path& dir) {
  return {
      {(dir / "core.map").string(), "hub\tmid(100), far(400)\n"},
      {(dir / "mid.map").string(), "mid\thub(100), leafa(50), leafb(60)\n"},
      {(dir / "far.map").string(), "far\thub(400), leafc(10)\nleafc\tfar(10)\n"},
  };
}

// A routed domain behind "gw", and interned names without a route of their own
// on both sides of it: ".cs.rutgers.edu" (interned by a.cs.rutgers.edu) under
// it, ".edu" above it.
std::vector<InputFile> DomainFiles(const fs::path& dir) {
  return {
      {(dir / "core.map").string(), "hub\tmid(100), gw(50), a.cs.rutgers.edu(20)\n"},
      {(dir / "mid.map").string(), "mid\thub(100), leafa(50)\n"},
      {(dir / "gw.map").string(),
       "gw\thub(50), .rutgers.edu(10)\n.rutgers.edu\tcaip(0), topaz(0)\n"},
  };
}

// Writes the map files to disk and runs `routedb update --init` on them, in
// process.
void InitImage(const std::vector<InputFile>& files, const std::string& image_path) {
  for (const InputFile& file : files) {
    WriteFileAt(file.name, file.content);
  }
  UpdateReport init = InitializeImage(image_path, files, "hub");
  ASSERT_EQ(init.outcome, UpdateOutcome::kPublished) << init.error;
  ASSERT_TRUE(init.state_saved);
}

// A unix-domain test client.  Replies decode into views over `buffer`, valid
// until the next Receive.
class Client {
 public:
  Client(const fs::path& dir, const char* name, const std::string& server_path) {
    std::string error;
    auto socket = DatagramSocket::ClientForUnix((dir / name).string(), &error);
    EXPECT_TRUE(socket.has_value()) << error;
    socket_ = std::move(*socket);
    server_ = DatagramSocket::UnixPeer(server_path);
    buffer_.resize(kMaxDatagramBytes);
  }

  void Send(uint64_t id, const std::vector<std::string_view>& queries) {
    std::string datagram;
    ASSERT_TRUE(EncodeRequest(id, queries, &datagram));
    SendRaw(datagram);
  }

  void SendRaw(const std::string& datagram) {
    bool dropped = false;
    std::string error;
    ASSERT_TRUE(socket_.SendTo(datagram, server_, &dropped, &error)) << error;
  }

  // Receives and decodes one reply; `raw` (optional) gets the exact bytes.
  std::optional<DecodedReply> Receive(std::string* raw = nullptr) {
    if (!socket_.WaitReadable(2000)) {
      return std::nullopt;
    }
    PeerAddress from;
    bool got_one = false;
    std::string error;
    ssize_t got = socket_.Recv(buffer_.data(), buffer_.size(), &from, &got_one, &error);
    if (!got_one) {
      return std::nullopt;
    }
    std::string_view datagram(buffer_.data(), static_cast<size_t>(got));
    if (raw != nullptr) {
      raw->assign(datagram);
    }
    DecodedReply reply;
    if (!DecodeReply(datagram, &reply, &error)) {
      ADD_FAILURE() << "undecodable reply: " << error;
      return std::nullopt;
    }
    return reply;
  }

 private:
  DatagramSocket socket_;
  PeerAddress server_;
  std::vector<char> buffer_;
};

class DaemonTest : public ::testing::Test {
 protected:
  void TearDown() override {
    daemon_.reset();
    if (!dir_.empty()) {
      std::error_code ec;
      fs::remove_all(dir_, ec);
    }
  }

  // Serves the image of `map`'s files, which are also its SIGHUP reload sources.
  void StartDaemon(DaemonOptions options,
                   std::vector<InputFile> (*map)(const fs::path&) = MapFiles) {
    dir_ = MakeScratchDir();
    image_path_ = (dir_ / "routes.pari").string();
    std::vector<InputFile> files = map(dir_);
    InitImage(files, image_path_);
    options.rollover.image_path = image_path_;
    for (const InputFile& file : files) {
      options.rollover.map_files.push_back(file.name);
    }
    if (options.unix_path.empty() && options.udp_port < 0) {
      options.unix_path = (dir_ / "d.sock").string();
    }
    options.watch_interval_ms = 0;  // determinism: no wall-clock triggers
    daemon_.emplace(std::move(options));
    std::string error;
    ASSERT_TRUE(daemon_->Start(&error)) << error;
  }

  fs::path dir_;
  std::string image_path_;
  std::optional<Daemon> daemon_;
};

TEST_F(DaemonTest, ServesHitsMissesAndMalformedQueries) {
  StartDaemon(DaemonOptions{});
  Client client(dir_, "c1.sock", daemon_->unix_path());
  client.Send(11, {"leafa", "nosuch", "bad query"});
  daemon_->PollOnce(100);
  auto reply = client.Receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->request_id, 11u);
  EXPECT_EQ(reply->flags, 0u);
  ASSERT_EQ(reply->results.size(), 3u);
  EXPECT_EQ(reply->results[0].status, kResultExact);
  EXPECT_EQ(reply->results[0].via, "leafa");
  EXPECT_EQ(reply->results[0].route, "mid!leafa!%s");
  EXPECT_EQ(reply->results[1].status, kResultMiss);
  EXPECT_EQ(reply->results[2].status, kResultMalformed);
  EXPECT_EQ(daemon_->stats().requests, 1u);
  EXPECT_EQ(daemon_->stats().malformed_queries, 1u);
  EXPECT_EQ(daemon_->stats().send_drops, 0u);
}

TEST_F(DaemonTest, CoalescesConcurrentClientsIntoOneResolveBatch) {
  StartDaemon(DaemonOptions{});
  Client one(dir_, "c1.sock", daemon_->unix_path());
  Client two(dir_, "c2.sock", daemon_->unix_path());
  one.Send(1, {"leafa"});
  two.Send(2, {"leafc", "leafb"});
  daemon_->PollOnce(100);  // both datagrams are already queued: one turn, one batch

  auto reply_one = one.Receive();
  auto reply_two = two.Receive();
  ASSERT_TRUE(reply_one.has_value());
  ASSERT_TRUE(reply_two.has_value());
  EXPECT_EQ(reply_one->results[0].route, "mid!leafa!%s");
  ASSERT_EQ(reply_two->results.size(), 2u);
  EXPECT_EQ(reply_two->results[0].route, "far!leafc!%s");
  EXPECT_EQ(reply_two->results[1].route, "mid!leafb!%s");

  EXPECT_EQ(daemon_->stats().requests, 2u);
  EXPECT_EQ(daemon_->stats().batches, 1u) << "two requests must coalesce into one batch";
  EXPECT_EQ(daemon_->stats().queries, 3u);
}

TEST_F(DaemonTest, DuplicateRequestIsReplayedNotReresolved) {
  StartDaemon(DaemonOptions{});
  Client client(dir_, "c1.sock", daemon_->unix_path());
  client.Send(7, {"leafa"});
  daemon_->PollOnce(100);
  std::string first_raw;
  auto first = client.Receive(&first_raw);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->flags, 0u);

  client.Send(7, {"leafa"});  // the retransmit: identical datagram
  daemon_->PollOnce(100);
  std::string second_raw;
  auto second = client.Receive(&second_raw);
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->flags & kReplyFlagReplayed, 0);
  EXPECT_EQ(second->results[0].route, first->results[0].route);
  // Byte-identical except the replayed flag (offset 6).
  ASSERT_EQ(first_raw.size(), second_raw.size());
  std::string normalized = second_raw;
  normalized[6] = first_raw[6];
  normalized[7] = first_raw[7];
  EXPECT_EQ(normalized, first_raw);

  EXPECT_EQ(daemon_->stats().duplicate_requests, 1u);
  EXPECT_EQ(daemon_->stats().batches, 1u) << "the duplicate must not resolve again";
}

TEST_F(DaemonTest, TruncatedReplyAnswersPrefixAndTailIsReaskable) {
  DaemonOptions options;
  // Room for the header and roughly one result, not three.
  options.max_reply_bytes = sizeof(WireHeader) + 24;
  StartDaemon(std::move(options));
  Client client(dir_, "c1.sock", daemon_->unix_path());

  std::vector<std::string_view> all = {"leafa", "leafb", "leafc"};
  client.Send(1, all);
  daemon_->PollOnce(100);
  auto reply = client.Receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->flags & kReplyFlagTruncated, 0);
  EXPECT_EQ(reply->query_count, 3u);
  ASSERT_LT(reply->results.size(), 3u);
  ASSERT_GE(reply->results.size(), 1u);
  EXPECT_EQ(reply->results[0].route, "mid!leafa!%s");
  EXPECT_EQ(daemon_->stats().truncated_replies, 1u);

  // The client contract: re-ask the unanswered tail under a NEW id.
  size_t answered = reply->results.size();
  std::vector<std::string_view> tail(all.begin() + answered, all.end());
  client.Send(2, tail);
  daemon_->PollOnce(100);
  auto rest = client.Receive();
  ASSERT_TRUE(rest.has_value());
  ASSERT_GE(rest->results.size(), 1u);
  EXPECT_EQ(rest->results[0].via, tail[0]);
}

TEST_F(DaemonTest, UndecodableDatagramGetsBadRequestReply) {
  StartDaemon(DaemonOptions{});
  Client client(dir_, "c1.sock", daemon_->unix_path());
  std::string good;
  ASSERT_TRUE(EncodeRequest(99, {std::vector<std::string_view>{"leafa"}}, &good));
  client.SendRaw(good.substr(0, good.size() - 2));  // torn payload, intact header
  daemon_->PollOnce(100);
  auto reply = client.Receive();
  ASSERT_TRUE(reply.has_value());
  EXPECT_NE(reply->flags & kReplyFlagBadRequest, 0);
  EXPECT_EQ(reply->request_id, 99u);
  EXPECT_TRUE(reply->results.empty());
  EXPECT_EQ(daemon_->stats().bad_datagrams, 1u);
  EXPECT_EQ(daemon_->stats().requests, 0u);
}

TEST_F(DaemonTest, TerminateAnswersQueuedRequestsBeforeStopping) {
  StartDaemon(DaemonOptions{});
  Client client(dir_, "c1.sock", daemon_->unix_path());
  client.Send(5, {"leafb"});
  daemon_->RequestTerminate();
  EXPECT_FALSE(daemon_->PollOnce(100)) << "termination must end the loop";
  auto reply = client.Receive();
  ASSERT_TRUE(reply.has_value()) << "the queued request must still be answered";
  EXPECT_EQ(reply->results[0].route, "mid!leafb!%s");
}

TEST_F(DaemonTest, ServesOverUdpToo) {
  DaemonOptions options;
  options.udp_port = 0;  // ephemeral
  StartDaemon(std::move(options));
  ASSERT_GT(daemon_->udp_port(), 0);

  std::string error;
  auto socket = DatagramSocket::ClientUdp(&error);
  ASSERT_TRUE(socket.has_value()) << error;
  PeerAddress server = DatagramSocket::UdpPeer(0x7f000001u, daemon_->udp_port());
  std::string datagram;
  ASSERT_TRUE(EncodeRequest(3, {std::vector<std::string_view>{"leafc"}}, &datagram));
  bool dropped = false;
  ASSERT_TRUE(socket->SendTo(datagram, server, &dropped, &error)) << error;
  daemon_->PollOnce(1000);

  ASSERT_TRUE(socket->WaitReadable(2000));
  std::vector<char> buffer(kMaxDatagramBytes);
  PeerAddress from;
  bool got_one = false;
  ssize_t got = socket->Recv(buffer.data(), buffer.size(), &from, &got_one, &error);
  ASSERT_TRUE(got_one) << error;
  DecodedReply reply;
  ASSERT_TRUE(DecodeReply(std::string_view(buffer.data(), static_cast<size_t>(got)),
                          &reply, &error))
      << error;
  EXPECT_EQ(reply.request_id, 3u);
  EXPECT_EQ(reply.results[0].route, "far!leafc!%s");
}

TEST_F(DaemonTest, OverTurnBudgetRequestsGetOverloadedRepliesNotSilence) {
  DaemonOptions options;
  options.max_queries_per_turn = 2;
  StartDaemon(std::move(options));
  Client first(dir_, "c1.sock", daemon_->unix_path());
  Client second(dir_, "c2.sock", daemon_->unix_path());
  first.Send(1, {"leafa", "leafb"});  // fills the whole turn budget
  second.Send(2, {"leafc"});          // shed: budget already exhausted
  daemon_->PollOnce(100);

  auto served = first.Receive();
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->flags, 0u);
  ASSERT_EQ(served->results.size(), 2u);

  auto shed = second.Receive();
  ASSERT_TRUE(shed.has_value());
  EXPECT_EQ(shed->request_id, 2u);
  EXPECT_NE(shed->flags & kReplyFlagOverloaded, 0u);
  EXPECT_TRUE(shed->results.empty()) << "overload replies are header-only";
  EXPECT_EQ(daemon_->stats().overload_replies, 1u);

  // The shed request was NOT replay-buffered: the retransmit is a fresh
  // resolve that now succeeds, so back-off-and-retry always converges.
  second.Send(2, {"leafc"});
  daemon_->PollOnce(100);
  auto retried = second.Receive();
  ASSERT_TRUE(retried.has_value());
  EXPECT_EQ(retried->flags & kReplyFlagOverloaded, 0u);
  ASSERT_EQ(retried->results.size(), 1u);
  EXPECT_EQ(retried->results[0].route, "far!leafc!%s");
}

TEST_F(DaemonTest, ReplayBufferEnforcesItsByteBudget) {
  DaemonOptions options;
  options.replay_entries = 1024;   // entries never bind in this test
  options.replay_bytes = 256;      // a couple of small replies at most
  StartDaemon(std::move(options));
  Client client(dir_, "c1.sock", daemon_->unix_path());
  for (uint64_t id = 1; id <= 8; ++id) {
    client.Send(id, {"leafa"});
    daemon_->PollOnce(100);
    ASSERT_TRUE(client.Receive().has_value());
  }
  daemon_->PollOnce(10);  // housekeeping syncs replay stats into DaemonStats
  EXPECT_GT(daemon_->stats().replay_evictions, 0u);
  EXPECT_GT(daemon_->stats().replay_evicted_bytes, 0u);
  EXPECT_LE(daemon_->stats().replay_bytes, 256u);

  // Old requests fell out of the byte-bounded buffer, recent ones replay.
  client.Send(8, {"leafa"});
  daemon_->PollOnce(100);
  ASSERT_TRUE(client.Receive().has_value());
  EXPECT_GE(daemon_->stats().duplicate_requests, 1u);
}

// The daemon resolves each turn through the resolver's window.  One turn
// coalesces requests that reach every part of it: 70 strangers under one routed
// domain (enough for the suffix memo that runs after the window), interned names
// without a route of their own (finished after the window from their ids), exact
// hits and malformed names.  Every reply slot must equal ResolveBatchScalar over
// the image on disk, before and after a SIGHUP reload that reroutes the domain.
TEST_F(DaemonTest, EveryReplySlotOfACoalescedTurnMatchesTheScalarResolver) {
  StartDaemon(DaemonOptions{}, DomainFiles);
  std::vector<std::string> strangers;
  for (int i = 0; i < 70; ++i) {
    strangers.push_back("s" + std::to_string(i) + ".rutgers.edu");
  }
  strangers.push_back("b.cs.rutgers.edu");
  strangers.push_back("nobody.example");
  const std::vector<std::vector<std::string>> requests = {
      strangers,
      {".cs.rutgers.edu", ".edu", "s1.rutgers.edu", ".rutgers.edu"},
      {"leafa", "bad query", "caip.rutgers.edu", "ctl\x01", "a.cs.rutgers.edu", "gw"},
  };
  const std::vector<std::string> malformed = {"bad query", "ctl\x01"};
  Client client(dir_, "c1.sock", daemon_->unix_path());

  // Sends every request, runs one turn, and checks each reply slot.  Returns the
  // route the served image gives s5.rutgers.edu.
  auto check_turn = [&](uint64_t first_id) -> std::string {
    const uint64_t batches = daemon_->stats().batches;
    for (size_t r = 0; r < requests.size(); ++r) {
      client.Send(first_id + r,
                  std::vector<std::string_view>(requests[r].begin(), requests[r].end()));
    }
    daemon_->PollOnce(100);
    EXPECT_EQ(daemon_->stats().batches, batches + 1) << "the requests must coalesce";

    std::string error;
    auto disk = FrozenImage::Open(image_path_, image::ImageView::Verify::kStructure, &error);
    EXPECT_TRUE(disk.has_value()) << error;
    if (!disk.has_value()) {
      return "";
    }
    Resolver scalar(&disk->routes(), ResolveOptions{});
    std::string stranger_route;
    for (size_t r = 0; r < requests.size(); ++r) {
      std::vector<std::string_view> queries(requests[r].begin(), requests[r].end());
      std::vector<BatchLookup> expected(queries.size());
      scalar.ResolveBatchScalar(queries, expected);
      auto reply = client.Receive();
      EXPECT_TRUE(reply.has_value());
      if (!reply.has_value()) {
        return "";
      }
      EXPECT_EQ(reply->request_id, first_id + r);
      EXPECT_EQ(reply->flags, 0u);
      EXPECT_EQ(reply->results.size(), queries.size());
      for (size_t i = 0; i < queries.size() && i < reply->results.size(); ++i) {
        const ReplyResult& got = reply->results[i];
        if (std::find(malformed.begin(), malformed.end(), queries[i]) != malformed.end()) {
          EXPECT_EQ(got.status, kResultMalformed) << queries[i];
        } else if (!expected[i].route.ok()) {
          EXPECT_EQ(got.status, kResultMiss) << queries[i];
        } else {
          EXPECT_EQ(got.status, expected[i].suffix_match ? kResultSuffix : kResultExact)
              << queries[i];
          EXPECT_EQ(got.via, disk->routes().names().View(expected[i].via)) << queries[i];
          EXPECT_EQ(got.route, expected[i].route.route) << queries[i];
        }
        if (queries[i] == "s5.rutgers.edu") {
          stranger_route = std::string(got.route);
        }
      }
    }
    return stranger_route;
  };

  EXPECT_EQ(check_turn(1), "gw!%s");

  // Move the domain behind "mid" and reload.
  std::vector<InputFile> rerouted = DomainFiles(dir_);
  rerouted[1].content =
      "mid\thub(100), leafa(50), .rutgers.edu(10)\n.rutgers.edu\tcaip(0), topaz(0)\n";
  rerouted[2].content = "gw\thub(50)\n";
  for (const InputFile& file : rerouted) {
    WriteFileAt(file.name, file.content);
  }
  daemon_->RequestReload();
  ASSERT_TRUE(daemon_->PollOnce(100));
  ASSERT_EQ(daemon_->stats().reloads_applied, 1u);

  EXPECT_EQ(check_turn(11), "mid!%s");
}

}  // namespace
}  // namespace net
}  // namespace pathalias
