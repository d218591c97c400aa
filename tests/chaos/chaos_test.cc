// The chaos harness: randomized fault schedules driven through init → update →
// serve → rollover, with the crash-safety invariants checked after every run:
//
//   1. the published image is ALWAYS openable under full checksum verification
//      — an injected failure may abort a publish, never tear one;
//   2. the state dir ALWAYS loads cleanly or reports a clean rebuild-needed
//      error — never UB, never an abort;
//   3. the state generation never runs ahead of the image generation (image is
//      published first, so a torn pair is detectable, not adoptable);
//   4. the daemon NEVER exits its loop uncleanly — faults degrade service,
//      they do not kill it.
//
// Every run is seeded deterministically (support::Rng), so a failure reproduces
// byte-for-byte from the seed printed in the assertion message.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/image/frozen_route_set.h"
#include "src/image/image_format.h"
#include "src/image/image_writer.h"
#include "src/incr/map_builder.h"
#include "src/incr/state_dir.h"
#include "src/net/daemon.h"
#include "src/net/wire.h"
#include "src/support/failpoint.h"
#include "src/support/rng.h"

namespace pathalias {
namespace {

namespace fs = std::filesystem;
namespace failpoint = support::failpoint;

// Disarms everything on scope exit so one run's schedule never leaks into the
// next (or into the invariant checks, which must run fault-free).
struct FailpointGuard {
  ~FailpointGuard() { failpoint::Reset(); }
};

fs::path MakeScratchDir(const char* tag, uint64_t seed) {
  fs::path dir = fs::temp_directory_path() /
                 ("chaos_" + std::string(tag) + "_" + std::to_string(::getpid()) + "_" +
                  std::to_string(seed));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void WriteFileAt(const fs::path& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

// Two map versions differing only in where leafc homes; cost jitter from the
// rng makes most update cycles real (dirty routes) without changing the names.
std::vector<InputFile> MapVersion(const fs::path& dir, bool b_side, uint64_t jitter) {
  std::string mid_cost = std::to_string(50 + jitter % 40);
  if (b_side) {
    return {
        {(dir / "core.map").string(), "hub\tmid(100), far(400)\n"},
        {(dir / "mid.map").string(), "mid\thub(100), leafa(" + mid_cost +
                                         "), leafb(60), leafc(55)\nleafc\tmid(55)\n"},
        {(dir / "far.map").string(), "far\thub(400)\n"},
    };
  }
  return {
      {(dir / "core.map").string(), "hub\tmid(100), far(400)\n"},
      {(dir / "mid.map").string(),
       "mid\thub(100), leafa(" + mid_cost + "), leafb(60)\n"},
      {(dir / "far.map").string(), "far\thub(400), leafc(10)\nleafc\tfar(10)\n"},
  };
}

void WriteMapFiles(const std::vector<InputFile>& files) {
  for (const InputFile& file : files) {
    WriteFileAt(file.name, file.content);
  }
}

// `routedb update --init`, in process: image generation 1 and a paired state dir.
void InitImage(const std::vector<InputFile>& files, const std::string& image_path) {
  WriteMapFiles(files);
  incr::MapBuilder builder(incr::MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));
  std::string error;
  ASSERT_TRUE(image::ImageWriter::Refreeze(builder.routes(), image_path,
                                           /*generation=*/1, &error))
      << error;
  incr::StateDirContents contents;
  contents.local = "hub";
  contents.ignore_case = false;
  contents.image_generation = 1;
  contents.artifacts = builder.artifacts();
  ASSERT_TRUE(incr::SaveStateDir(image_path + ".state", contents));
}

// Reads the generation stamp straight from the header bytes — no mmap, no
// failpoints, usable both mid-run and in the invariant checks.
std::optional<uint64_t> HeaderGeneration(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  image::ImageHeader header{};
  if (!in.read(reinterpret_cast<char*>(&header), sizeof(header))) {
    return std::nullopt;
  }
  if (header.magic != image::kMagic) {
    return std::nullopt;
  }
  return header.generation;
}

// The fault set a publish pipeline can hit.  Schedules are drawn per-run.
const std::vector<std::string>& PublishFaultSites() {
  static const std::vector<std::string> kSites = {
      "image.publish.open", "image.publish.write",  "image.publish.fsync",
      "image.publish.close", "image.publish.rename", "image.publish.dirsync",
      "state.publish.open", "state.publish.write",  "state.publish.fsync",
      "state.publish.close", "state.publish.rename", "state.publish.dirsync",
      "state.read",
  };
  return kSites;
}

std::string RandomSchedule(Rng& rng) {
  static const std::vector<std::string> kErrnos = {"EIO", "ENOSPC", "EACCES"};
  std::string schedule;
  switch (rng.Below(4)) {
    case 0: schedule = "once"; break;
    case 1: schedule = "always"; break;
    case 2: schedule = "nth:" + std::to_string(1 + rng.Below(3)); break;
    default: schedule = "every:" + std::to_string(1 + rng.Below(2)); break;
  }
  return schedule + ",errno:" + rng.Pick(kErrnos);
}

void ArmRandomFaults(Rng& rng, const std::vector<std::string>& sites, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    std::string error;
    ASSERT_TRUE(failpoint::Arm(rng.Pick(sites), RandomSchedule(rng), &error)) << error;
  }
}

// One `routedb update` cycle under whatever faults are armed.  Failures are the
// POINT — the return value only says whether a republish landed.
bool TryUpdateCycle(const fs::path& /*dir*/, const std::string& image_path,
                    const std::vector<InputFile>& files) {
  WriteMapFiles(files);
  std::vector<InputFile> loaded;
  for (const InputFile& file : files) {
    std::ifstream in(file.name);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    loaded.push_back({file.name, std::move(buffer).str()});
  }

  std::string error;
  auto state = incr::LoadStateDir(image_path + ".state", &error);
  incr::MapBuilder builder(incr::MapBuilderOptions{.local = "hub"});
  if (state.has_value()) {
    if (!builder.Build(std::move(state->artifacts))) {
      return false;
    }
    builder.Update(loaded);
  } else {
    // Clean rebuild-needed fallback: parse everything from scratch.
    if (!builder.Build(loaded)) {
      return false;
    }
  }
  if (!builder.valid()) {
    return false;
  }
  const uint64_t image_generation = HeaderGeneration(image_path).value_or(0);
  const uint64_t state_generation = state.has_value() ? state->image_generation : 0;
  const uint64_t next_generation = std::max(image_generation, state_generation) + 1;
  if (!image::ImageWriter::Refreeze(builder.routes(), image_path, next_generation,
                                    &error)) {
    return false;  // publish aborted; the invariants say it must not have torn
  }
  incr::StateDirContents contents;
  contents.local = "hub";
  contents.ignore_case = false;
  contents.image_generation = next_generation;
  contents.artifacts = builder.artifacts();
  (void)incr::SaveStateDir(image_path + ".state", contents);  // may fail; image leads
  return true;
}

// The three on-disk invariants, checked fault-free after every run.
void ExpectDiskInvariants(const std::string& image_path, uint64_t seed) {
  std::string error;
  auto image =
      FrozenImage::Open(image_path, image::ImageView::Verify::kChecksum, &error);
  ASSERT_TRUE(image.has_value()) << "seed " << seed << ": torn image: " << error;

  error.clear();
  auto state = incr::LoadStateDir(image_path + ".state", &error);
  if (!state.has_value()) {
    EXPECT_FALSE(error.empty()) << "seed " << seed << ": state load failed silently";
    return;  // clean rebuild-needed is an allowed outcome
  }
  EXPECT_LE(state->image_generation, image->view().header().generation)
      << "seed " << seed << ": state generation ran ahead of the image";
}

TEST(PublishChaos, RandomFaultSchedulesNeverTearImageOrState) {
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    Rng rng(seed);
    FailpointGuard guard;
    fs::path dir = MakeScratchDir("publish", seed);
    std::string image_path = (dir / "routes.pari").string();
    InitImage(MapVersion(dir, false, 0), image_path);

    for (int cycle = 0; cycle < 3; ++cycle) {
      failpoint::Reset();
      ArmRandomFaults(rng, PublishFaultSites(), 1 + rng.Below(2));
      TryUpdateCycle(dir, image_path, MapVersion(dir, rng.Chance(0.5), rng.Next()));
    }

    failpoint::Reset();
    ExpectDiskInvariants(image_path, seed);
    fs::remove_all(dir);
  }
}

// A throwaway client that tolerates injected send/recv failures — under chaos
// the only promise is that the DAEMON stays up; datagrams may vanish.
class ChaosClient {
 public:
  ChaosClient(const fs::path& dir, const std::string& server_path) {
    std::string error;
    auto socket = net::DatagramSocket::ClientForUnix((dir / "c.sock").string(), &error);
    EXPECT_TRUE(socket.has_value()) << error;
    socket_ = std::move(*socket);
    server_ = net::DatagramSocket::UnixPeer(server_path);
    buffer_.resize(net::kMaxDatagramBytes);
  }

  void TrySend(uint64_t id, std::string_view query) {
    std::string datagram;
    std::vector<std::string_view> queries = {query};
    ASSERT_TRUE(net::EncodeRequest(id, queries, &datagram));
    bool dropped = false;
    std::string error;
    (void)socket_.SendTo(datagram, server_, &dropped, &error);
  }

  std::optional<net::DecodedReply> TryReceive(int timeout_ms) {
    if (!socket_.WaitReadable(timeout_ms)) {
      return std::nullopt;
    }
    net::PeerAddress from;
    bool got_one = false;
    std::string error;
    ssize_t got = socket_.Recv(buffer_.data(), buffer_.size(), &from, &got_one, &error);
    if (!got_one) {
      return std::nullopt;
    }
    net::DecodedReply reply;
    if (!net::DecodeReply(std::string_view(buffer_.data(), static_cast<size_t>(got)),
                          &reply, &error)) {
      return std::nullopt;
    }
    return reply;
  }

  // Fault-free ask-with-retries: proves the daemon still SERVES after chaos.
  // Stale replies from the chaos phase may still sit in the socket buffer, so
  // answers are matched by request id, not taken first-come.
  std::string RouteAfterChaos(net::Daemon* daemon, uint64_t id, std::string_view query) {
    for (int attempt = 0; attempt < 5; ++attempt) {
      uint64_t want = id + static_cast<uint64_t>(attempt) * 1000;
      TrySend(want, query);
      daemon->PollOnce(50);
      for (int drain = 0; drain < 32; ++drain) {
        auto reply = TryReceive(500);
        if (!reply.has_value()) {
          break;
        }
        if (reply->request_id == want && reply->results.size() == 1 &&
            (reply->flags & net::kReplyFlagOverloaded) == 0) {
          return std::string(reply->results[0].route);
        }
      }
    }
    return "<no reply>";
  }

 private:
  net::DatagramSocket socket_;
  net::PeerAddress server_;
  std::vector<char> buffer_;
};

TEST(ServeChaos, DaemonSurvivesSocketFaultsAndRecovers) {
  const std::vector<std::string> kSites = {"net.send", "net.recv"};
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    FailpointGuard guard;
    fs::path dir = MakeScratchDir("serve", seed);
    std::string image_path = (dir / "routes.pari").string();
    InitImage(MapVersion(dir, false, 0), image_path);

    net::DaemonOptions options;
    options.rollover.image_path = image_path;
    options.unix_path = (dir / "d.sock").string();
    options.watch_interval_ms = 0;
    net::Daemon daemon(std::move(options));
    std::string error;
    ASSERT_TRUE(daemon.Start(&error)) << "seed " << seed << ": " << error;
    ChaosClient client(dir, daemon.unix_path());

    ArmRandomFaults(rng, kSites, 1 + rng.Below(2));
    for (int turn = 0; turn < 8; ++turn) {
      client.TrySend(static_cast<uint64_t>(turn) + 1, rng.Chance(0.5) ? "leafa" : "leafc");
      ASSERT_TRUE(daemon.PollOnce(10))
          << "seed " << seed << ": daemon loop ended under socket faults";
      (void)client.TryReceive(0);  // drain whatever survived
    }

    failpoint::Reset();
    EXPECT_EQ(client.RouteAfterChaos(&daemon, 100, "leafa"), "mid!leafa!%s")
        << "seed " << seed << ": daemon did not recover after faults cleared";
    fs::remove_all(dir);
  }
}

TEST(RolloverChaos, ReloadFaultsDegradeButNeverKillOrCorrupt) {
  std::vector<std::string> sites = PublishFaultSites();
  sites.push_back("rollover.reopen");
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    FailpointGuard guard;
    fs::path dir = MakeScratchDir("rollover", seed);
    std::string image_path = (dir / "routes.pari").string();
    std::vector<InputFile> initial = MapVersion(dir, false, 0);
    InitImage(initial, image_path);

    net::DaemonOptions options;
    options.rollover.image_path = image_path;
    for (const InputFile& file : initial) {
      options.rollover.map_files.push_back(file.name);
    }
    options.unix_path = (dir / "d.sock").string();
    options.watch_interval_ms = 1;  // the heal path below needs the watch
    net::Daemon daemon(std::move(options));
    std::string error;
    ASSERT_TRUE(daemon.Start(&error)) << "seed " << seed << ": " << error;
    ChaosClient client(dir, daemon.unix_path());

    bool b_side = false;
    for (int round = 0; round < 3; ++round) {
      failpoint::Reset();
      ArmRandomFaults(rng, sites, 1 + rng.Below(2));
      b_side = rng.Chance(0.5);
      WriteMapFiles(MapVersion(dir, b_side, rng.Next()));
      daemon.RequestReload();
      ASSERT_TRUE(daemon.PollOnce(10))
          << "seed " << seed << ": daemon loop ended during faulted reload";
      // The unchanged route must survive every faulted rollover.
      failpoint::Reset();
      EXPECT_EQ(client.RouteAfterChaos(&daemon, 200 + round * 10, "leafa"),
                "mid!leafa!%s")
          << "seed " << seed << " round " << round;
    }

    // Faults cleared.  A faulted round may have torn image and state apart
    // (state a generation behind), which the next update heals by re-reading
    // every kept source — a HUP or, as here, an external fault-free `routedb
    // update` republishing a consistent pair, which the watch then picks up.
    // Run the heal and require convergence.
    failpoint::Reset();
    ASSERT_TRUE(TryUpdateCycle(dir, image_path, MapVersion(dir, b_side, 999)))
        << "seed " << seed << ": fault-free update failed";
    std::string expect = b_side ? "mid!leafc!%s" : "far!leafc!%s";
    std::string got;
    for (int i = 0; i < 50 && got != expect; ++i) {
      daemon.PollOnce(5);  // watch tick
      got = client.RouteAfterChaos(&daemon, 900 + static_cast<uint64_t>(i) * 100000,
                                   "leafc");
    }
    EXPECT_EQ(got, expect)
        << "seed " << seed << ": daemon did not converge after faults cleared";

    ExpectDiskInvariants(image_path, seed);
    fs::remove_all(dir);
  }
}

}  // namespace
}  // namespace pathalias
