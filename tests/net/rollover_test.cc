// Rollover, observed from a client's chair.  The daemon is
// single-threaded and stepped with PollOnce, so these tests are deterministic:
// no sanitizer, no sleeps-as-synchronization — the linearizability claim (a
// reply acked after an update completes never carries the pre-update route) is
// checked by construction, request by request.

#include "src/net/rollover.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/image/image_writer.h"
#include "src/incr/map_builder.h"
#include "src/incr/state_dir.h"
#include "src/route_db/resolver.h"
#include "src/route_db/route_db.h"
#include "src/net/daemon.h"
#include "src/net/wire.h"
#include "src/support/failpoint.h"

namespace pathalias {
namespace net {
namespace {

namespace fs = std::filesystem;

fs::path MakeScratchDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::temp_directory_path() /
                 ("rollover_" + std::to_string(::getpid()) + "_" + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// Removes a plain test's scratch directory when the test ends, however it ends.
struct ScratchDirGuard {
  fs::path dir;
  ~ScratchDirGuard() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

void WriteFileAt(const fs::path& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

// Version A: leafc hangs off "far" → route "far!leafc!%s".
std::vector<InputFile> FilesA(const fs::path& dir) {
  return {
      {(dir / "core.map").string(), "hub\tmid(100), far(400)\n"},
      {(dir / "mid.map").string(), "mid\thub(100), leafa(50), leafb(60)\n"},
      {(dir / "far.map").string(), "far\thub(400), leafc(10)\nleafc\tfar(10)\n"},
  };
}

// Version B: leafc re-homed onto "mid" → route "mid!leafc!%s".  Same files, same
// names; only the leafc routing changes.
std::vector<InputFile> FilesB(const fs::path& dir) {
  return {
      {(dir / "core.map").string(), "hub\tmid(100), far(400)\n"},
      {(dir / "mid.map").string(),
       "mid\thub(100), leafa(50), leafb(60), leafc(55)\nleafc\tmid(55)\n"},
      {(dir / "far.map").string(), "far\thub(400)\n"},
  };
}

void WriteMapFiles(const std::vector<InputFile>& files) {
  for (const InputFile& file : files) {
    WriteFileAt(file.name, file.content);
  }
}

void InitImage(const std::vector<InputFile>& files, const std::string& image_path,
               uint64_t generation = 0) {
  WriteMapFiles(files);
  incr::MapBuilder builder(incr::MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));
  ASSERT_TRUE(image::ImageWriter::Refreeze(builder.routes(), image_path, generation));
  incr::StateDirContents contents;
  contents.local = "hub";
  contents.image_generation = generation;
  contents.artifacts = builder.artifacts();
  ASSERT_TRUE(incr::SaveStateDir(image_path + ".state", contents));
}

// `routedb update <image> <files...>`, in process: writes the files and runs the
// one update step on them.
UpdateReport OneShotUpdate(const std::string& image_path,
                           const std::vector<InputFile>& changed) {
  WriteMapFiles(changed);
  UpdateRequest request;
  request.image_path = image_path;
  request.changed = changed;
  return UpdateImage(request);
}

class RolloverDaemonTest : public ::testing::Test {
 protected:
  void TearDown() override {
    support::failpoint::Reset();
    daemon_.reset();
    if (!dir_.empty()) {
      std::error_code ec;
      fs::remove_all(dir_, ec);
    }
  }

  void StartDaemon(bool with_map_files, int watch_interval_ms) {
    dir_ = MakeScratchDir();
    image_path_ = (dir_ / "routes.pari").string();
    InitImage(FilesA(dir_), image_path_);

    DaemonOptions options;
    options.rollover.image_path = image_path_;
    if (with_map_files) {
      for (const InputFile& file : FilesA(dir_)) {
        options.rollover.map_files.push_back(file.name);
      }
    }
    options.unix_path = (dir_ / "d.sock").string();
    options.watch_interval_ms = watch_interval_ms;
    daemon_.emplace(std::move(options));
    std::string error;
    ASSERT_TRUE(daemon_->Start(&error)) << error;

    auto socket = DatagramSocket::ClientForUnix((dir_ / "c.sock").string(), &error);
    ASSERT_TRUE(socket.has_value()) << error;
    client_ = std::move(*socket);
    server_ = DatagramSocket::UnixPeer(daemon_->unix_path());
    buffer_.resize(kMaxDatagramBytes);
  }

  // Sends one single-query request, runs one daemon turn, returns the reply.
  std::optional<DecodedReply> Ask(uint64_t id, std::string_view query) {
    std::string datagram;
    std::vector<std::string_view> queries = {query};
    if (!EncodeRequest(id, queries, &datagram)) {
      return std::nullopt;
    }
    bool dropped = false;
    std::string error;
    if (!client_.SendTo(datagram, server_, &dropped, &error)) {
      ADD_FAILURE() << "send failed: " << error;
      return std::nullopt;
    }
    daemon_->PollOnce(100);
    if (!client_.WaitReadable(2000)) {
      return std::nullopt;
    }
    PeerAddress from;
    bool got_one = false;
    ssize_t got = client_.Recv(buffer_.data(), buffer_.size(), &from, &got_one, &error);
    if (!got_one) {
      return std::nullopt;
    }
    DecodedReply reply;
    if (!DecodeReply(std::string_view(buffer_.data(), static_cast<size_t>(got)),
                     &reply, &error)) {
      ADD_FAILURE() << "undecodable reply: " << error;
      return std::nullopt;
    }
    return reply;
  }

  std::string RouteOf(uint64_t id, std::string_view query) {
    auto reply = Ask(id, query);
    if (!reply.has_value() || reply->results.size() != 1) {
      ADD_FAILURE() << "no reply for " << query;
      return "";
    }
    return std::string(reply->results[0].route);
  }

  fs::path dir_;
  std::string image_path_;
  std::optional<Daemon> daemon_;
  DatagramSocket client_;
  PeerAddress server_;
  std::vector<char> buffer_;
};

// Satellite: the deterministic (non-TSan) linearizability check.  A reply the
// client receives after the reload turn completes must carry the post-update
// route — even for a query asked twice before it — while a retransmit of a
// pre-update request replays the pre-update bytes verbatim.
TEST_F(RolloverDaemonTest, HupReloadIsLinearizableForClients) {
  StartDaemon(/*with_map_files=*/true, /*watch_interval_ms=*/0);

  // Ask twice under fresh ids: both are resolved, neither is a replay.
  EXPECT_EQ(RouteOf(1, "leafc"), "far!leafc!%s");
  EXPECT_EQ(RouteOf(2, "leafc"), "far!leafc!%s");

  WriteMapFiles(FilesB(dir_));
  daemon_->RequestReload();
  ASSERT_TRUE(daemon_->PollOnce(100));  // the reload turn

  EXPECT_EQ(daemon_->stats().reloads_attempted, 1u);
  EXPECT_EQ(daemon_->stats().reloads_applied, 1u);
  EXPECT_EQ(daemon_->rollover().generation(), 1u);
  // Single-threaded loop: the swap turn itself drains, so the old mapping is
  // already unmapped — nothing lingers.
  EXPECT_EQ(daemon_->stats().images_retired, 1u);
  EXPECT_EQ(daemon_->rollover().pending_retirements(), 0u);

  // THE claim: acked-after-update replies never carry the pre-update route.
  EXPECT_EQ(RouteOf(3, "leafc"), "mid!leafc!%s");

  // ...while a retransmit of a request answered pre-update replays the original
  // answer bytes (at-most-once), flagged so the client can tell.
  auto replayed = Ask(1, "leafc");
  ASSERT_TRUE(replayed.has_value());
  EXPECT_NE(replayed->flags & kReplyFlagReplayed, 0);
  EXPECT_EQ(replayed->results[0].route, "far!leafc!%s");

  // Untouched routes kept serving throughout.
  EXPECT_EQ(RouteOf(4, "leafa"), "mid!leafa!%s");
}

TEST_F(RolloverDaemonTest, ReloadWithUnchangedFilesIsANoop) {
  StartDaemon(/*with_map_files=*/true, /*watch_interval_ms=*/0);
  EXPECT_EQ(RouteOf(1, "leafc"), "far!leafc!%s");

  daemon_->RequestReload();  // nothing on disk changed
  ASSERT_TRUE(daemon_->PollOnce(100));

  EXPECT_EQ(daemon_->stats().reloads_noop, 1u);
  EXPECT_EQ(daemon_->stats().reloads_applied, 0u);
  EXPECT_EQ(daemon_->rollover().generation(), 0u);
  EXPECT_EQ(RouteOf(2, "leafc"), "far!leafc!%s");
}

// Spins the loop until a rollover lands (watch cadence is 1ms) or the bound runs
// out.  Bounded retries, not a sleep: each turn does real work.
void SpinUntilGeneration(Daemon* daemon, uint64_t generation) {
  for (int i = 0; i < 2000 && daemon->rollover().generation() < generation; ++i) {
    daemon->PollOnce(5);
  }
  ASSERT_GE(daemon->rollover().generation(), generation);
}

// The changed-file-notification path: an EXTERNAL `routedb update` refreezes the
// image (rename), and the daemon — with no map files configured at all — picks
// it up from the watch and hot-swaps.
TEST_F(RolloverDaemonTest, WatchPicksUpExternalImageReplacement) {
  StartDaemon(/*with_map_files=*/false, /*watch_interval_ms=*/1);
  EXPECT_EQ(RouteOf(1, "leafc"), "far!leafc!%s");
  EXPECT_EQ(RouteOf(2, "leafc"), "far!leafc!%s");

  UpdateReport update = OneShotUpdate(image_path_, FilesB(dir_));
  ASSERT_EQ(update.outcome, UpdateOutcome::kPublished) << update.error;

  SpinUntilGeneration(&*daemon_, 1);
  EXPECT_GE(daemon_->stats().reloads_applied, 1u);
  EXPECT_EQ(RouteOf(3, "leafc"), "mid!leafc!%s");
  EXPECT_EQ(RouteOf(4, "leafa"), "mid!leafa!%s");
}

// An image rebuilt from scratch by someone else (another interner id space, other
// names) adopts into the same engine, and the answers are the new image's.
TEST_F(RolloverDaemonTest, WatchSurvivesIncompatibleImageRebuild) {
  StartDaemon(/*with_map_files=*/false, /*watch_interval_ms=*/1);
  EXPECT_EQ(RouteOf(1, "leafc"), "far!leafc!%s");
  exec::FrozenBatchEngine* old_engine = daemon_->engine();

  {  // A from-scratch build with a different name order: ids do not line up.
    std::vector<InputFile> files = {
        {(dir_ / "other.map").string(), "zzz\tleafc(10), leafa(20)\n"}};
    WriteMapFiles(files);
    incr::MapBuilder builder(incr::MapBuilderOptions{.local = "zzz"});
    ASSERT_TRUE(builder.Build(files));
    ASSERT_TRUE(image::ImageWriter::Refreeze(builder.routes(), image_path_));
  }

  SpinUntilGeneration(&*daemon_, 1);
  EXPECT_EQ(daemon_->engine(), old_engine) << "any image adopts into the same engine";
  EXPECT_EQ(RouteOf(2, "leafc"), "leafc!%s");
  EXPECT_EQ(RouteOf(3, "hub"), "") << "the old world is gone";
}

// Graceful degradation: a refreeze that cannot be published (injected rename
// failure) must log an error, keep serving the OLD map, and succeed verbatim on
// the next reload once the fault clears.
TEST_F(RolloverDaemonTest, FailedRefreezeKeepsServingOldMapAndRetrySucceeds) {
  StartDaemon(/*with_map_files=*/true, /*watch_interval_ms=*/0);
  EXPECT_EQ(RouteOf(1, "leafc"), "far!leafc!%s");

  WriteMapFiles(FilesB(dir_));
  ASSERT_TRUE(support::failpoint::Arm("image.publish.rename", "always,errno:ENOSPC"));
  daemon_->RequestReload();
  ASSERT_TRUE(daemon_->PollOnce(100)) << "a failed reload must not stop the loop";

  EXPECT_EQ(daemon_->stats().reload_errors, 1u);
  EXPECT_EQ(daemon_->stats().reloads_applied, 0u);
  EXPECT_EQ(RouteOf(2, "leafc"), "far!leafc!%s") << "old map keeps serving";

  support::failpoint::Reset();
  daemon_->RequestReload();
  ASSERT_TRUE(daemon_->PollOnce(100));
  EXPECT_EQ(daemon_->stats().reloads_applied, 1u);
  EXPECT_EQ(RouteOf(3, "leafc"), "mid!leafc!%s");
}

// Transient open failure on the watch path: the first tick's reopen fails, but
// the controller leaves its stat identity untouched, so the NEXT tick retries
// the same replacement and lands it — self-healing, no restart needed.
TEST_F(RolloverDaemonTest, WatchRetriesAfterTransientReopenFailure) {
  StartDaemon(/*with_map_files=*/false, /*watch_interval_ms=*/1);
  EXPECT_EQ(RouteOf(1, "leafc"), "far!leafc!%s");

  // External update, as in WatchPicksUpExternalImageReplacement.
  UpdateReport update = OneShotUpdate(image_path_, FilesB(dir_));
  ASSERT_EQ(update.outcome, UpdateOutcome::kPublished) << update.error;

  ASSERT_TRUE(support::failpoint::Arm("rollover.reopen", "nth:1"));
  SpinUntilGeneration(&*daemon_, 1);  // tick 1 fails, tick 2 lands it
  EXPECT_EQ(support::failpoint::Fires("rollover.reopen"), 1u);
  EXPECT_GE(daemon_->stats().reload_errors, 1u);
  EXPECT_GE(daemon_->stats().reloads_applied, 1u);
  EXPECT_EQ(RouteOf(2, "leafc"), "mid!leafc!%s");
}

// RolloverController in isolation: stat-identity makes the watch free when the
// image is untouched.
TEST(RolloverController, CheckImageIsANoopWhenUntouched) {
  fs::path dir = MakeScratchDir();
  ScratchDirGuard cleanup{dir};
  std::string image_path = (dir / "routes.pari").string();
  InitImage(FilesA(dir), image_path);

  RolloverOptions options;
  options.image_path = image_path;
  RolloverController controller(options);
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;

  std::string detail;
  EXPECT_EQ(controller.CheckImage(&detail), ReloadOutcome::kNoop);
  EXPECT_EQ(controller.generation(), 0u);
  EXPECT_EQ(controller.pending_retirements(), 0u);
}

// Regression: a swapped-out image is freed at the next RetireDrained, however
// many batches the engine served before the swap, and whatever ids the new
// image numbers names with.
TEST(RolloverController, SwappedOutImagesAreFreedAtTheNextRetire) {
  fs::path dir = MakeScratchDir();
  ScratchDirGuard cleanup{dir};
  std::string image_path = (dir / "routes.pari").string();
  InitImage(FilesA(dir), image_path);

  RolloverOptions options;
  options.image_path = image_path;
  RolloverController controller(options);
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  std::vector<std::string_view> queries = {"leafc", "hub"};
  std::vector<BatchLookup> results(queries.size());
  for (int batch = 0; batch < 5; ++batch) {
    ASSERT_EQ(controller.engine()->ResolveBatch(queries, results), 2u);
  }
  exec::FrozenBatchEngine* engine = controller.engine();

  // A from-scratch build with another id space.
  std::vector<InputFile> files = {{(dir / "other.map").string(), "zzz\tleafc(10), leafa(20)\n"}};
  WriteMapFiles(files);
  incr::MapBuilder builder(incr::MapBuilderOptions{.local = "zzz"});
  ASSERT_TRUE(builder.Build(files));
  ASSERT_TRUE(image::ImageWriter::Refreeze(builder.routes(), image_path));
  std::string detail;
  ASSERT_EQ(controller.CheckImage(&detail), ReloadOutcome::kApplied) << detail;
  ASSERT_EQ(controller.engine(), engine) << detail;
  EXPECT_EQ(controller.RetireDrained(), 1u);
  EXPECT_EQ(controller.pending_retirements(), 0u);

  // A refreeze of that image by the same builder.
  files[0].content = "zzz\tleafc(10), leafa(20), leafd(30)\n";
  WriteMapFiles(files);
  builder.Update(files);
  ASSERT_TRUE(builder.valid());
  ASSERT_TRUE(image::ImageWriter::Refreeze(builder.routes(), image_path));
  ASSERT_EQ(controller.CheckImage(&detail), ReloadOutcome::kApplied) << detail;
  ASSERT_EQ(controller.engine(), engine) << detail;
  EXPECT_EQ(controller.RetireDrained(), 1u);
  EXPECT_EQ(controller.pending_retirements(), 0u);
  EXPECT_EQ(controller.generation(), 2u);

  std::vector<std::string_view> fresh = {"leafd"};
  std::vector<BatchLookup> answer(1);
  ASSERT_EQ(controller.engine()->ResolveBatch(fresh, answer), 1u);
  EXPECT_EQ(answer[0].route.route, "leafd!%s");
}

// Every interned name of `routes`, in id order.
std::vector<std::string> InternedNames(const FrozenRouteSet& routes) {
  std::vector<std::string> names;
  for (NameId id = 0; id < routes.names().size(); ++id) {
    names.emplace_back(routes.names().View(id));
  }
  return names;
}

// One answer as text: the matched key, the route and its cost, or "*miss*".
std::string AnswerText(const FrozenRouteSet& routes, const BatchLookup& lookup) {
  if (!lookup.route.ok()) {
    return "*miss*";
  }
  return std::string(routes.names().View(lookup.via)) + "\t" +
         std::string(lookup.route.route) + "\t" + std::to_string(lookup.route.cost);
}

// Resolves every name of `names` through the controller's served engine, as a
// client's traffic would before an adopt.
void Warm(RolloverController* controller, const std::vector<std::string>& names) {
  std::vector<std::string_view> queries(names.begin(), names.end());
  std::vector<BatchLookup> results(queries.size());
  controller->engine()->ResolveBatch(queries, results);
}

// The served engine must answer every name the image on disk interns, and every
// name of `also`, exactly as the scalar resolver over that image does.
void ExpectAnswersLikeTheImageOnDisk(RolloverController* controller,
                                     const std::string& image_path,
                                     const std::vector<std::string>& also) {
  std::string error;
  auto disk = FrozenImage::Open(image_path, image::ImageView::Verify::kStructure, &error);
  ASSERT_TRUE(disk.has_value()) << error;
  Resolver reference(&disk->routes(), ResolveOptions{});
  std::vector<std::string> names = InternedNames(disk->routes());
  names.insert(names.end(), also.begin(), also.end());
  std::vector<std::string_view> queries(names.begin(), names.end());
  std::vector<BatchLookup> served(queries.size());
  std::vector<BatchLookup> expected(queries.size());
  controller->engine()->ResolveBatch(queries, served);
  reference.ResolveBatchScalar(queries, expected);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(AnswerText(*controller->routes(), served[i]),
              AnswerText(disk->routes(), expected[i]))
        << queries[i];
  }
}

// A three-file map with a domain behind a gateway: ".rutgers.edu" is a name a
// renumbering moves.
std::vector<InputFile> GatewayFiles(const fs::path& dir) {
  return {
      {(dir / "core.map").string(), "hub\tmid(100), gw(50)\n"},
      {(dir / "mid.map").string(), "mid\thub(100), leafa(50)\n"},
      {(dir / "gw.map").string(),
       "gw\thub(50), .rutgers.edu(10)\n.rutgers.edu\tcaip(0), topaz(0)\n"},
  };
}

RolloverOptions ServingOptions(const std::string& image_path,
                               const std::vector<InputFile>& map_files) {
  RolloverOptions options;
  options.image_path = image_path;
  for (const InputFile& file : map_files) {
    options.map_files.push_back(file.name);
  }
  return options;
}

// Regression: the first SIGHUP after a one-shot `routedb update` must answer
// every name as the image on disk does.  The one-shot update appended its new
// names at the end of the id space, but the daemon's builder, loaded from the
// state dir, numbered names in emission order, so the image it refroze had
// another id assignment; adopting the builder's dirty ids re-homed cached
// results onto other names (".rutgers.edu" came back as a miss).
TEST(RolloverController, HupAfterAOneShotUpdateAnswersLikeTheImageOnDisk) {
  fs::path dir = MakeScratchDir();
  ScratchDirGuard cleanup{dir};
  std::string image_path = (dir / "routes.pari").string();
  std::vector<InputFile> files = GatewayFiles(dir);
  InitImage(files, image_path, /*generation=*/1);

  // `routedb update routes.pari core.map`: publishes generation 2.
  files[0].content = "hub\tmid(100), gw(50), newa(1)\n";
  UpdateReport update = OneShotUpdate(image_path, {files[0]});
  ASSERT_EQ(update.outcome, UpdateOutcome::kPublished) << update.error;

  RolloverController controller(ServingOptions(image_path, files));
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  std::vector<std::string> warm = InternedNames(*controller.routes());
  Warm(&controller, warm);

  files[1].content += "mid\tleafz(5)\n";
  WriteMapFiles(files);
  std::string detail;
  ASSERT_EQ(controller.ReloadFromSources(&detail), ReloadOutcome::kApplied) << detail;
  ExpectAnswersLikeTheImageOnDisk(&controller, image_path, warm);
  ASSERT_NE(std::find(warm.begin(), warm.end(), ".rutgers.edu"), warm.end());
}

// A SIGHUP after a watch adoption hot-swaps into the same engine and answers
// every name as the image on disk does.  (A builder loaded from the state dir
// once numbered names in emission order: newa moved, and the engine was rebuilt
// cold.)
TEST(RolloverController, HupAfterAWatchAdoptionKeepsTheEngine) {
  fs::path dir = MakeScratchDir();
  ScratchDirGuard cleanup{dir};
  std::string image_path = (dir / "routes.pari").string();
  std::vector<InputFile> files = GatewayFiles(dir);
  InitImage(files, image_path, /*generation=*/1);
  RolloverController controller(ServingOptions(image_path, files));
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  exec::FrozenBatchEngine* engine = controller.engine();

  files[0].content = "hub\tmid(100), gw(50), newa(1)\n";
  UpdateReport update = OneShotUpdate(image_path, {files[0]});
  ASSERT_EQ(update.outcome, UpdateOutcome::kPublished) << update.error;
  std::string detail;
  ASSERT_EQ(controller.CheckImage(&detail), ReloadOutcome::kApplied) << detail;
  ASSERT_EQ(controller.engine(), engine) << detail;
  std::vector<std::string> warm = InternedNames(*controller.routes());
  Warm(&controller, warm);

  files[1].content += "mid\tleafz(5)\n";
  WriteMapFiles(files);
  ASSERT_EQ(controller.ReloadFromSources(&detail), ReloadOutcome::kApplied) << detail;
  EXPECT_EQ(controller.engine(), engine) << detail;
  EXPECT_NE(detail.find("route(s) changed"), std::string::npos) << detail;
  ExpectAnswersLikeTheImageOnDisk(&controller, image_path, warm);
}

// The watch adopts a one-shot update made after a SIGHUP into the same engine,
// and the one-shot update counts the one route it changed.
TEST(RolloverController, WatchAdoptsAOneShotUpdateAfterAHupWarm) {
  fs::path dir = MakeScratchDir();
  ScratchDirGuard cleanup{dir};
  std::string image_path = (dir / "routes.pari").string();
  std::vector<InputFile> files = GatewayFiles(dir);
  InitImage(files, image_path, /*generation=*/1);
  RolloverController controller(ServingOptions(image_path, files));
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  exec::FrozenBatchEngine* engine = controller.engine();

  files[0].content = "hub\tmid(100), gw(50), newa(1)\n";
  WriteMapFiles(files);
  std::string detail;
  ASSERT_EQ(controller.ReloadFromSources(&detail), ReloadOutcome::kApplied) << detail;
  ASSERT_EQ(controller.engine(), engine) << detail;
  std::vector<std::string> warm = InternedNames(*controller.routes());
  Warm(&controller, warm);

  files[1].content += "mid\tleafz(5)\n";
  UpdateReport update = OneShotUpdate(image_path, {files[1]});
  ASSERT_EQ(update.outcome, UpdateOutcome::kPublished) << update.error;
  EXPECT_EQ(update.stats.routes_changed, 1u);
  ASSERT_EQ(controller.CheckImage(&detail), ReloadOutcome::kApplied) << detail;
  EXPECT_EQ(controller.engine(), engine) << detail;
  EXPECT_EQ(detail, "image replaced");
  ExpectAnswersLikeTheImageOnDisk(&controller, image_path, warm);
}

// Nothing survives a failed publish: the retry loads the state again, sees the
// edit again, republishes and adopts into the same engine.
TEST(RolloverController, FailedPublishThenRetryRepublishesWarm) {
  fs::path dir = MakeScratchDir();
  ScratchDirGuard cleanup{dir};
  std::string image_path = (dir / "routes.pari").string();
  std::vector<InputFile> files = GatewayFiles(dir);
  InitImage(files, image_path, /*generation=*/1);
  RolloverController controller(ServingOptions(image_path, files));
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  exec::FrozenBatchEngine* engine = controller.engine();

  files[0].content = "hub\tmid(100), gw(50), newa(1)\n";
  WriteMapFiles(files);
  std::string detail;
  ASSERT_EQ(controller.ReloadFromSources(&detail), ReloadOutcome::kApplied) << detail;

  files[1].content += "mid\tleafz(5)\n";
  WriteMapFiles(files);
  ASSERT_TRUE(support::failpoint::Arm("image.publish.rename", "once,errno:ENOSPC"));
  EXPECT_EQ(controller.ReloadFromSources(&detail), ReloadOutcome::kError);
  EXPECT_NE(detail.find("cannot rewrite"), std::string::npos) << detail;
  support::failpoint::Reset();
  EXPECT_EQ(controller.generation(), 1u);

  ASSERT_EQ(controller.ReloadFromSources(&detail), ReloadOutcome::kApplied) << detail;
  EXPECT_EQ(controller.engine(), engine) << detail;
  EXPECT_EQ(controller.generation(), 2u);
  ExpectAnswersLikeTheImageOnDisk(&controller, image_path, {"leafz"});
  EXPECT_TRUE(controller.routes()->FindRouteView("leafz").ok());
}

// A torn pair (the image published, the state not) is healed by the next SIGHUP
// when every kept source reads: it re-reads the kept file the daemon does not
// list, so the edit the torn publish carried survives.  When a kept source does
// not read, nothing is published and the detail names it.
TEST(RolloverController, HupHealsATornPairOrNamesTheUnreadableSource) {
  fs::path dir = MakeScratchDir();
  ScratchDirGuard cleanup{dir};
  std::string image_path = (dir / "routes.pari").string();
  std::vector<InputFile> files = FilesA(dir);
  InitImage(files, image_path, /*generation=*/1);
  // The daemon lists core.map and mid.map; far.map is kept by the state only.
  RolloverController controller(
      ServingOptions(image_path, std::vector<InputFile>(files.begin(), files.begin() + 2)));
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  auto tear = [&](const std::string& far_content) {
    files[2].content = far_content;
    ASSERT_TRUE(support::failpoint::Arm("state.publish.rename", "always"));
    UpdateReport torn = OneShotUpdate(image_path, {files[2]});
    support::failpoint::Reset();
    ASSERT_EQ(torn.outcome, UpdateOutcome::kPublished) << torn.error;
    ASSERT_FALSE(torn.state_saved);
  };
  tear("far\thub(400), leafc(10), leafy(5)\nleafc\tfar(10)\n");

  files[1].content += "mid\tleafz(5)\n";
  WriteMapFiles(files);
  std::string detail;
  ASSERT_EQ(controller.ReloadFromSources(&detail), ReloadOutcome::kApplied) << detail;
  EXPECT_NE(detail.find("torn update?"), std::string::npos) << detail;
  EXPECT_EQ(controller.routes()->FindRouteView("leafy").route, "far!leafy!%s");
  EXPECT_EQ(controller.routes()->FindRouteView("leafz").route, "mid!leafz!%s");
  auto state = incr::LoadStateDir(image_path + ".state", &error);
  ASSERT_TRUE(state.has_value()) << error;
  auto disk = FrozenImage::Open(image_path, image::ImageView::Verify::kStructure, &error);
  ASSERT_TRUE(disk.has_value()) << error;
  EXPECT_EQ(state->image_generation, disk->view().header().generation) << "paired again";

  tear("far\thub(400), leafc(10), leafy(5), leafx(5)\nleafc\tfar(10)\n");
  ASSERT_EQ(controller.CheckImage(&detail), ReloadOutcome::kApplied) << detail;
  const uint64_t served = controller.generation();
  fs::remove(files[2].name);
  fs::create_directory(files[2].name);  // reads fail with EISDIR
  files[1].content += "mid\tleafw(5)\n";
  WriteMapFiles({files[1]});
  EXPECT_EQ(controller.ReloadFromSources(&detail), ReloadOutcome::kError);
  EXPECT_NE(detail.find(files[2].name), std::string::npos) << detail;
  EXPECT_NE(detail.find("nothing published"), std::string::npos) << detail;
  EXPECT_EQ(controller.generation(), served);
  EXPECT_FALSE(controller.routes()->FindRouteView("leafw").ok());
}

// Any image adopts into the serving engine: B holds A's routes, interned in
// another order, as `routedb freeze` of sorted pathalias output would publish
// them.  CheckImage applies B into the same engine, and the next batch of A's
// names answers as a resolver over B does.
TEST(RolloverController, AnImageInternedInAnotherOrderAdoptsWarm) {
  fs::path dir = MakeScratchDir();
  ScratchDirGuard cleanup{dir};
  std::string image_path = (dir / "routes.pari").string();
  std::vector<InputFile> files = GatewayFiles(dir);
  InitImage(files, image_path, /*generation=*/1);
  RolloverController controller(ServingOptions(image_path, files));
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  exec::FrozenBatchEngine* engine = controller.engine();
  std::vector<std::string> names = InternedNames(*controller.routes());
  Warm(&controller, names);

  const FrozenRouteSet& a = *controller.routes();
  RouteSet reordered;
  for (uint32_t i = a.size(); i-- > 0;) {
    RouteView route = a.RouteAt(i);
    reordered.Add(a.NameOf(route), route.route, route.cost);
  }
  ASSERT_NE(reordered.names().Find("hub"), a.names().Find("hub"));
  ASSERT_TRUE(image::ImageWriter::Refreeze(reordered, image_path));
  std::string detail;
  ASSERT_EQ(controller.CheckImage(&detail), ReloadOutcome::kApplied) << detail;
  EXPECT_EQ(detail, "image replaced");
  EXPECT_EQ(controller.engine(), engine) << detail;
  EXPECT_EQ(controller.RetireDrained(), 1u);
  ExpectAnswersLikeTheImageOnDisk(&controller, image_path, names);
}

// A dotted name brings its domain suffixes into the id space (a.x.com brings
// .x.com and .com), and a fresh id space holds them too, so they are not dead
// names: on a map of fully qualified hosts, where most names carry no route,
// every SIGHUP keeps the engine.
TEST(RolloverController, SuffixNamesOfFullyQualifiedHostsAreNotDead) {
  fs::path dir = MakeScratchDir();
  ScratchDirGuard cleanup{dir};
  std::string image_path = (dir / "routes.pari").string();
  std::vector<InputFile> files = {{(dir / "core.map").string(), "hub\ta.x.com(10), b.y.org(10)\n"}};
  InitImage(files, image_path, /*generation=*/1);
  RolloverController controller(ServingOptions(image_path, files));
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;
  ASSERT_EQ(controller.routes()->names().size(), 7u);
  ASSERT_EQ(controller.routes()->size(), 3u);
  exec::FrozenBatchEngine* engine = controller.engine();
  std::vector<std::string> warm = InternedNames(*controller.routes());
  Warm(&controller, warm);

  // The added hosts emit before b.y.org, so numbering names afresh would move it.
  for (const char* added : {", aa.z.net(10)", ", ab.w.edu(10)"}) {
    files[0].content.insert(files[0].content.size() - 1, added);
    WriteMapFiles(files);
    std::string detail;
    ASSERT_EQ(controller.ReloadFromSources(&detail), ReloadOutcome::kApplied) << detail;
    EXPECT_EQ(controller.engine(), engine) << detail;
    EXPECT_EQ(detail, "image replaced; 1 route(s) changed");
  }
  EXPECT_EQ(controller.routes()->names().size(), 13u);
  ExpectAnswersLikeTheImageOnDisk(&controller, image_path, warm);
}

TEST(RolloverController, ReloadWithoutMapFilesIsAnError) {
  fs::path dir = MakeScratchDir();
  ScratchDirGuard cleanup{dir};
  std::string image_path = (dir / "routes.pari").string();
  InitImage(FilesA(dir), image_path);

  RolloverOptions options;
  options.image_path = image_path;  // map_files intentionally empty
  RolloverController controller(options);
  std::string error;
  ASSERT_TRUE(controller.Start(&error)) << error;

  std::string detail;
  EXPECT_EQ(controller.ReloadFromSources(&detail), ReloadOutcome::kError);
  EXPECT_EQ(controller.generation(), 0u);
}

}  // namespace
}  // namespace net
}  // namespace pathalias
