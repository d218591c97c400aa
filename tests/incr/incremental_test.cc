// Unit tests for the incremental pipeline's pieces: the MapBuilder's update path,
// id-by-id comparison, resume and diagnostics, and state-dir persistence.  The
// randomized-edit equivalence property lives in incremental_fuzz_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "src/core/pathalias.h"
#include "src/incr/map_builder.h"
#include "src/incr/state_dir.h"
#include "src/mapgen/mapgen.h"
#include "src/route_db/route_db.h"

namespace pathalias {
namespace incr {
namespace {

namespace fs = std::filesystem;

// The canonical form every equivalence check compares: what a from-scratch pipeline
// over `files` emits, as a name-sorted route list.
std::string ReferenceSortedRoutes(const std::vector<InputFile>& files,
                                  const std::string& local) {
  Diagnostics diag;
  RunOptions options;
  options.local = local;
  RunResult result = pathalias::Run(files, options, &diag);
  return RouteSet::FromEntries(result.routes).ToSortedText(/*include_costs=*/true);
}

std::string BuilderSortedRoutes(const MapBuilder& builder) {
  return builder.routes().ToSortedText(/*include_costs=*/true);
}

// The builder must build the same routes the batch pipeline does — across the
// full declaration surface the synthetic generator exercises (nets, domains,
// aliases, private collisions, dead links).
TEST(MapBuilder, BuildMatchesBatchRunOnGeneratedMap) {
  GeneratedMap map = GenerateUsenetMap(MapGenConfig::Small());
  std::string reference = ReferenceSortedRoutes(map.files, map.local);

  MapBuilder builder(MapBuilderOptions{.local = map.local});
  ASSERT_TRUE(builder.Build(map.files));
  EXPECT_EQ(BuilderSortedRoutes(builder), reference);
  EXPECT_FALSE(reference.empty());
}

// An update renumbers its emission in the previous routes' id space and compares
// the two sets id by id: an identical route is not dirty, an erased name keeps
// its id, and a re-add dirties that id again.
TEST(MapBuilder, UpdateDirtiesChangedIdsAndKeepsErasedIds) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build({{"core.map", "hub\ta(10), b(20), c(30)\n"}}));
  const NameInterner& names = builder.routes().names();
  const NameId a = names.Find("a");
  const NameId b = names.Find("b");
  const NameId c = names.Find("c");
  ASSERT_NE(c, kNoName);

  UpdateStats stats = builder.Update({{"core.map", "hub\ta(10), b(25), d(40)\n"}});
  const NameId d = builder.routes().names().Find("d");
  ASSERT_NE(d, kNoName);
  EXPECT_EQ(builder.routes().names().Find("a"), a);
  EXPECT_EQ(builder.routes().names().Find("c"), c) << "an erased name keeps its id";
  EXPECT_GT(d, c) << "a new name appends";
  EXPECT_EQ(builder.routes().Find(c), nullptr);
  EXPECT_EQ(builder.routes().Find(b)->cost, 25);
  std::vector<NameId> expected = {b, c, d};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(builder.dirty_route_ids(), expected) << "a and hub are identical: not dirty";
  EXPECT_EQ(stats.routes_changed, 3u);

  builder.Update({{"core.map", "hub\ta(10), b(25), c(31), d(40)\n"}});
  EXPECT_EQ(builder.dirty_route_ids(), std::vector<NameId>{c}) << "a re-add dirties the same id";
  EXPECT_EQ(builder.routes().Find(c)->route, "c!%s");
}

// A builder resumed over an image's id space compiles on its first Update, even
// with no edit, and numbers every name the id space holds as it does.
TEST(MapBuilder, ResumeNumbersNamesAsTheGivenIdSpace) {
  std::vector<InputFile> files = {{"core.map", "hub\tmid(100), gw(50)\n"},
                                  {"gw.map", "gw\t.rutgers.edu(10)\n.rutgers.edu\tcaip(0)\n"}};
  MapBuilder served(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(served.Build(files));
  const NameInterner& ids = served.routes().names();

  MapBuilder resumed(MapBuilderOptions{.local = "hub"});
  resumed.Resume(served.artifacts(), ids);
  UpdateStats stats = resumed.Update({});
  EXPECT_FALSE(stats.patched) << "a resumed builder has compiled nothing yet";
  ASSERT_TRUE(resumed.valid());
  EXPECT_EQ(BuilderSortedRoutes(resumed), BuilderSortedRoutes(served));
  EXPECT_EQ(resumed.routes().names().size(), ids.size());

  MapBuilder edited(MapBuilderOptions{.local = "hub"});
  edited.Resume(served.artifacts(), ids);
  files[1].content += "gw\tnewhost(5)\n";
  edited.Update({files[1]});
  ASSERT_TRUE(edited.valid());
  EXPECT_EQ(BuilderSortedRoutes(edited), ReferenceSortedRoutes(files, "hub"));
  ASSERT_GT(edited.routes().names().size(), ids.size());
  for (NameId id = 0; id < ids.size(); ++id) {
    EXPECT_EQ(edited.routes().names().View(id), ids.View(id)) << id;
  }
  EXPECT_EQ(edited.routes().names().Find("newhost"), ids.size());
}

// Every case pins an update's routes to a from-scratch run over the edited inputs.
// The names date from an in-place patch path that has since been retired; each
// edit shape they name still has to land byte-identical through the rebuild.
class MapBuilderPatchTest : public ::testing::Test {
 protected:
  // A three-file map with an unambiguous tree and room to edit.
  std::vector<InputFile> Files(Cost far_cost) {
    return {
        {"core.map", "hub\tmid(100), far(" + std::to_string(far_cost) + ")\n"},
        {"mid.map", "mid\thub(100), leafa(50), leafb(60)\n"},
        {"far.map", "far\thub(400), leafc(10)\nleafc\tfar(10)\n"},
    };
  }

  void ExpectGolden(const MapBuilder& builder, const std::vector<InputFile>& files) {
    EXPECT_EQ(BuilderSortedRoutes(builder), ReferenceSortedRoutes(files, "hub"));
  }
};

TEST_F(MapBuilderPatchTest, RecostPatchesInPlace) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(Files(400)));
  ExpectGolden(builder, Files(400));

  std::vector<InputFile> edited = Files(200);
  UpdateStats stats = builder.Update({edited[0]});
  EXPECT_EQ(stats.files_changed, 1u);
  ExpectGolden(builder, edited);

  // The dirty id list names exactly the changed routes.
  for (NameId id : builder.dirty_route_ids()) {
    EXPECT_NE(builder.routes().names().View(id), "");
  }
}

TEST_F(MapBuilderPatchTest, UnchangedDigestSkipsReparse) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(Files(400)));
  UpdateStats stats = builder.Update({Files(400)[0]});
  EXPECT_TRUE(stats.patched);  // nothing changed, so nothing rebuilt
  EXPECT_EQ(stats.files_changed, 0u);
  EXPECT_EQ(stats.files_unchanged, 1u);
  EXPECT_EQ(stats.routes_changed, 0u);
}

TEST_F(MapBuilderPatchTest, AddAndRemoveHostsAndFiles) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));

  // Add a new leaf with a return link.
  files[1].content = "mid\thub(100), leafa(50), leafb(60), leafd(70)\nleafd\tmid(70)\n";
  builder.Update({files[1]});
  ExpectGolden(builder, files);

  // Remove it again: its node is orphaned and its route must vanish.
  files[1].content = "mid\thub(100), leafa(50), leafb(60)\n";
  builder.Update({files[1]});
  ExpectGolden(builder, files);

  // Add a whole new file, then remove it.
  InputFile extra{"extra.map", "mid\tleafe(5)\nleafe\tmid(5)\n"};
  files.push_back(extra);
  builder.Update({extra});
  ExpectGolden(builder, files);

  files.pop_back();
  builder.Update({}, {"extra.map"});
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, RenameHostPatches) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));

  files[2].content = "far\thub(400), leafz(10)\nleafz\tfar(10)\n";
  builder.Update({files[2]});
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, AliasEditsPatchInPlace) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));

  // Adding an alias: the nickname's route appears and matches far's.
  files[2].content = "far\thub(400), leafc(10)\nleafc\tfar(10)\nfar = faraway\n";
  builder.Update({files[2]});
  ASSERT_NE(builder.routes().Find("faraway"), nullptr);
  EXPECT_EQ(builder.routes().Find("faraway")->route, builder.routes().Find("far")->route);
  ExpectGolden(builder, files);

  // A plain edit with the alias still in the map ...
  files[0].content = "hub\tmid(100), far(350)\n";
  builder.Update({files[0]});
  ExpectGolden(builder, files);

  // ... and removing the alias takes the nickname's route away again.
  files[2].content = "far\thub(400), leafc(10)\nleafc\tfar(10)\n";
  builder.Update({files[2]});
  EXPECT_EQ(builder.routes().Find("faraway"), nullptr);
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, KeywordDeclarationEditsPatchInPlace) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));

  // dead {hub!far} penalizes the direct link; far re-routes through mid.
  files[2].content = "far\thub(400), leafc(10)\nleafc\tfar(10)\ndead {hub!far}\n";
  builder.Update({files[2]});
  ExpectGolden(builder, files);

  // dead {mid} (terminal host) penalizes relaying through mid.
  files[1].content = "mid\thub(100), leafa(50), leafb(60)\ndead {mid}\n";
  builder.Update({files[1]});
  ExpectGolden(builder, files);

  // adjust {far(75)} biases every path through far.
  files[2].content = "far\thub(400), leafc(10)\nleafc\tfar(10)\nadjust {far(75)}\n";
  builder.Update({files[2]});
  ExpectGolden(builder, files);

  // gatewayed {far} + gateway {far!hub}: entry anywhere but hub's link costs extra.
  files[2].content =
      "far\thub(400), leafc(10)\nleafc\tfar(10)\ngatewayed {far}\ngateway {far!hub}\n";
  builder.Update({files[2]});
  ExpectGolden(builder, files);

  // delete {leafb} removes its route; undeleting restores it.
  files[1].content = "mid\thub(100), leafa(50), leafb(60)\ndelete {leafb}\n";
  builder.Update({files[1]});
  EXPECT_EQ(builder.routes().Find("leafb"), nullptr);
  ExpectGolden(builder, files);
  files[1].content = "mid\thub(100), leafa(50), leafb(60)\n";
  builder.Update({files[1]});
  EXPECT_NE(builder.routes().Find("leafb"), nullptr);
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, CrossReferencedEditsWidenTheSeedSetInsteadOfRefusing) {
  // A dead {hub!far} declaration lives in a file that never changes; editing the
  // referenced link's cost in ANOTHER file must keep the dead flag on the cheaper
  // link.
  std::vector<InputFile> files = Files(400);
  files.push_back({"marks.map", "dead {hub!far}\n"});
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));

  files[0].content = "hub\tmid(100), far(250)\n";
  builder.Update({files[0]});
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, NetMembershipCoincidenceComputesTheCombinedWinner) {
  // wan = {mid, far}(80) declares member→net and net→member edges that take part
  // in duplicate resolution with plain links.  A plain edit on the coinciding
  // (mid, wan) pair must land on the winner across both declaration kinds.
  std::vector<InputFile> files = Files(400);
  files.push_back({"nets.map", "wan = {mid, far}(80)\n"});
  files.push_back({"extra.map", "mid\twan(200)\n"});  // loses to the net's 80
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));

  files.back().content = "mid\twan(40)\n";  // now beats the net's 80
  builder.Update({files.back()});
  ExpectGolden(builder, files);

  files.back().content = "mid\twan(120)\n";  // back under the net's winner
  builder.Update({files.back()});
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, NetAndPrivateChangedFilesStillFallBack) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));

  files[2].content = "far\thub(400), leafc(10)\nleafc\tfar(10)\nlan = {far, leafc}(30)\n";
  UpdateStats stats = builder.Update({files[2]});
  EXPECT_FALSE(stats.patched);
  ExpectGolden(builder, files);

  files[1].content = "mid\thub(100), leafa(50), leafb(60)\nprivate {leafa}\n";
  stats = builder.Update({files[1]});
  EXPECT_FALSE(stats.patched);
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, AliasChainsPatchAndSurviveUnrelatedEdits) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));

  // A two-deep nickname chain lands in one update; both nicknames route like far.
  files[2].content =
      "far\thub(400), leafc(10)\nleafc\tfar(10)\nfar = faraway\nfaraway = farther\n";
  builder.Update({files[2]});
  ASSERT_NE(builder.routes().Find("farther"), nullptr);
  EXPECT_EQ(builder.routes().Find("farther")->route, builder.routes().Find("far")->route);
  ExpectGolden(builder, files);

  // A plain recost in ANOTHER file, with the chain untouched.
  files[0].content = "hub\tmid(100), far(120)\n";
  builder.Update({files[0]});
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, AmbiguousAliasTieFallsBackAndStaysGolden) {
  // nick is aliased to BOTH p1 and p2.  Once the edit makes p1 and p2 tie at equal
  // (cost, hops), nick's parent depends on alias-warped pop order; the update must
  // still land on the golden output.
  std::vector<InputFile> files = {
      {"f0.map", "hub\tp1(10), p2(20)\n"},
      {"f1.map", "p1\thub(10)\np2\thub(20)\nnick = p1\nnick = p2\n"},
  };
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));

  files[0].content = "hub\tp1(10), p2(10)\n";
  UpdateStats stats = builder.Update({files[0]});
  EXPECT_FALSE(stats.patched);
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, UnreachableRegionForcesRebuild) {
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));

  // leafc loses its only inbound path but keeps an outbound link: the map phase
  // invents a back link to reach it.
  files[2].content = "far\thub(400)\nleafc\tfar(10)\n";
  UpdateStats stats = builder.Update({files[2]});
  EXPECT_FALSE(stats.patched);
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, DefaultLocalTracksFirstHost) {
  // No explicit local: the first declared host is the source, and an edit that
  // changes it re-roots the map at the new source.
  MapBuilder builder(MapBuilderOptions{});
  std::vector<InputFile> files = Files(400);
  ASSERT_TRUE(builder.Build(files));
  EXPECT_EQ(builder.local_name(), "hub");

  files[0].content = "newhub\tmid(100)\nmid\tnewhub(100)\nhub\tmid(100), far(400)\n";
  UpdateStats stats = builder.Update({files[0]});
  EXPECT_FALSE(stats.patched);
  EXPECT_EQ(builder.local_name(), "newhub");
  EXPECT_EQ(BuilderSortedRoutes(builder), ReferenceSortedRoutes(files, "newhub"));
}

TEST_F(MapBuilderPatchTest, ImprovementReopensCleanRegion) {
  // y initially routes directly from hub (50); cheapening a's link to x makes the
  // path hub!a!x!y (25) win, far from the edited link — and y's subtree with it.
  std::vector<InputFile> files = {
      {"f0.map", "hub\ta(10), y(50)\n"},
      {"f1.map", "a\thub(10), x(50)\n"},
      {"f2.map", "x\ta(50), y(10)\ny\thub(50), yleaf(5)\nyleaf\ty(5)\n"},
  };
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));
  ASSERT_EQ(builder.routes().Find("y")->route, "y!%s");

  files[1].content = "a\thub(10), x(5)\n";
  builder.Update({files[1]});
  EXPECT_EQ(builder.routes().Find("y")->route, "a!x!y!%s");
  EXPECT_EQ(builder.routes().Find("yleaf")->route, "a!x!y!yleaf!%s");
  ExpectGolden(builder, files);
}

TEST_F(MapBuilderPatchTest, EqualCostTieReopensToExtractionOrderWinner) {
  // p1 and p2 offer z identical (cost, hops); a full run routes z via p1 (p1 pops
  // first: equal cost and hops, smaller name).  Knock p1 out, then restore it:
  // byte-identity demands the parent switch back to p1, not just the cost.
  std::vector<InputFile> files = {
      {"f0.map", "hub\tp1(10), p2(10)\n"},
      {"f1.map", "p1\thub(10), z(5)\np2\thub(10), z(5)\nz\tp1(5)\n"},
  };
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));
  ASSERT_EQ(builder.routes().Find("z")->route, "p1!z!%s");

  files[0].content = "hub\tp1(30), p2(10)\n";
  builder.Update({files[0]});
  EXPECT_EQ(builder.routes().Find("z")->route, "p2!z!%s");
  ExpectGolden(builder, files);

  files[0].content = "hub\tp1(10), p2(10)\n";
  builder.Update({files[0]});
  EXPECT_EQ(builder.routes().Find("z")->route, "p1!z!%s");
  ExpectGolden(builder, files);
}

// Each build's diagnostics replace the last: a long-lived builder must not
// accumulate every update's warnings.
TEST(MapBuilder, DiagnosticsDescribeOnlyTheLastBuild) {
  GeneratedMap map = GenerateUsenetMap(MapGenConfig::Small());
  MapBuilder builder(MapBuilderOptions{.local = map.local});
  ASSERT_TRUE(builder.Build(map.files));
  std::vector<InputFile> files = map.files;
  for (size_t step = 0; step < 20; ++step) {
    InputFile& edited = files[step % files.size()];
    edited.content += "edit" + std::to_string(step) + "\t" + map.local + "(" +
                      std::to_string(100 + step) + ")\n";
    builder.Update({edited});
    ASSERT_TRUE(builder.valid()) << step;
  }
  MapBuilder fresh(MapBuilderOptions{.local = map.local});
  ASSERT_TRUE(fresh.Build(files));
  EXPECT_GT(fresh.diag().diagnostics().size(), 0u);
  EXPECT_EQ(builder.diag().diagnostics().size(), fresh.diag().diagnostics().size());
  EXPECT_EQ(builder.diag().ToString(), fresh.diag().ToString());
}

TEST(Artifact, StoredParseErrorsSurviveReuse) {
  std::vector<InputFile> files = {{"broken.map", "hub\tleaf(10)\nbogus !!! line\n"},
                                  {"other.map", "leaf\thub(10)\n"}};
  MapBuilder builder(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(builder.Build(files));
  ASSERT_EQ(builder.diag().error_count(), 1);

  // A builder fed the saved sources (the state-dir load path) reports the error
  // again: a still-broken input must not decay into a silent success.  An edit
  // of another file reports it once more, not once per build the builder ran.
  MapBuilder restored(MapBuilderOptions{.local = "hub"});
  ASSERT_TRUE(restored.Build(builder.artifacts()));
  EXPECT_EQ(restored.diag().error_count(), 1);
  files[1].content = "leaf\thub(20)\n";
  restored.Update({files[1]});
  EXPECT_EQ(restored.diag().error_count(), 1);
  EXPECT_TRUE(restored.diag().Mentions("expected"));

  // Fixing the file clears its error.
  files[0].content = "hub\tleaf(10)\n";
  restored.Update({files[0]});
  EXPECT_EQ(restored.diag().error_count(), 0);
}

TEST(StateDir, SaveLoadRoundTripAndRejection) {
  GeneratedMap map = GenerateUsenetMap(MapGenConfig::Small());
  MapBuilder builder(MapBuilderOptions{.local = map.local});
  ASSERT_TRUE(builder.Build(map.files));

  fs::path dir = fs::temp_directory_path() / ("pathalias_state_test_" +
                                              std::to_string(::getpid()));
  fs::remove_all(dir);
  StateDirContents contents;
  contents.local = builder.local_name();
  contents.ignore_case = false;
  contents.artifacts = builder.artifacts();
  ASSERT_TRUE(SaveStateDir(dir.string(), contents));

  std::string error;
  std::optional<StateDirContents> loaded = LoadStateDir(dir.string(), &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->local, map.local);
  ASSERT_EQ(loaded->artifacts.size(), builder.artifacts().size());

  // A builder restored from the state dir produces identical routes.
  MapBuilder restored(MapBuilderOptions{.local = loaded->local});
  ASSERT_TRUE(restored.Build(std::move(loaded->artifacts)));
  EXPECT_EQ(BuilderSortedRoutes(restored), BuilderSortedRoutes(builder));

  // Corruption is refused, not misread.
  {
    std::ofstream manifest(dir / "manifest", std::ios::trunc);
    manifest << "not a manifest\n";
  }
  EXPECT_FALSE(LoadStateDir(dir.string(), &error).has_value());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace incr
}  // namespace pathalias
