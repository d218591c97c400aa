// Black-box tests of the command-line tools, exercising the same binaries a
// downstream user runs.  Binary locations are injected by CMake.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

namespace pathalias {
namespace {

namespace fs = std::filesystem;

struct CommandResult {
  int status = -1;
  std::string output;  // stdout + stderr
};

CommandResult RunCommand(const std::string& command) {
  CommandResult result;
  std::string wrapped = command + " 2>&1";
  FILE* pipe = popen(wrapped.c_str(), "r");
  if (pipe == nullptr) {
    return result;
  }
  std::array<char, 4096> buffer;
  size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  result.status = pclose(pipe);
  return result;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("pathalias_cli_test_" + std::to_string(getpid()));
    fs::create_directories(dir_);
    map_path_ = (dir_ / "paper.map").string();
    std::ofstream map(map_path_);
    map << "unc\tduke(HOURLY), phs(HOURLY*4)\n"
           "duke\tunc(DEMAND), research(DAILY/2), phs(DEMAND)\n"
           "phs\tunc(HOURLY*4), duke(HOURLY)\n"
           "research\tduke(DEMAND), ucbvax(DEMAND)\n"
           "ucbvax\tresearch(DAILY)\n"
           "ARPA = @{mit-ai, ucbvax, stanford}(DEDICATED)\n";
  }

  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string map_path_;
};

TEST_F(CliTest, PathaliasReproducesPaperOutput) {
  CommandResult result =
      RunCommand(std::string(PATHALIAS_BIN) + " -c -l unc " + map_path_);
  EXPECT_EQ(result.status, 0);
  EXPECT_EQ(result.output,
            "0\tunc\t%s\n"
            "500\tduke\tduke!%s\n"
            "800\tphs\tduke!phs!%s\n"
            "3000\tresearch\tduke!research!%s\n"
            "3300\tucbvax\tduke!research!ucbvax!%s\n"
            "3395\tmit-ai\tduke!research!ucbvax!%s@mit-ai\n"
            "3395\tstanford\tduke!research!ucbvax!%s@stanford\n");
}

TEST_F(CliTest, PathaliasReadsStdin) {
  CommandResult result =
      RunCommand("printf 'a\\tb(10)\\n' | " + std::string(PATHALIAS_BIN) + " -l a");
  EXPECT_EQ(result.status, 0);
  EXPECT_EQ(result.output, "a\t%s\nb\tb!%s\n");
}

TEST_F(CliTest, PathaliasCommandLineDeadLink) {
  // -d duke!research kills the cheap relay; research must reroute via phs... there is
  // no phs!research link, so it still goes duke!research at a penalty — instead check
  // a simpler kill: dead phs forces the direct unc route to cost 2000.
  CommandResult result = RunCommand(std::string(PATHALIAS_BIN) + " -c -l unc -d duke!phs " +
                                    map_path_);
  EXPECT_EQ(result.status, 0);
  EXPECT_NE(result.output.find("2000\tphs\tphs!%s\n"), std::string::npos) << result.output;
}

TEST_F(CliTest, PathaliasVerboseStats) {
  CommandResult result =
      RunCommand(std::string(PATHALIAS_BIN) + " -v -l unc " + map_path_ + " -o /dev/null");
  EXPECT_EQ(result.status, 0);
  EXPECT_NE(result.output.find("heap pushes"), std::string::npos);
  EXPECT_NE(result.output.find("mapped"), std::string::npos);
}

TEST_F(CliTest, PathaliasRejectsUnknownOption) {
  CommandResult result = RunCommand(std::string(PATHALIAS_BIN) + " --bogus");
  EXPECT_NE(result.status, 0);
  EXPECT_NE(result.output.find("usage"), std::string::npos);
}

TEST_F(CliTest, PathaliasOutputFile) {
  std::string out = (dir_ / "routes.txt").string();
  CommandResult result =
      RunCommand(std::string(PATHALIAS_BIN) + " -l unc -o " + out + " " + map_path_);
  EXPECT_EQ(result.status, 0);
  std::ifstream in(out);
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_EQ(first_line, "unc\t%s");
}

// The database build step is `routedb freeze`: the .pari image is the one format.
TEST_F(CliTest, RoutedbBuildGetResolveRoundTrip) {
  std::string routes = (dir_ / "routes.txt").string();
  std::string pari = (dir_ / "routes.pari").string();
  ASSERT_EQ(RunCommand(std::string(PATHALIAS_BIN) + " -c -l unc -o " + routes + " " +
                       map_path_)
                .status,
            0);
  CommandResult freeze =
      RunCommand(std::string(ROUTEDB_BIN) + " freeze " + routes + " " + pari);
  EXPECT_EQ(freeze.status, 0);
  EXPECT_NE(freeze.output.find("7 routes"), std::string::npos) << freeze.output;

  CommandResult get = RunCommand(std::string(ROUTEDB_BIN) + " get " + pari + " phs");
  EXPECT_EQ(get.status, 0);
  EXPECT_EQ(get.output, "duke!phs!%s\n");

  CommandResult missing = RunCommand(std::string(ROUTEDB_BIN) + " get " + pari + " nowhere");
  EXPECT_NE(missing.status, 0);

  CommandResult resolve =
      RunCommand(std::string(ROUTEDB_BIN) + " resolve " + pari + " 'mit-ai!honey'");
  EXPECT_EQ(resolve.status, 0);
  EXPECT_NE(resolve.output.find("duke!research!ucbvax!honey@mit-ai"), std::string::npos)
      << resolve.output;

  std::string hosts = (dir_ / "hosts.txt").string();
  {
    std::ofstream out(hosts);
    out << "phs\nnowhere\nmit-ai\n";
  }
  CommandResult batch =
      RunCommand(std::string(ROUTEDB_BIN) + " batch " + pari + " " + hosts);
  EXPECT_EQ(batch.status, 0);
  EXPECT_NE(batch.output.find("phs\tphs"), std::string::npos) << batch.output;
  EXPECT_NE(batch.output.find("nowhere\t*miss*"), std::string::npos) << batch.output;
}

// A malformed route line is skipped, as pathalias skips a bad declaration, but
// not silently: the warning names the input file and line, the image is still
// published, and the exit status says the input was not clean.
TEST_F(CliTest, RoutedbFreezeReportsSkippedLinesAndExitsOne) {
  std::string routes = (dir_ / "routes.txt").string();
  std::string pari = (dir_ / "routes.pari").string();
  {
    std::ofstream out(routes);
    out << "unc\t%s\nno tab on this line\nduke\tduke!%s\n";
  }
  CommandResult freeze =
      RunCommand(std::string(ROUTEDB_BIN) + " freeze " + routes + " " + pari);
  EXPECT_EQ(WEXITSTATUS(freeze.status), 1) << freeze.output;
  EXPECT_NE(freeze.output.find(routes + ":2: warning: malformed route line skipped"),
            std::string::npos)
      << freeze.output;
  EXPECT_NE(freeze.output.find("2 routes (2 names) frozen"), std::string::npos)
      << freeze.output;
  CommandResult get = RunCommand(std::string(ROUTEDB_BIN) + " get " + pari + " duke");
  EXPECT_EQ(get.status, 0);
  EXPECT_EQ(get.output, "duke!%s\n");

  // A write that fails says why.
  std::string unwritable = (dir_ / "no-such-dir" / "routes.pari").string();
  CommandResult failed =
      RunCommand(std::string(ROUTEDB_BIN) + " freeze " + routes + " " + unwritable);
  EXPECT_EQ(WEXITSTATUS(failed.status), 1) << failed.output;
  EXPECT_NE(failed.output.find("cannot write " + unwritable + ": "), std::string::npos)
      << failed.output;
}

TEST_F(CliTest, RoutedbFreezeAndImageBackedQueries) {
  std::string routes = (dir_ / "routes.txt").string();
  std::string pari = (dir_ / "routes.pari").string();
  ASSERT_EQ(RunCommand(std::string(PATHALIAS_BIN) + " -c -l unc -o " + routes + " " +
                       map_path_)
                .status,
            0);
  CommandResult freeze =
      RunCommand(std::string(ROUTEDB_BIN) + " freeze " + routes + " " + pari);
  EXPECT_EQ(freeze.status, 0);
  EXPECT_NE(freeze.output.find("frozen"), std::string::npos) << freeze.output;

  CommandResult get = RunCommand(std::string(ROUTEDB_BIN) + " get " + pari + " phs");
  EXPECT_EQ(get.status, 0);
  EXPECT_EQ(get.output, "duke!phs!%s\n");

  CommandResult resolve =
      RunCommand(std::string(ROUTEDB_BIN) + " resolve " + pari + " 'mit-ai!honey'");
  EXPECT_EQ(resolve.status, 0);
  EXPECT_NE(resolve.output.find("duke!research!ucbvax!honey@mit-ai"), std::string::npos)
      << resolve.output;

  // The acceptance bar: batch output from the image is byte-identical to what the
  // in-memory path produced on the same query stream (stdout only; the summary
  // line goes to stderr).
  std::string hosts = (dir_ / "hosts.txt").string();
  {
    std::ofstream out(hosts);
    out << "phs\nnowhere\nmit-ai\nducati.dealers.com\nresearch\n";
  }
  CommandResult image_batch = RunCommand("( " + std::string(ROUTEDB_BIN) + " batch " + pari +
                                         " " + hosts + " 2>/dev/null )");
  EXPECT_EQ(image_batch.status, 0);
  EXPECT_EQ(image_batch.output,
            "phs\tphs\nnowhere\t*miss*\nmit-ai\tmit-ai\nducati.dealers.com\t*miss*\n"
            "research\tresearch\n");

  // A truncated image is rejected up front, not half-served.
  std::string broken = (dir_ / "broken.pari").string();
  {
    std::ifstream in(pari, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(broken, std::ios::binary);
    out << bytes.substr(0, bytes.size() / 2);
  }
  CommandResult rejected = RunCommand(std::string(ROUTEDB_BIN) + " get " + broken + " phs");
  EXPECT_NE(rejected.status, 0);
  EXPECT_NE(rejected.output.find("cannot read"), std::string::npos) << rejected.output;
}

// The .pari image is the only database format: `routedb build` (the retired cdb
// writer) and --image (which chose between two formats) are usage errors.
TEST_F(CliTest, RoutedbBuildAndImageFlagAreUsageErrors) {
  std::string routes = (dir_ / "routes.txt").string();
  std::string pari = (dir_ / "routes.pari").string();
  ASSERT_EQ(RunCommand(std::string(PATHALIAS_BIN) + " -c -l unc -o " + routes + " " +
                       map_path_)
                .status,
            0);
  ASSERT_EQ(RunCommand(std::string(ROUTEDB_BIN) + " freeze " + routes + " " + pari).status,
            0);
  const std::string retired[] = {
      " build " + routes + " " + (dir_ / "routes.cdb").string(),
      " get --image " + pari + " phs",
      " resolve --image " + pari + " 'mit-ai!honey'",
      " batch --image " + pari + " < /dev/null",
  };
  for (const std::string& args : retired) {
    CommandResult result = RunCommand(std::string(ROUTEDB_BIN) + args);
    EXPECT_EQ(WEXITSTATUS(result.status), 2) << args;
    EXPECT_NE(result.output.find("usage"), std::string::npos) << args << ": " << result.output;
  }
  EXPECT_FALSE(fs::exists(dir_ / "routes.cdb"));
}

TEST_F(CliTest, RoutedbBatchThreadsAndCacheFlagsNeverChangeTheBytes) {
  // The sharded engine's CLI guarantee: any --threads/--cache-entries combination
  // emits byte-identical output, stderr summary included, on a stream where 90% of
  // the queries repeat a hot set.
  std::string routes = (dir_ / "routes.txt").string();
  std::string pari = (dir_ / "routes.pari").string();
  ASSERT_EQ(RunCommand(std::string(PATHALIAS_BIN) + " -c -l unc -o " + routes + " " +
                       map_path_)
                .status,
            0);
  ASSERT_EQ(RunCommand(std::string(ROUTEDB_BIN) + " freeze " + routes + " " + pari).status,
            0);

  std::string hosts = (dir_ / "hosts.txt").string();
  {
    const char* hot[] = {"phs", "duke", "research", "mit-ai", "ucbvax",
                         "phs", "duke", "research", "mit-ai"};
    std::ofstream out(hosts);
    for (int i = 0; i < 200; ++i) {
      if (i % 10 == 9) {
        out << "cold" << i << ".nowhere.example\n";  // the 10% that never repeats
      } else {
        out << hot[i % 9] << "\n";
      }
    }
  }

  CommandResult baseline =
      RunCommand(std::string(ROUTEDB_BIN) + " batch " + pari + " " + hosts);
  ASSERT_EQ(baseline.status, 0);
  EXPECT_NE(baseline.output.find("phs\tphs"), std::string::npos) << baseline.output;
  for (const char* flags : {"--threads 4", "--cache-entries 512",
                            "--threads 8 --cache-entries 512", "--threads 0",
                            "--threads 4 --cache-entries 512"}) {
    CommandResult run = RunCommand(std::string(ROUTEDB_BIN) + " batch " + flags + " " +
                                   pari + " " + hosts);
    EXPECT_EQ(run.status, 0) << flags;
    EXPECT_EQ(run.output, baseline.output) << flags;
  }

  // --stats is the opt-in exception: it adds the execution summary on stderr.
  CommandResult stats_run = RunCommand(std::string(ROUTEDB_BIN) +
                                       " batch --threads 2 --cache-entries 512 --stats " +
                                       pari + " " + hosts);
  EXPECT_EQ(stats_run.status, 0);
  EXPECT_NE(stats_run.output.find("2 shard(s)"), std::string::npos) << stats_run.output;
  EXPECT_NE(stats_run.output.find("cache hits"), std::string::npos) << stats_run.output;

  // The flags are batch-only.
  CommandResult misuse =
      RunCommand(std::string(ROUTEDB_BIN) + " get --threads 4 " + pari + " phs");
  EXPECT_NE(misuse.status, 0);
  EXPECT_NE(misuse.output.find("only applies to batch"), std::string::npos)
      << misuse.output;
}

TEST_F(CliTest, RoutedbBatchReportsMalformedLinesAndContinues) {
  std::string routes = (dir_ / "routes.txt").string();
  std::string pari = (dir_ / "routes.pari").string();
  ASSERT_EQ(RunCommand(std::string(PATHALIAS_BIN) + " -c -l unc -o " + routes + " " +
                       map_path_)
                .status,
            0);
  ASSERT_EQ(RunCommand(std::string(ROUTEDB_BIN) + " freeze " + routes + " " + pari).status,
            0);
  std::string hosts = (dir_ / "hosts.txt").string();
  {
    std::ofstream out(hosts);
    out << "phs\n"
           "not a hostname\n"   // line 2: embedded spaces
           "duke\n"
           "bad\thost\n"        // line 4: embedded tab
           "research\n";
  }
  CommandResult batch =
      RunCommand(std::string(ROUTEDB_BIN) + " batch " + pari + " " + hosts);
  EXPECT_EQ(batch.status, 0) << batch.output;
  // Every malformed line is pinpointed by number on stderr...
  EXPECT_NE(batch.output.find(hosts + ":2: malformed query"), std::string::npos)
      << batch.output;
  EXPECT_NE(batch.output.find(hosts + ":4: malformed query"), std::string::npos)
      << batch.output;
  // ...marked in the output stream at its original position (tabs sanitized so the
  // stream stays a 2-column TSV)...
  EXPECT_NE(batch.output.find("not a hostname\t*malformed*"), std::string::npos)
      << batch.output;
  EXPECT_NE(batch.output.find("bad?host\t*malformed*"), std::string::npos)
      << batch.output;
  // ...and the rest of the batch still resolves.
  EXPECT_NE(batch.output.find("phs\tphs"), std::string::npos) << batch.output;
  EXPECT_NE(batch.output.find("duke\tduke"), std::string::npos) << batch.output;
  EXPECT_NE(batch.output.find("research\tresearch"), std::string::npos) << batch.output;
  EXPECT_NE(batch.output.find("3/3 resolved, 2 malformed"), std::string::npos)
      << batch.output;
}

TEST_F(CliTest, MapgenSmallWritesParseableFiles) {
  std::string out_dir = (dir_ / "maps").string();
  CommandResult gen =
      RunCommand(std::string(MAPGEN_BIN) + " --small --seed 5 --dir " + out_dir);
  EXPECT_EQ(gen.status, 0);
  EXPECT_NE(gen.output.find("hosts"), std::string::npos);
  int file_count = 0;
  for (const auto& entry : fs::directory_iterator(out_dir)) {
    (void)entry;
    ++file_count;
  }
  EXPECT_EQ(file_count, 10);
  // The generated map must run through pathalias cleanly (warnings at most).
  CommandResult run =
      RunCommand(std::string(PATHALIAS_BIN) + " -o /dev/null " + out_dir + "/*.map");
  EXPECT_EQ(run.status, 0) << run.output;
}

TEST_F(CliTest, MapcheckPassesCleanMapAndFlagsBrokenOne) {
  CommandResult clean = RunCommand(std::string(MAPCHECK_BIN) + " " + map_path_);
  EXPECT_EQ(clean.status, 0) << clean.output;
  EXPECT_NE(clean.output.find("map audit:"), std::string::npos);

  std::string broken = (dir_ / "broken.map").string();
  {
    std::ofstream out(broken);
    out << "a\tb(25)\nb\ta(30000)\nhermit\n";
  }
  CommandResult flagged = RunCommand(std::string(MAPCHECK_BIN) + " -q " + broken);
  EXPECT_NE(flagged.status, 0);
  EXPECT_NE(flagged.output.find("isolated-host"), std::string::npos) << flagged.output;
  EXPECT_NE(flagged.output.find("asymmetric-cost"), std::string::npos);
}

TEST_F(CliTest, MapcheckAcceptsGeneratedMaps) {
  std::string out_dir = (dir_ / "gen").string();
  ASSERT_EQ(RunCommand(std::string(MAPGEN_BIN) + " --small --dir " + out_dir).status, 0);
  CommandResult result = RunCommand(std::string(MAPCHECK_BIN) + " " + out_dir + "/*.map");
  EXPECT_EQ(result.status, 0) << result.output;
}

TEST_F(CliTest, MapgenIsDeterministic) {
  CommandResult a = RunCommand(std::string(MAPGEN_BIN) + " --small --seed 9");
  CommandResult b = RunCommand(std::string(MAPGEN_BIN) + " --small --seed 9");
  EXPECT_EQ(a.output, b.output);
}

// Unknown-option parity: every tool must reject junk flags — single- and
// double-dash — with a usage error rather than treating them as paths.
TEST_F(CliTest, EveryToolRejectsUnknownOptions) {
  const std::pair<std::string, std::string> commands[] = {
      {"pathalias", std::string(PATHALIAS_BIN)},
      {"mapcheck", std::string(MAPCHECK_BIN)},
      {"mapgen", std::string(MAPGEN_BIN)},
      {"routedb get", std::string(ROUTEDB_BIN) + " get"},
      {"routedb batch", std::string(ROUTEDB_BIN) + " batch"},
      {"routedb update", std::string(ROUTEDB_BIN) + " update"},
  };
  for (const auto& [label, command] : commands) {
    for (const char* bogus : {"--bogus", "-zz"}) {
      CommandResult result = RunCommand(command + " " + bogus + " " + map_path_ +
                                        " < /dev/null");
      EXPECT_EQ(WEXITSTATUS(result.status), 2) << label << " " << bogus;
      EXPECT_NE(result.output.find(bogus), std::string::npos)
          << label << " should name the offending flag";
    }
  }
}

// routedbd's engine is fixed (one thread, a 4096-entry cache): its old engine
// flags are unknown options, refused before any image is opened.
TEST_F(CliTest, RoutedbdEngineFlagsAreUnknownOptions) {
  const std::pair<std::string, std::string> flags[] = {
      {"--threads", "2"}, {"--cache-entries", "4096"}, {"--cache-entries", "0"}};
  for (const auto& [flag, value] : flags) {
    CommandResult result = RunCommand(std::string(ROUTEDBD_BIN) + " --image " +
                                      (dir_ / "none.pari").string() + " --unix " +
                                      (dir_ / "d.sock").string() + " " + flag + " " + value);
    EXPECT_EQ(WEXITSTATUS(result.status), 2) << flag << " " << value << ": " << result.output;
    EXPECT_NE(result.output.find("unknown option " + flag), std::string::npos) << result.output;
  }
}

// `routedb update` counts the routes it changed against the image it replaces by
// name, so an image republished from scratch (`routedb freeze` of sorted
// pathalias output: other ids) still gets the true count, not every route.
TEST_F(CliTest, RoutedbUpdateCountsChangedRoutesAfterAFromScratchRepublish) {
  fs::path core = dir_ / "core.map";
  fs::path mid = dir_ / "mid.map";
  {
    std::ofstream out(core);
    out << "hub\tmid(100), far(400)\nfar\thub(400)\n";
  }
  {
    std::ofstream out(mid);
    out << "mid\thub(100), leafa(50), leafb(60)\n";
  }
  std::string image = (dir_ / "routes.pari").string();
  std::string routes = (dir_ / "sorted.txt").string();
  ASSERT_EQ(RunCommand(std::string(ROUTEDB_BIN) + " update --init --local hub " + image + " " +
                       core.string() + " " + mid.string())
                .status,
            0);
  ASSERT_EQ(RunCommand(std::string(PATHALIAS_BIN) + " -c -l hub " + core.string() + " " +
                       mid.string() + " | sort > " + routes)
                .status,
            0);
  CommandResult freeze = RunCommand(std::string(ROUTEDB_BIN) + " freeze " + routes + " " + image);
  ASSERT_EQ(freeze.status, 0) << freeze.output;

  {
    std::ofstream out(mid, std::ios::trunc);
    out << "mid\thub(100), leafa(50), leafb(60), leafc(70)\n";
  }
  CommandResult update =
      RunCommand(std::string(ROUTEDB_BIN) + " update " + image + " " + mid.string());
  EXPECT_EQ(WEXITSTATUS(update.status), 0) << update.output;
  EXPECT_NE(update.output.find("1 route(s) changed, 6 total"), std::string::npos)
      << update.output;
}

TEST_F(CliTest, RoutedbUpdatePatchesImageInPlace) {
  // Split map: one file per site so a 1-file edit is a genuine partial reparse.
  fs::path core = dir_ / "core.map";
  fs::path mid = dir_ / "mid.map";
  {
    std::ofstream out(core);
    out << "hub\tmid(100), far(400)\nfar\thub(400)\n";
  }
  {
    std::ofstream out(mid);
    out << "mid\thub(100), leafa(50), leafb(60)\n";
  }
  fs::path image = dir_ / "routes.pari";
  CommandResult init = RunCommand(std::string(ROUTEDB_BIN) + " update --init --local hub " +
                                  image.string() + " " + core.string() + " " + mid.string());
  EXPECT_EQ(WEXITSTATUS(init.status), 0) << init.output;
  ASSERT_TRUE(fs::exists(image));
  ASSERT_TRUE(fs::exists(dir_ / "routes.pari.state" / "manifest"));

  CommandResult before = RunCommand(std::string(ROUTEDB_BIN) + " get " +
                                    image.string() + " far");
  EXPECT_EQ(before.output, "far!%s\n");

  // Recost the far link so the route flips through mid... no — cheapen it directly.
  {
    std::ofstream out(core, std::ios::trunc);
    out << "hub\tmid(100), far(150)\nfar\thub(150)\n";
  }
  CommandResult update = RunCommand(std::string(ROUTEDB_BIN) + " update " + image.string() +
                                    " " + core.string());
  EXPECT_EQ(WEXITSTATUS(update.status), 0) << update.output;
  EXPECT_NE(update.output.find("rebuilt (1 file(s) changed"), std::string::npos)
      << update.output;

  // The refrozen image serves the updated cost; batch output matches a fresh
  // pathalias over the edited inputs.
  CommandResult plain = RunCommand(std::string(PATHALIAS_BIN) + " -c -l hub " +
                                   core.string() + " " + mid.string());
  EXPECT_NE(plain.output.find("150\tfar"), std::string::npos);
  CommandResult batch = RunCommand("printf 'far\\nleafa\\nnowhere\\n' | " +
                                   std::string(ROUTEDB_BIN) + " batch " +
                                   image.string());
  EXPECT_NE(batch.output.find("far\tfar"), std::string::npos);
  EXPECT_NE(batch.output.find("leafa\tleafa"), std::string::npos);
  EXPECT_NE(batch.output.find("nowhere\t*miss*"), std::string::npos);

  // Removing a file is an update too.
  CommandResult removal = RunCommand(std::string(ROUTEDB_BIN) + " update --remove " +
                                     mid.string() + " " + image.string());
  EXPECT_EQ(WEXITSTATUS(removal.status), 0) << removal.output;
  CommandResult gone = RunCommand(std::string(ROUTEDB_BIN) + " get " +
                                  image.string() + " leafa");
  EXPECT_NE(WEXITSTATUS(gone.status), 0);

  // Without an initialized state dir the update refuses with guidance.
  CommandResult uninitialized = RunCommand(std::string(ROUTEDB_BIN) + " update " +
                                           (dir_ / "other.pari").string());
  EXPECT_NE(WEXITSTATUS(uninitialized.status), 0);
  EXPECT_NE(uninitialized.output.find("--init"), std::string::npos);
}

// A map source that cannot be read is an error, never an empty map.  A
// directory opens, and only the read fails (EISDIR), so a reader that ignores
// read errors recorded `sub/` as an empty source and exited 0.
TEST_F(CliTest, UnreadableMapSourceIsAnErrorNotAnEmptyMap) {
  const std::string routedb = ROUTEDB_BIN;
  fs::path core = dir_ / "core.map";
  {
    std::ofstream out(core);
    out << "hub\tmid(100)\nmid\thub(100)\n";
  }
  fs::path sub = dir_ / "sub";
  fs::create_directories(sub);
  const std::string sources = core.string() + " " + sub.string() + "/";
  fs::path image = dir_ / "routes.pari";

  CommandResult init =
      RunCommand(routedb + " update --init --local hub " + image.string() + " " + sources);
  EXPECT_EQ(WEXITSTATUS(init.status), 1) << init.output;
  EXPECT_NE(init.output.find(sub.string()), std::string::npos) << init.output;
  EXPECT_NE(init.output.find("Is a directory"), std::string::npos) << init.output;
  EXPECT_FALSE(fs::exists(image)) << "nothing may be published";
  EXPECT_FALSE(fs::exists(dir_ / "routes.pari.state"));

  CommandResult plain = RunCommand(std::string(PATHALIAS_BIN) + " " + sources);
  EXPECT_EQ(WEXITSTATUS(plain.status), 1) << plain.output;
  EXPECT_NE(plain.output.find("Is a directory"), std::string::npos) << plain.output;
  CommandResult check = RunCommand(std::string(MAPCHECK_BIN) + " " + sources);
  EXPECT_EQ(WEXITSTATUS(check.status), 2) << check.output;
  CommandResult freeze = RunCommand(routedb + " freeze " + sub.string() + " " +
                                    (dir_ / "frozen.pari").string());
  EXPECT_EQ(WEXITSTATUS(freeze.status), 1) << freeze.output;
  EXPECT_FALSE(fs::exists(dir_ / "frozen.pari"));

  // An update offered an unreadable file publishes nothing either.
  ASSERT_EQ(WEXITSTATUS(RunCommand(routedb + " update --init --local hub " +
                                   image.string() + " " + core.string())
                            .status),
            0);
  CommandResult update =
      RunCommand(routedb + " update " + image.string() + " " + sub.string());
  EXPECT_EQ(WEXITSTATUS(update.status), 1) << update.output;
  EXPECT_NE(update.output.find("Is a directory"), std::string::npos) << update.output;
}

// Regression: healing a torn image/state pair must keep the edits the torn
// publish already put in the image.  The healing update re-reads every source
// the state names, and publishes nothing when one of them is gone.
TEST_F(CliTest, RoutedbUpdateHealsATornPairWithoutDroppingEdits) {
  fs::path core = dir_ / "core.map";
  fs::path mid = dir_ / "mid.map";
  fs::path far = dir_ / "far.map";
  auto write = [](const fs::path& path, const char* text, std::ios::openmode mode) {
    std::ofstream out(path, mode);
    out << text;
  };
  write(core, "hub\tmid(100), far(400)\n", std::ios::trunc);
  write(mid, "mid\thub(100), leafa(50)\n", std::ios::trunc);
  write(far, "far\thub(400)\n", std::ios::trunc);
  fs::path image = dir_ / "routes.pari";
  const std::string routedb = ROUTEDB_BIN;
  const std::string torn_update =
      "PATHALIAS_FAILPOINTS=state.publish.rename=always " + routedb + " update " +
      image.string() + " ";
  CommandResult init = RunCommand(routedb + " update --init --local hub " + image.string() +
                                  " " + core.string() + " " + mid.string() + " " +
                                  far.string());
  ASSERT_EQ(WEXITSTATUS(init.status), 0) << init.output;

  // The image publish lands and the state publish fails: the pair tears.
  write(mid, "mid\tleafz(5)\n", std::ios::app);
  CommandResult torn = RunCommand(torn_update + mid.string());
  EXPECT_EQ(WEXITSTATUS(torn.status), 1) << torn.output;
  EXPECT_EQ(RunCommand(routedb + " get " + image.string() + " leafz").output,
            "mid!leafz!%s\n");

  // The next update names another file only, and must keep leafz.
  write(far, "far\tleafy(5)\n", std::ios::app);
  CommandResult heal = RunCommand(routedb + " update " + image.string() + " " + far.string());
  EXPECT_EQ(WEXITSTATUS(heal.status), 0) << heal.output;
  EXPECT_NE(heal.output.find("torn update?"), std::string::npos) << heal.output;
  EXPECT_EQ(RunCommand(routedb + " get " + image.string() + " leafz").output,
            "mid!leafz!%s\n");
  EXPECT_EQ(RunCommand(routedb + " get " + image.string() + " leafy").output,
            "far!leafy!%s\n");

  // Tear again, then lose a source the state names: nothing is published.
  write(mid, "mid\tleafw(5)\n", std::ios::app);
  torn = RunCommand(torn_update + mid.string());
  ASSERT_EQ(WEXITSTATUS(torn.status), 1) << torn.output;
  auto read_bytes = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  std::string image_before = read_bytes(image);
  fs::remove(core);
  write(far, "far\tleafv(5)\n", std::ios::app);
  CommandResult refused =
      RunCommand(routedb + " update " + image.string() + " " + far.string());
  EXPECT_EQ(WEXITSTATUS(refused.status), 1) << refused.output;
  EXPECT_NE(refused.output.find(core.string()), std::string::npos) << refused.output;
  EXPECT_TRUE(read_bytes(image) == image_before) << "the image was republished";
}

TEST_F(CliTest, RoutedbUpdateWithNothingToDoLeavesImageUntouched) {
  fs::path image = dir_ / "routes.pari";
  CommandResult init = RunCommand(std::string(ROUTEDB_BIN) + " update --init --local unc " +
                                  image.string() + " " + map_path_);
  ASSERT_EQ(WEXITSTATUS(init.status), 0) << init.output;
  fs::path manifest = dir_ / "routes.pari.state" / "manifest";
  ASSERT_TRUE(fs::exists(manifest));

  auto read_bytes = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  std::string image_before = read_bytes(image);
  auto image_mtime = fs::last_write_time(image);
  auto manifest_mtime = fs::last_write_time(manifest);

  CommandResult noop = RunCommand(std::string(ROUTEDB_BIN) + " update " + image.string());
  EXPECT_EQ(WEXITSTATUS(noop.status), 0) << noop.output;
  EXPECT_NE(noop.output.find("nothing to do"), std::string::npos) << noop.output;
  // The retired --stats is refused before anything is read or written.
  CommandResult noop_stats =
      RunCommand(std::string(ROUTEDB_BIN) + " update --stats " + image.string());
  EXPECT_EQ(WEXITSTATUS(noop_stats.status), 2) << noop_stats.output;
  EXPECT_NE(noop_stats.output.find("unknown option --stats"), std::string::npos)
      << noop_stats.output;
  // Neither refrozen nor re-saved: bytes AND mtimes are exactly as the init left
  // them (a rewrite-with-identical-bytes would still bump the timestamps).
  EXPECT_EQ(read_bytes(image), image_before);
  EXPECT_EQ(fs::last_write_time(image), image_mtime);
  EXPECT_EQ(fs::last_write_time(manifest), manifest_mtime);

  // The fast path must not swallow flag validation: a conflicting --local still
  // errors even with no changed files.
  CommandResult conflict = RunCommand(std::string(ROUTEDB_BIN) + " update --local elsewhere " +
                                      image.string());
  EXPECT_NE(WEXITSTATUS(conflict.status), 0);
  EXPECT_NE(conflict.output.find("re-run --init"), std::string::npos) << conflict.output;

  // --stats is refused on the init path too.
  CommandResult init_stats = RunCommand(std::string(ROUTEDB_BIN) + " update --init --stats " +
                                        image.string() + " " + map_path_);
  EXPECT_EQ(WEXITSTATUS(init_stats.status), 2);
  EXPECT_NE(init_stats.output.find("--stats"), std::string::npos) << init_stats.output;
}

// `routedb update` has no --stats: it is a usage error like any unknown option
// (the image is left alone), and the same alias + dead edit applies without it.
TEST_F(CliTest, RoutedbUpdateStatsFlagIsAUsageError) {
  fs::path core = dir_ / "core.map";
  fs::path nick = dir_ / "nick.map";
  {
    std::ofstream out(core);
    out << "hub\tmid(100)\nmid\thub(100), leafa(50)\n";
  }
  {
    std::ofstream out(nick);
    out << "leafa\tmid(50)\n";
  }
  fs::path image = dir_ / "routes.pari";
  ASSERT_EQ(WEXITSTATUS(RunCommand(std::string(ROUTEDB_BIN) + " update --init --local hub " +
                                   image.string() + " " + core.string() + " " +
                                   nick.string())
                            .status),
            0);
  {
    std::ofstream out(nick, std::ios::trunc);
    out << "leafa\tmid(50)\nleafa = nicka\ndead {leafa!mid}\n";
  }
  CommandResult refused = RunCommand(std::string(ROUTEDB_BIN) + " update --stats " +
                                     image.string() + " " + nick.string());
  EXPECT_EQ(WEXITSTATUS(refused.status), 2) << refused.output;
  EXPECT_NE(refused.output.find("unknown option --stats"), std::string::npos)
      << refused.output;
  EXPECT_NE(refused.output.find("usage"), std::string::npos) << refused.output;
  EXPECT_NE(WEXITSTATUS(RunCommand(std::string(ROUTEDB_BIN) + " get " + image.string() +
                                   " nicka")
                            .status),
            0);

  CommandResult update = RunCommand(std::string(ROUTEDB_BIN) + " update " + image.string() +
                                    " " + nick.string());
  EXPECT_EQ(WEXITSTATUS(update.status), 0) << update.output;
  // The nickname's route serves from the refrozen image.
  CommandResult get = RunCommand(std::string(ROUTEDB_BIN) + " get " + image.string() +
                                 " nicka");
  EXPECT_EQ(WEXITSTATUS(get.status), 0) << get.output;
}

// An update prints and counts the diagnostics of the build it publishes only:
// an error fixed on disk is gone, even though the kept state still has it.
TEST_F(CliTest, RoutedbUpdateDropsTheErrorsOfAFixedFile) {
  const std::string routedb = ROUTEDB_BIN;
  fs::path core = dir_ / "core.map";
  fs::path mid = dir_ / "mid.map";
  fs::path image = dir_ / "routes.pari";
  auto write = [](const fs::path& path, const char* text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  };
  write(core, "hub\tmid(100), far(400)\n");
  write(mid, "mid\thub(100), leafa(50)\nmid\t(((broken\n");
  CommandResult init = RunCommand(routedb + " update --init --local hub " + image.string() +
                                  " " + core.string() + " " + mid.string());
  EXPECT_EQ(WEXITSTATUS(init.status), 1) << init.output;
  EXPECT_NE(init.output.find("mid.map:2: error"), std::string::npos) << init.output;

  // core.map need not stay on disk: the state keeps its bytes.
  fs::remove(core);
  write(mid, "mid\thub(100), leafa(50)\n");
  CommandResult fixed =
      RunCommand(routedb + " update " + image.string() + " " + mid.string());
  EXPECT_EQ(WEXITSTATUS(fixed.status), 0) << fixed.output;
  EXPECT_EQ(fixed.output.find("error"), std::string::npos) << fixed.output;
  EXPECT_EQ(RunCommand(routedb + " get " + image.string() + " far").output, "far!%s\n");
}

// A broken file the state keeps, left alone while another file changes, is
// reported once per update (not once per build the update ran) and still fails
// the exit status.
TEST_F(CliTest, RoutedbUpdateReportsAnUntouchedBrokenFileOnce) {
  const std::string routedb = ROUTEDB_BIN;
  fs::path core = dir_ / "core.map";
  fs::path mid = dir_ / "mid.map";
  fs::path image = dir_ / "routes.pari";
  auto write = [](const fs::path& path, const char* text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  };
  write(core, "hub\tmid(100), far(400)\n");
  write(mid, "mid\thub(100), leafa(50)\nmid\t(((broken\n");
  ASSERT_EQ(WEXITSTATUS(RunCommand(routedb + " update --init --local hub " +
                                   image.string() + " " + core.string() + " " +
                                   mid.string())
                            .status),
            1);

  write(core, "hub\tmid(100), far(300)\n");
  CommandResult other =
      RunCommand(routedb + " update " + image.string() + " " + core.string());
  EXPECT_EQ(WEXITSTATUS(other.status), 1) << other.output;
  size_t first = other.output.find("mid.map:2: error");
  ASSERT_NE(first, std::string::npos) << other.output;
  EXPECT_EQ(other.output.find("mid.map:2: error", first + 1), std::string::npos)
      << other.output;
  EXPECT_NE(other.output.find("1 parse error(s)"), std::string::npos) << other.output;
}

// Offering a file whose bytes did not change publishes nothing: the image keeps
// its inode and mtime and the manifest its bytes, so a watching daemon has no
// new image to adopt.
TEST_F(CliTest, RoutedbUpdateOfAnUnchangedFileLeavesImageAndStateUntouched) {
  const std::string routedb = ROUTEDB_BIN;
  fs::path core = dir_ / "core.map";
  fs::path gw = dir_ / "gw.map";
  {
    std::ofstream out(core);
    out << "hub\tmid(100)\nmid\thub(100)\n";
  }
  {
    std::ofstream out(gw);
    out << "hub\tgw(50)\ngw\thub(50)\n";
  }
  fs::path image = dir_ / "routes.pari";
  fs::path manifest = dir_ / "routes.pari.state" / "manifest";
  ASSERT_EQ(WEXITSTATUS(RunCommand(routedb + " update --init --local hub " + image.string() +
                                   " " + core.string() + " " + gw.string())
                            .status),
            0);
  auto read_bytes = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  struct stat before {};
  ASSERT_EQ(::stat(image.c_str(), &before), 0);
  auto image_mtime = fs::last_write_time(image);
  std::string manifest_before = read_bytes(manifest);

  CommandResult noop = RunCommand(routedb + " update " + image.string() + " " + gw.string());
  EXPECT_EQ(WEXITSTATUS(noop.status), 0) << noop.output;
  EXPECT_NE(noop.output.find("nothing to do"), std::string::npos) << noop.output;
  struct stat after {};
  ASSERT_EQ(::stat(image.c_str(), &after), 0);
  EXPECT_EQ(after.st_ino, before.st_ino);
  EXPECT_EQ(fs::last_write_time(image), image_mtime);
  EXPECT_EQ(read_bytes(manifest), manifest_before);
}

// A --remove must name a file the state keeps, spelled as the manifest spells
// it; otherwise the update fails, names the file, and publishes nothing.
TEST_F(CliTest, RoutedbUpdateRemoveOfAnUnknownFileIsAnError) {
  const std::string in_dir = "cd " + dir_.string() + " && " + ROUTEDB_BIN;
  {
    std::ofstream out(dir_ / "core.map");
    out << "hub\tmid(100)\nmid\thub(100)\n";
  }
  {
    std::ofstream out(dir_ / "gw.map");
    out << "hub\tgw(50)\ngw\thub(50)\n";
  }
  fs::path image = dir_ / "routes.pari";
  ASSERT_EQ(
      WEXITSTATUS(RunCommand(in_dir + " update --init --local hub routes.pari core.map gw.map")
                      .status),
      0);
  struct stat before {};
  ASSERT_EQ(::stat(image.c_str(), &before), 0);

  for (const char* name : {"nosuch.map", "./gw.map"}) {
    CommandResult removal =
        RunCommand(in_dir + " update --remove " + name + " routes.pari");
    EXPECT_EQ(WEXITSTATUS(removal.status), 1) << name << ": " << removal.output;
    EXPECT_NE(removal.output.find(std::string("--remove ") + name), std::string::npos)
        << removal.output;
    struct stat after {};
    ASSERT_EQ(::stat(image.c_str(), &after), 0);
    EXPECT_EQ(after.st_ino, before.st_ino) << name << ": the image was republished";
  }
  EXPECT_EQ(RunCommand(in_dir + " get routes.pari gw").output, "gw!%s\n");

  // The manifest's own spelling removes the file.
  CommandResult removal = RunCommand(in_dir + " update --remove gw.map routes.pari");
  EXPECT_EQ(WEXITSTATUS(removal.status), 0) << removal.output;
  EXPECT_NE(WEXITSTATUS(RunCommand(in_dir + " get routes.pari gw").status), 0);
}

// Numeric-flag parsing parity: junk, negative, overflow, and out-of-bounds operands
// must produce a named-flag diagnostic and exit 2 — never an uncaught exception
// (mapgen --seed used to die on std::stoull) and never silent truncation.
TEST_F(CliTest, NumericFlagOperandsAreValidatedEverywhere) {
  struct Case {
    std::string label;
    std::string command;
    std::string flag;  // must appear in the diagnostic
  };
  const Case cases[] = {
      {"mapgen seed junk", std::string(MAPGEN_BIN) + " --small --seed junk", "--seed"},
      {"mapgen seed trailing", std::string(MAPGEN_BIN) + " --small --seed 12abc", "--seed"},
      {"mapgen seed negative", std::string(MAPGEN_BIN) + " --small --seed -3", "--seed"},
      {"mapgen seed overflow",
       std::string(MAPGEN_BIN) + " --small --seed 99999999999999999999999", "--seed"},
      {"batch threads junk",
       std::string(ROUTEDB_BIN) + " batch --threads abc db < /dev/null", "--threads"},
      {"batch threads negative",
       std::string(ROUTEDB_BIN) + " batch --threads -2 db < /dev/null", "--threads"},
      {"batch threads overflow",
       std::string(ROUTEDB_BIN) + " batch --threads 99999999999999999999999 db < /dev/null",
       "--threads"},
      {"batch threads out of bounds",
       std::string(ROUTEDB_BIN) + " batch --threads 1000000 db < /dev/null", "--threads"},
      {"batch cache junk",
       std::string(ROUTEDB_BIN) + " batch --cache-entries 1x db < /dev/null",
       "--cache-entries"},
      {"batch cache negative",
       std::string(ROUTEDB_BIN) + " batch --cache-entries -1 db < /dev/null",
       "--cache-entries"},
      {"batch cache out of bounds",
       std::string(ROUTEDB_BIN) + " batch --cache-entries 1048577 db < /dev/null",
       "--cache-entries"},
  };
  for (const Case& test_case : cases) {
    CommandResult result = RunCommand(test_case.command);
    EXPECT_EQ(WEXITSTATUS(result.status), 2) << test_case.label << ": " << result.output;
    EXPECT_NE(result.output.find(test_case.flag), std::string::npos)
        << test_case.label << " should name the flag: " << result.output;
  }
}

TEST_F(CliTest, RoutedbBatchStreamsStdinInChunksWithIdenticalOutput) {
  // The bounded-memory contract: batch reads its input in fixed-size chunks (one
  // resolve per chunk, malformed lines interleaved back in position), and the
  // emitted bytes are identical at ANY chunk size — including a stdin stream far
  // larger than a single chunk, and a pathological chunk of 1 line.
  std::string routes = (dir_ / "routes.txt").string();
  std::string pari = (dir_ / "routes.pari").string();
  ASSERT_EQ(RunCommand(std::string(PATHALIAS_BIN) + " -c -l unc -o " + routes + " " +
                       map_path_)
                .status,
            0);
  ASSERT_EQ(RunCommand(std::string(ROUTEDB_BIN) + " freeze " + routes + " " + pari).status,
            0);

  std::string hosts = (dir_ / "hosts.txt").string();
  {
    const char* names[] = {"phs", "duke", "research", "mit-ai", "ucbvax", "stanford"};
    std::ofstream out(hosts);
    for (int i = 0; i < 5000; ++i) {
      if (i % 37 == 5) {
        out << "torn line " << i << "\n";  // malformed, interleaved mid-stream
      } else if (i % 11 == 3) {
        out << "stranger" << i << ".nowhere.example\n";
      } else {
        out << names[i % 6] << "\n";
      }
    }
  }

  CommandResult baseline =
      RunCommand(std::string(ROUTEDB_BIN) + " batch " + pari + " " + hosts);
  ASSERT_EQ(baseline.status, 0);
  EXPECT_NE(baseline.output.find("phs\tphs"), std::string::npos) << baseline.output;
  EXPECT_NE(baseline.output.find("torn line 5\t*malformed*"), std::string::npos)
      << baseline.output;

  for (const char* flags : {"--chunk-lines 1", "--chunk-lines 7", "--chunk-lines 512"}) {
    // 5000 lines through small chunks, streamed on stdin: the stderr line names
    // <stdin>, so compare stdout only against a stdout-only baseline (subshell:
    // RunCommand appends its own 2>&1, which must not resurrect stderr).
    CommandResult stream = RunCommand("( " + std::string(ROUTEDB_BIN) + " batch " + flags +
                                      " " + pari + " < " + hosts + " 2>/dev/null )");
    CommandResult file_baseline =
        RunCommand("( " + std::string(ROUTEDB_BIN) + " batch " + pari + " " + hosts +
                   " 2>/dev/null )");
    EXPECT_EQ(stream.status, 0) << flags;
    EXPECT_EQ(stream.output, file_baseline.output) << flags;
  }

  CommandResult bad =
      RunCommand(std::string(ROUTEDB_BIN) + " batch --chunk-lines junk " + pari +
                 " < /dev/null");
  EXPECT_EQ(WEXITSTATUS(bad.status), 2);
  EXPECT_NE(bad.output.find("--chunk-lines"), std::string::npos) << bad.output;
}

}  // namespace
}  // namespace pathalias
