#include "src/parser/parser.h"

#include <gtest/gtest.h>

#include "src/graph/graph.h"

namespace pathalias {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  Diagnostics diag;
  Graph graph{&diag};
  Parser parser{&graph};

  int Parse(std::string_view text, std::string_view file = "test.map") {
    return parser.ParseFile(InputFile{std::string(file), std::string(text)});
  }

  Link* FindLink(std::string_view from, std::string_view to) {
    Node* f = graph.Find(from);
    Node* t = graph.Find(to);
    return f == nullptr || t == nullptr ? nullptr : graph.FindLink(f, t);
  }
};

TEST_F(ParserTest, PaperDefaultSyntax) {
  // "a  b(10), c(20)" — UUCP convention, host on the left of '!'.
  Parse("a\tb(10), c(20)\n");
  Link* ab = FindLink("a", "b");
  ASSERT_NE(ab, nullptr);
  EXPECT_EQ(ab->cost, 10);
  EXPECT_EQ(ab->op, '!');
  EXPECT_FALSE(ab->right_syntax());
  Link* ac = FindLink("a", "c");
  ASSERT_NE(ac, nullptr);
  EXPECT_EQ(ac->cost, 20);
}

TEST_F(ParserTest, PaperArpanetSyntax) {
  // "a  @b(10), @c(20)" — host on the right of '@'.
  Parse("a\t@b(10), @c(20)\n");
  Link* ab = FindLink("a", "b");
  ASSERT_NE(ab, nullptr);
  EXPECT_EQ(ab->op, '@');
  EXPECT_TRUE(ab->right_syntax());
}

TEST_F(ParserTest, PaperExplicitDefaultSyntax) {
  // "a  b!(10), c!(20)" — the paper's explicit form of the default.
  Parse("a\tb!(10), c!(20)\n");
  Link* ab = FindLink("a", "b");
  ASSERT_NE(ab, nullptr);
  EXPECT_EQ(ab->op, '!');
  EXPECT_FALSE(ab->right_syntax());
}

TEST_F(ParserTest, ColonAndPercentOperators) {
  Parse("a\tb:(5), %c(6)\n");
  EXPECT_EQ(FindLink("a", "b")->op, ':');
  EXPECT_FALSE(FindLink("a", "b")->right_syntax());
  EXPECT_EQ(FindLink("a", "c")->op, '%');
  EXPECT_TRUE(FindLink("a", "c")->right_syntax());
}

TEST_F(ParserTest, MissingCostUsesDefault) {
  Parse("a\tb\n");
  ASSERT_NE(FindLink("a", "b"), nullptr);
  EXPECT_EQ(FindLink("a", "b")->cost, kDefaultCost);
}

TEST_F(ParserTest, CostExpressionsEvaluate) {
  Parse("unc\tduke(HOURLY), phs(HOURLY*4), research(DAILY/2)\n");
  EXPECT_EQ(FindLink("unc", "duke")->cost, 500);
  EXPECT_EQ(FindLink("unc", "phs")->cost, 2000);
  EXPECT_EQ(FindLink("unc", "research")->cost, 2500);
}

TEST_F(ParserTest, BadCostReportsErrorAndFallsBack) {
  Parse("a\tb(NONSUCH)\n");
  EXPECT_EQ(diag.error_count(), 1);
  ASSERT_NE(FindLink("a", "b"), nullptr);
  EXPECT_EQ(FindLink("a", "b")->cost, kDefaultCost);
}

// The parser keeps the last few cost bodies that evaluated; these pin that a kept
// body never changes what a line costs or what it reports.  The expected
// diagnostics are those the parser gave before it kept any body.
TEST_F(ParserTest, BadCostsReportAtTheirOwnLinesAroundKeptBodies) {
  Parse(
      "a\tb(DAILY), c(DAILY+)\n"  // a bad body right after a kept good one
      "d\te(DAILY)\n"
      "f\tg(BOGUS)\n"
      "h\ti(BOGUS), j(DAILY)\n"  // the same bad body again, then a kept one
      "k\tl(DAILY/0)\n",
      "memo.map");
  EXPECT_EQ(diag.ToString(),
            "memo.map:1: error: unexpected end of cost expression\n"
            "memo.map:3: error: unknown cost symbol 'BOGUS'\n"
            "memo.map:4: error: unknown cost symbol 'BOGUS'\n"
            "memo.map:5: error: division by zero in cost expression\n");
  EXPECT_EQ(FindLink("a", "b")->cost, 5000);
  EXPECT_EQ(FindLink("a", "c")->cost, kDefaultCost);
  EXPECT_EQ(FindLink("d", "e")->cost, 5000);
  EXPECT_EQ(FindLink("f", "g")->cost, kDefaultCost);
  EXPECT_EQ(FindLink("h", "i")->cost, kDefaultCost);
  EXPECT_EQ(FindLink("h", "j")->cost, 5000);
  EXPECT_EQ(FindLink("k", "l")->cost, kDefaultCost);
}

TEST_F(ParserTest, AdjustBodiesGoThroughTheKeptCosts) {
  Parse(
      "a\tb(HOURLY), c(-50)\n"
      "adjust {b(HOURLY), c(-50), d(HOURLY*2)}\n"
      "adjust {e(HOURLY*2), f(NONSUCH)}\n",
      "adjust.map");
  EXPECT_EQ(graph.Find("b")->adjust, 500);
  EXPECT_EQ(graph.Find("c")->adjust, -50);
  EXPECT_EQ(graph.Find("d")->adjust, 1000);
  EXPECT_EQ(graph.Find("e")->adjust, 1000);
  EXPECT_EQ(graph.Find("f")->adjust, 0);
  EXPECT_EQ(diag.ToString(),
            "adjust.map:1: warning: negative cost on link a!c clamped to 0\n"
            "adjust.map:3: error: unknown cost symbol 'NONSUCH'\n"
            "adjust.map:3: error: adjust requires a parenthesized cost, e.g. adjust "
            "{host(+100)}\n");
}

TEST_F(ParserTest, MoreDistinctCostBodiesThanTheParserKeeps) {
  // 20 distinct bodies, three rounds in alternating order: most lookups miss and
  // replace a kept body, and every link still gets its own body's value.
  std::string text;
  for (int round = 0; round < 3; ++round) {
    for (int step = 0; step < 20; ++step) {
      int i = round % 2 == 0 ? step : 19 - step;
      text += "r" + std::to_string(round) + "\th" + std::to_string(i) + "((" +
              std::to_string(i) + "+1)*10)\n";
    }
  }
  Parse(text);
  EXPECT_EQ(diag.ToString(), "");
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      Link* link = FindLink("r" + std::to_string(round), "h" + std::to_string(i));
      ASSERT_NE(link, nullptr);
      EXPECT_EQ(link->cost, (i + 1) * 10) << "round " << round << " host " << i;
    }
  }
}

TEST_F(ParserTest, OperatorsOnBothSidesRejected) {
  Parse("a\t@b!(10)\n");
  EXPECT_EQ(diag.error_count(), 1);
  EXPECT_EQ(FindLink("a", "b"), nullptr);
}

TEST_F(ParserTest, TrailingCommaContinuesOnNextLine) {
  Parse("a\tb(10),\n\tc(20)\nd\te(30)\n");
  EXPECT_NE(FindLink("a", "b"), nullptr);
  EXPECT_NE(FindLink("a", "c"), nullptr);
  EXPECT_NE(FindLink("d", "e"), nullptr);
  EXPECT_EQ(FindLink("a", "d"), nullptr);
}

TEST_F(ParserTest, BareHostDeclarationIsAccepted) {
  int accepted = Parse("loner\n");
  EXPECT_EQ(accepted, 1);
  EXPECT_NE(graph.Find("loner"), nullptr);
  EXPECT_EQ(diag.error_count(), 0);
}

TEST_F(ParserTest, NetworkDeclarationPaperForm) {
  Parse("UNC-dwarf = {dopey, grumpy, sleepy}(10)\n");
  Node* net = graph.Find("UNC-dwarf");
  ASSERT_NE(net, nullptr);
  EXPECT_TRUE(net->net());
  Link* on = FindLink("dopey", "UNC-dwarf");
  ASSERT_NE(on, nullptr);
  EXPECT_EQ(on->cost, 10);
  Link* off = FindLink("UNC-dwarf", "sleepy");
  ASSERT_NE(off, nullptr);
  EXPECT_EQ(off->cost, 0);
}

TEST_F(ParserTest, NetworkWithLeadingOperator) {
  Parse("ARPA = @{mit-ai, ucbvax}(DEDICATED)\n");
  Link* on = FindLink("mit-ai", "ARPA");
  ASSERT_NE(on, nullptr);
  EXPECT_EQ(on->op, '@');
  EXPECT_TRUE(on->right_syntax());
  EXPECT_EQ(on->cost, 95);
}

TEST_F(ParserTest, NetworkWithTrailingOperator) {
  Parse("LOCALNET = {a, b}:(LOCAL)\n");
  Link* on = FindLink("a", "LOCALNET");
  ASSERT_NE(on, nullptr);
  EXPECT_EQ(on->op, ':');
  EXPECT_FALSE(on->right_syntax());
}

TEST_F(ParserTest, NetworkMembersMaySpanLines) {
  Parse("NET = {a, b,\n\tc,\n\td}(10)\n");
  EXPECT_NE(FindLink("c", "NET"), nullptr);
  EXPECT_NE(FindLink("d", "NET"), nullptr);
}

TEST_F(ParserTest, NetworkWithoutCostUsesDefault) {
  Parse("NET = {a, b}\n");
  EXPECT_EQ(FindLink("a", "NET")->cost, kDefaultCost);
}

TEST_F(ParserTest, UnterminatedNetworkReportsError) {
  Parse("NET = {a, b\n");  // '}' never arrives; EOF inside member list
  EXPECT_GE(diag.error_count(), 1);
}

TEST_F(ParserTest, AliasDeclaration) {
  Parse("princeton = fun\n");
  Node* princeton = graph.Find("princeton");
  ASSERT_NE(princeton, nullptr);
  ASSERT_NE(princeton->links, nullptr);
  EXPECT_TRUE(princeton->links->alias());
  EXPECT_EQ(graph.NameOf(princeton->links->to), "fun");
}

TEST_F(ParserTest, PrivateDeclarationScopesToFile) {
  Parse("bilbo\tprinceton(10)\n", "first.map");
  Node* global_bilbo = graph.Find("bilbo");
  Parse("private {bilbo}\nbilbo\twiretap(10)\n", "second.map");
  // After both files: the global bilbo links to princeton only.
  Link* to_princeton = FindLink("bilbo", "princeton");
  ASSERT_NE(to_princeton, nullptr);
  EXPECT_EQ(FindLink("bilbo", "wiretap"), nullptr)
      << "the wiretap link belongs to the private bilbo";
  EXPECT_EQ(graph.Find("bilbo"), global_bilbo);
}

TEST_F(ParserTest, DeadHostAndDeadLink) {
  Parse("a\tb(10)\nb\tc(10)\ndead {c, a!b}\n");
  EXPECT_TRUE(graph.Find("c")->terminal());
  EXPECT_TRUE(FindLink("a", "b")->dead());
  EXPECT_FALSE(FindLink("b", "c")->dead());
}

TEST_F(ParserTest, DeleteDeclaration) {
  Parse("a\tb(10)\ndelete {b}\n");
  EXPECT_TRUE(graph.Find("b")->deleted());
}

TEST_F(ParserTest, AdjustDeclaration) {
  Parse("adjust {slow(+200), fast(-50)}\n");
  EXPECT_EQ(graph.Find("slow")->adjust, 200);
  EXPECT_EQ(graph.Find("fast")->adjust, -50);
}

TEST_F(ParserTest, AdjustWithoutCostIsAnError) {
  Parse("adjust {naked}\n");
  EXPECT_GE(diag.error_count(), 1);
}

TEST_F(ParserTest, GatewayedAndGatewayDeclarations) {
  Parse("gw\t@CSNET(DEMAND)\nother\t@CSNET(LOCAL)\ngatewayed {CSNET}\ngateway {CSNET!gw}\n");
  Node* net = graph.Find("CSNET");
  ASSERT_NE(net, nullptr);
  EXPECT_TRUE(net->gatewayed());
  EXPECT_TRUE(FindLink("gw", "CSNET")->gateway());
  EXPECT_FALSE(FindLink("other", "CSNET")->gateway());
}

TEST_F(ParserTest, KeywordNamesCanStillBeHosts) {
  // A host literally named "dead" (no brace follows) must parse as a host.
  Parse("dead\talive(10)\n");
  EXPECT_NE(FindLink("dead", "alive"), nullptr);
  EXPECT_EQ(diag.error_count(), 0);
}

TEST_F(ParserTest, ErrorRecoverySkipsOnlyTheBadLine) {
  Parse("good1\tx(10)\n= what\ngood2\ty(20)\n");
  EXPECT_GE(diag.error_count(), 1);
  EXPECT_NE(FindLink("good1", "x"), nullptr);
  EXPECT_NE(FindLink("good2", "y"), nullptr);
}

TEST_F(ParserTest, ErrorsCarryFileAndLine) {
  Parse("ok\ta(10)\nbroken\t(10)\n", "site.map");
  ASSERT_GE(diag.error_count(), 1);
  const Diagnostic& error = diag.diagnostics().front();
  EXPECT_EQ(error.pos.file, "site.map");
  EXPECT_EQ(error.pos.line, 2);
}

TEST_F(ParserTest, FirstHostIsTracked) {
  Parse("# comment first\n\nseismo\tihnp4(200)\n");
  EXPECT_EQ(parser.first_host(), "seismo");
}

TEST_F(ParserTest, FirstHostSkipsDomains) {
  Parse(".edu\tmember(0)\nreal\tx(10)\n");
  EXPECT_EQ(parser.first_host(), "real");
}

TEST_F(ParserTest, CommentsAndBlankLinesIgnored) {
  int accepted = Parse("# header\n\n\na\tb(10)\n# trailer\n");
  EXPECT_EQ(accepted, 1);
  EXPECT_EQ(diag.error_count(), 0);
}

TEST_F(ParserTest, AcceptedCountsDeclarations) {
  int accepted = Parse("a\tb(10)\nNET = {x, y}(5)\nprivate {z}\nc = d\n");
  EXPECT_EQ(accepted, 4);
}

TEST_F(ParserTest, EachCallCountsOnlyItsOwnDeclarations) {
  // ParseFile reports what it accepted from its own file, not a running total, and
  // ParseFiles sums the files it was given.
  EXPECT_EQ(Parse("a\tb(10)\n", "one.map"), 1);
  EXPECT_EQ(Parse("c\td(10)\n", "two.map"), 1);
  std::vector<InputFile> files{
      {"three.map", "e\tf(10)\n"}, {"four.map", "g\th(10)\n"}, {"five.map", "i\tj(10)\n"}};
  EXPECT_EQ(parser.ParseFiles(files), 3);
  EXPECT_EQ(Parse("k\tl(10)\nm\tn(10)\n", "six.map"), 2);
}

TEST_F(ParserTest, MultipleFilesAccumulate) {
  std::vector<InputFile> files{{"one.map", "a\tb(10)\n"}, {"two.map", "b\tc(20)\n"}};
  parser.ParseFiles(files);
  EXPECT_NE(FindLink("a", "b"), nullptr);
  EXPECT_NE(FindLink("b", "c"), nullptr);
  EXPECT_EQ(graph.files().size(), 2u);
}

TEST_F(ParserTest, DuplicateAcrossFilesIsQuietNote) {
  Parse("a\tb(300)\n", "one.map");
  Parse("a\tb(100)\n", "two.map");
  EXPECT_EQ(diag.warning_count(), 0) << "cross-file duplicates are normal";
  EXPECT_EQ(FindLink("a", "b")->cost, 100);
}

TEST_F(ParserTest, DuplicateWithinFileWarns) {
  Parse("a\tb(300)\na\tb(100)\n");
  EXPECT_EQ(diag.warning_count(), 1);
  EXPECT_EQ(FindLink("a", "b")->cost, 100);
}

}  // namespace
}  // namespace pathalias
