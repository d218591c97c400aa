#include "src/route_db/route_db.h"

#include <gtest/gtest.h>

#include <string>

namespace pathalias {
namespace {

TEST(RouteSet, FromTextTwoColumnLayout) {
  RouteSet set = RouteSet::FromText("unc\t%s\nduke\tduke!%s\n");
  EXPECT_EQ(set.size(), 2u);
  ASSERT_NE(set.Find("duke"), nullptr);
  EXPECT_EQ(set.Find("duke")->route, "duke!%s");
  EXPECT_EQ(set.Find("duke")->cost, -1) << "no cost column";
}

TEST(RouteSet, FromTextThreeColumnLayout) {
  RouteSet set = RouteSet::FromText("0\tunc\t%s\n500\tduke\tduke!%s\n");
  ASSERT_NE(set.Find("duke"), nullptr);
  EXPECT_EQ(set.Find("duke")->cost, 500);
  EXPECT_EQ(set.Find("duke")->route, "duke!%s");
}

TEST(RouteSet, FromTextSkipsCommentsAndBlanks) {
  RouteSet set = RouteSet::FromText("# header\n\nhost\th!%s\n");
  EXPECT_EQ(set.size(), 1u);
}

TEST(RouteSet, MalformedLinesWarnAndSkip) {
  Diagnostics diag;
  RouteSet set = RouteSet::FromText("bad line without tabs\nx\ty!%s\nbad\ta\tb\tc\n", &diag);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(diag.warning_count(), 2);
}

TEST(RouteSet, BadCostColumnWarns) {
  Diagnostics diag;
  RouteSet set = RouteSet::FromText("notanumber\thost\troute!%s\n", &diag);
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(diag.warning_count(), 1);
}

// FromText loads 16 lines at a time; these place repeats and bad lines across and
// inside those windows.
TEST(RouteSet, FromTextRepeatAcrossAWindowBoundaryReplaces) {
  std::string text;
  for (int line = 1; line <= 40; ++line) {
    if (line == 3 || line == 17 || line == 33) {
      text += std::to_string(line) + "\trepeat\tvia" + std::to_string(line) + "!%s\n";
    } else {
      text += std::to_string(line) + "\th" + std::to_string(line) + "\th!%s\n";
    }
  }
  RouteSet set = RouteSet::FromText(text);
  EXPECT_EQ(set.size(), 38u);
  ASSERT_NE(set.Find("repeat"), nullptr);
  EXPECT_EQ(set.Find("repeat")->route, "via33!%s");
  EXPECT_EQ(set.Find("repeat")->cost, 33);
  // The replaced route keeps its first line's place (and id).
  EXPECT_EQ(set.NameOf(set.routes()[2]), "repeat");
  EXPECT_EQ(set.NameOf(set.routes()[3]), "h4");
}

TEST(RouteSet, FromTextWarnsInLineOrderWithLineNumbers) {
  std::string text;
  for (int line = 1; line <= 36; ++line) {
    switch (line) {
      case 2:
        text += "no tabs here\n";
        break;
      case 5:
        text += "# a comment\n";
        break;
      case 6:
        text += "\n";
        break;
      case 9:
      case 16:
      case 17:
        text += "cost?\th" + std::to_string(line) + "\th!%s\n";
        break;
      case 30:
        text += "1\t2\t3\t4\n";
        break;
      default:
        text += "h" + std::to_string(line) + "\th!%s\n";
    }
  }
  Diagnostics diag;
  RouteSet set = RouteSet::FromText(text, &diag);
  EXPECT_EQ(set.size(), 29u);
  EXPECT_EQ(diag.ToString(),
            "<routes>:2: warning: malformed route line skipped\n"
            "<routes>:9: warning: malformed cost column; line skipped\n"
            "<routes>:16: warning: malformed cost column; line skipped\n"
            "<routes>:17: warning: malformed cost column; line skipped\n"
            "<routes>:30: warning: malformed route line skipped\n");
}

TEST(RouteSet, LaterAddReplaces) {
  RouteSet set;
  set.Add("h", "old!%s", 10);
  set.Add("h", "new!%s", 5);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.Find("h")->route, "new!%s");
  EXPECT_EQ(set.Find("h")->cost, 5);
}

TEST(RouteSet, ToTextRoundTrip) {
  RouteSet set;
  set.Add("a", "%s", 0);
  set.Add("b", "b!%s", 100);
  std::string text = set.ToText(/*include_costs=*/true);
  EXPECT_EQ(text, "0\ta\t%s\n100\tb\tb!%s\n");
  RouteSet reparsed = RouteSet::FromText(text);
  EXPECT_EQ(reparsed.size(), 2u);
  EXPECT_EQ(reparsed.Find("b")->cost, 100);
}

TEST(RouteSet, FromEntriesCopiesEverything) {
  std::vector<RouteEntry> entries{{"x", "x!%s", 42}, {"y", "y!%s", 7}};
  RouteSet set = RouteSet::FromEntries(entries);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.Find("x")->cost, 42);
}

}  // namespace
}  // namespace pathalias
