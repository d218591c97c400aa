#include "src/route_db/route_db.h"

#include <gtest/gtest.h>

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
