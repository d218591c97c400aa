// Experiment E1: the cost symbol table (Table 1 of the paper) and the expression
// language over it.

#include "src/graph/cost.h"

#include <gtest/gtest.h>

namespace pathalias {
namespace {

struct SymbolCase {
  std::string_view name;
  Cost value;
};

// Printed into the discovered test name; see ExprCase's PrintTo below for why.
void PrintTo(const SymbolCase& c, std::ostream* os) {
  *os << '"' << c.name << "\" = " << c.value;
}

class CostSymbolTest : public ::testing::TestWithParam<SymbolCase> {};

TEST_P(CostSymbolTest, MatchesPaperTable) {
  auto value = LookupCostSymbol(GetParam().name);
  ASSERT_TRUE(value.has_value()) << GetParam().name;
  EXPECT_EQ(*value, GetParam().value);
}

// The exact table from page 3 of the paper.
INSTANTIATE_TEST_SUITE_P(Table1, CostSymbolTest,
                         ::testing::Values(SymbolCase{"LOCAL", 25}, SymbolCase{"DEDICATED", 95},
                                           SymbolCase{"DIRECT", 200}, SymbolCase{"DEMAND", 300},
                                           SymbolCase{"HOURLY", 500}, SymbolCase{"EVENING", 1800},
                                           SymbolCase{"POLLED", 5000}, SymbolCase{"DAILY", 5000},
                                           SymbolCase{"WEEKLY", 30000}),
                         [](const auto& info) { return std::string(info.param.name); });

TEST(CostSymbols, DailyIsTenTimesHourlyNotTwentyFour) {
  // "DAILY is 10 times greater than HOURLY, instead of 24" — per-hop overhead dominates.
  EXPECT_EQ(*LookupCostSymbol("DAILY"), 10 * *LookupCostSymbol("HOURLY"));
}

TEST(CostSymbols, LookupIsCaseSensitive) {
  EXPECT_FALSE(LookupCostSymbol("daily").has_value());
  EXPECT_FALSE(LookupCostSymbol("Daily").has_value());
}

TEST(CostSymbols, DeadIsEssentiallyInfinite) {
  EXPECT_EQ(*LookupCostSymbol("DEAD"), kInfinity);
}

struct ExprCase {
  std::string_view text;
  Cost expected;
};

// gtest prints a parameter into the discovered test name.  Without this it dumps the
// struct's raw bytes, whose string_view pointer moves with address-space randomisation,
// so every build would name these tests differently.
void PrintTo(const ExprCase& c, std::ostream* os) {
  *os << '"' << c.text << "\" = " << c.expected;
}

class CostExprTest : public ::testing::TestWithParam<ExprCase> {};

TEST_P(CostExprTest, Evaluates) {
  CostParse parsed = EvalCostExpression(GetParam().text);
  ASSERT_TRUE(parsed.value.has_value()) << GetParam().text << ": " << parsed.error;
  EXPECT_EQ(*parsed.value, GetParam().expected) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Expressions, CostExprTest,
    ::testing::Values(ExprCase{"10", 10}, ExprCase{"0", 0}, ExprCase{"HOURLY", 500},
                      // The paper's own examples:
                      ExprCase{"HOURLY*3", 1500}, ExprCase{"DAILY/2", 2500},
                      ExprCase{"HOURLY*4", 2000},
                      // Arithmetic structure:
                      ExprCase{"1+2*3", 7}, ExprCase{"(1+2)*3", 9}, ExprCase{"10-4-3", 3},
                      ExprCase{"100/10/2", 5}, ExprCase{"-5+10", 5}, ExprCase{"+25", 25},
                      ExprCase{"DEMAND+LOCAL", 325}, ExprCase{"WEEKLY-DAILY*2", 20000},
                      ExprCase{"((DEDICATED))", 95}, ExprCase{" 1 + 2 ", 3},
                      ExprCase{"DAILY/2+HOURLY", 3000}, ExprCase{"7/2", 3}));

TEST(CostExpr, RejectsUnknownSymbols) {
  CostParse parsed = EvalCostExpression("FORTNIGHTLY");
  EXPECT_FALSE(parsed.value.has_value());
  EXPECT_NE(parsed.error.find("FORTNIGHTLY"), std::string::npos);
}

TEST(CostExpr, RejectsDivisionByZero) {
  EXPECT_FALSE(EvalCostExpression("10/0").value.has_value());
  EXPECT_FALSE(EvalCostExpression("10/(5-5)").value.has_value());
}

TEST(CostExpr, RejectsMalformedInput) {
  for (std::string_view bad : {"", "()", "1+", "*3", "(1", "1)", "1 2", "1//2", "&", "1+@"}) {
    EXPECT_FALSE(EvalCostExpression(bad).value.has_value()) << bad;
  }
}

TEST(CostExpr, RejectsOverflow) {
  EXPECT_FALSE(EvalCostExpression("999999999999999999999").value.has_value());
  EXPECT_FALSE(
      EvalCostExpression("1000000000000*1000000000000").value.has_value());
}

TEST(CostExpr, NegativeResultsAreRepresentable) {
  // adjust {host(-50)} needs negative values; link costs reject them elsewhere.
  CostParse parsed = EvalCostExpression("-50");
  ASSERT_TRUE(parsed.value.has_value());
  EXPECT_EQ(*parsed.value, -50);
}

TEST(CostExpr, DivisionTruncatesTowardZero) {
  EXPECT_EQ(*EvalCostExpression("-7/2").value, -3);
}

}  // namespace
}  // namespace pathalias
