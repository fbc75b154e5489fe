#include "datalog/term.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/symbol_table.h"

namespace dqsq {
namespace {

class TermArenaTest : public ::testing::Test {
 protected:
  SymbolTable symbols_;
  TermArena arena_;
};

TEST_F(TermArenaTest, ConstantsAreHashConsed) {
  SymbolId a = symbols_.Intern("a");
  SymbolId b = symbols_.Intern("b");
  TermId ta = arena_.MakeConstant(a);
  TermId tb = arena_.MakeConstant(b);
  EXPECT_NE(ta, tb);
  EXPECT_EQ(arena_.MakeConstant(a), ta);
  EXPECT_TRUE(arena_.IsConstant(ta));
  EXPECT_FALSE(arena_.IsApp(ta));
  EXPECT_EQ(arena_.Symbol(ta), a);
  EXPECT_EQ(arena_.Depth(ta), 1u);
}

TEST_F(TermArenaTest, ApplicationsAreHashConsed) {
  SymbolId f = symbols_.Intern("f");
  TermId a = arena_.MakeConstant(symbols_.Intern("a"));
  TermId b = arena_.MakeConstant(symbols_.Intern("b"));
  std::vector<TermId> args{a, b};
  TermId fab = arena_.MakeApp(f, args);
  EXPECT_EQ(arena_.MakeApp(f, args), fab);
  std::vector<TermId> rev{b, a};
  EXPECT_NE(arena_.MakeApp(f, rev), fab);
  EXPECT_TRUE(arena_.IsApp(fab));
  ASSERT_EQ(arena_.Args(fab).size(), 2u);
  EXPECT_EQ(arena_.Args(fab)[0], a);
  EXPECT_EQ(arena_.Args(fab)[1], b);
  EXPECT_EQ(arena_.Depth(fab), 2u);
}

TEST_F(TermArenaTest, SameSymbolConstantAndNullaryAppDiffer) {
  SymbolId f = symbols_.Intern("f");
  TermId c = arena_.MakeConstant(f);
  TermId app = arena_.MakeApp(f, {});
  EXPECT_NE(c, app);
  EXPECT_TRUE(arena_.IsApp(app));
  EXPECT_FALSE(arena_.IsApp(c));
}

TEST_F(TermArenaTest, DepthOfNestedTerms) {
  SymbolId f = symbols_.Intern("f");
  SymbolId g = symbols_.Intern("g");
  TermId a = arena_.MakeConstant(symbols_.Intern("a"));
  TermId ga = arena_.MakeApp(g, {a});
  TermId fga = arena_.MakeApp(f, {ga, a});
  EXPECT_EQ(arena_.Depth(ga), 2u);
  EXPECT_EQ(arena_.Depth(fga), 3u);
}

TEST_F(TermArenaTest, ToStringRendersNesting) {
  SymbolId f = symbols_.Intern("f");
  SymbolId g = symbols_.Intern("g");
  TermId a = arena_.MakeConstant(symbols_.Intern("a"));
  TermId b = arena_.MakeConstant(symbols_.Intern("b"));
  TermId gb = arena_.MakeApp(g, {b});
  TermId t = arena_.MakeApp(f, {a, gb});
  EXPECT_EQ(arena_.ToString(t, symbols_), "f(a,g(b))");
  EXPECT_EQ(arena_.ToString(a, symbols_), "a");
}

TEST_F(TermArenaTest, ManyDistinctTermsStayDistinct) {
  SymbolId f = symbols_.Intern("f");
  TermId prev = arena_.MakeConstant(symbols_.Intern("seed"));
  std::vector<TermId> all{prev};
  for (int i = 0; i < 1000; ++i) {
    prev = arena_.MakeApp(f, {prev});
    all.push_back(prev);
  }
  EXPECT_EQ(arena_.Depth(prev), 1001u);
  // Rebuilding the same chain yields identical ids.
  TermId again = arena_.MakeConstant(symbols_.Intern("seed"));
  for (int i = 0; i < 1000; ++i) again = arena_.MakeApp(f, {again});
  EXPECT_EQ(again, prev);
}

// Ids are dense and in creation order, and the interning tables keep
// them through growth: 100k mixed constants and applications, re-interned
// after the tables have grown many times, return the same ids.
TEST_F(TermArenaTest, DenseCreationOrderIdsSurviveTableGrowth) {
  constexpr TermId kTerms = 100000;
  SymbolId f = symbols_.Intern("f");
  SymbolId g = symbols_.Intern("g");
  std::vector<SymbolId> constants;
  for (TermId i = 0; i < kTerms; i += 3) {
    constants.push_back(symbols_.Intern("c" + std::to_string(i)));
  }
  std::vector<TermId> ids;
  auto make = [&](TermId i) {
    switch (i % 3) {
      case 0:
        return arena_.MakeConstant(constants[i / 3]);
      case 1:
        return arena_.MakeApp(f, {ids[i - 1]});
      default:
        return arena_.MakeApp(g, {ids[i / 2], ids[i - 1]});
    }
  };
  for (TermId i = 0; i < kTerms; ++i) ids.push_back(make(i));
  size_t out_of_order = 0;
  for (TermId i = 0; i < kTerms; ++i) out_of_order += ids[i] != i;
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_EQ(arena_.size(), kTerms);
  size_t changed = 0;
  for (TermId i = 0; i < kTerms; ++i) changed += make(i) != ids[i];
  EXPECT_EQ(changed, 0u);
  EXPECT_EQ(arena_.size(), kTerms);
}

}  // namespace
}  // namespace dqsq
