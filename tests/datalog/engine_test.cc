#include "datalog/engine.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace dqsq {
namespace {

TEST(EngineTest, CountRelationFactsIncludesAdornedVariants) {
  DatalogContext ctx;
  Database db(&ctx);
  db.InsertByName("path", {"a", "b"});
  db.InsertByName("path__bf", {"a", "b"});
  db.InsertByName("path__fb", {"a", "b"});
  db.InsertByName("pathology", {"a"});
  EXPECT_EQ(CountRelationFacts(db, "path"), 3u);
}

TEST(EngineTest, ExtensionalQueryBypassesEvaluation) {
  DatalogContext ctx;
  auto program = ParseProgram(R"(
    unrelated(X) :- base(X).
    base(a).
  )",
                              ctx);
  ASSERT_TRUE(program.ok());
  Database db(&ctx);
  db.InsertByName("edb_only", {"x", "y"});
  auto query = ParseQuery("edb_only(x, Y)", ctx);
  ASSERT_TRUE(query.ok());
  auto result = SolveQuery(*program, db, *query, Strategy::kQsq);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->answers.size(), 1u);
  EXPECT_EQ(result->derived_facts, 0u);
}

TEST(EngineTest, StrategyNamesAreDistinct) {
  std::set<std::string> names;
  for (Strategy s :
       {Strategy::kNaive, Strategy::kSemiNaive, Strategy::kMagic,
        Strategy::kQsq, Strategy::kQsqAllVars, Strategy::kQsqIterative}) {
    EXPECT_TRUE(names.insert(StrategyName(s)).second);
  }
}

TEST(EngineTest, EvalStatsPopulated) {
  DatalogContext ctx;
  QueryResult r = testing::RunQuery(ctx, R"(
    edge(a, b). edge(b, c).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
  )",
                                    "path(X, Y)", Strategy::kSemiNaive);
  EXPECT_GT(r.eval.rounds, 1u);
  EXPECT_GT(r.eval.rule_firings, 0u);
  EXPECT_GT(r.eval.join_probes, 0u);
  EXPECT_EQ(r.eval.depth_pruned, 0u);
}

TEST(EngineTest, AuxPlusAnswerEqualsDerived) {
  DatalogContext ctx;
  QueryResult r = testing::RunQuery(ctx, R"(
    edge(a, b). edge(b, c). edge(c, d).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
  )",
                                    "path(b, Y)", Strategy::kQsq);
  EXPECT_EQ(r.aux_facts + r.answer_facts, r.derived_facts);
  EXPECT_GT(r.answer_facts, 0u);
}

}  // namespace
}  // namespace dqsq
