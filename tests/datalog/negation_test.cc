#include <gtest/gtest.h>

#include "datalog/engine.h"
#include "datalog/parser.h"
#include "tests/test_util.h"

namespace dqsq {
namespace {

using ::dqsq::testing::RunQueryStrings;

TEST(NegationTest, ParserAcceptsNotAtoms) {
  DatalogContext ctx;
  auto program = ParseProgram(R"(
    node(a). node(b). edge(a, b).
    isolated(X) :- node(X), not edge(X, X), not edge(a, X).
  )",
                              ctx);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const Rule& rule = program->rules.back();
  EXPECT_EQ(rule.body.size(), 1u);
  EXPECT_EQ(rule.negative.size(), 2u);
  EXPECT_EQ(RuleToString(rule, ctx),
            "isolated(X) :- node(X), not edge(X,X), not edge(a,X).");
}

TEST(NegationTest, UnsafeNegationRejected) {
  DatalogContext ctx;
  // Y appears only under negation.
  auto program = ParseProgram("p(X) :- node(X), not edge(X, Y).", ctx);
  EXPECT_FALSE(program.ok());
}

TEST(NegationTest, SetDifference) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    all(a). all(b). all(c).
    bad(b).
    good(X) :- all(X), not bad(X).
  )",
                                 "good(X)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"a", "c"}));
}

TEST(NegationTest, WinMoveGame) {
  // The classical stratified... actually win-move is NOT stratified in
  // general; this instance is an acyclic game graph, but predicate-level
  // stratification still rejects win :- move, not win. Verify rejection.
  DatalogContext ctx;
  auto program = ParseProgram(R"(
    move(a, b). move(b, c).
    win(X) :- move(X, Y), not win(Y).
  )",
                              ctx);
  ASSERT_TRUE(program.ok());
  auto strata = StratifyProgram(*program, ctx);
  EXPECT_FALSE(strata.ok());
}

TEST(NegationTest, TwoStrataEvaluateInOrder) {
  // reach (stratum 0), unreach = complement (stratum 1), flagged on top.
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    node(a). node(b). node(c). node(d).
    edge(a, b). edge(b, c).
    reach(a).
    reach(Y) :- reach(X), edge(X, Y).
    unreach(X) :- node(X), not reach(X).
    alert(X) :- unreach(X), not whitelisted(X).
    whitelisted(d).
  )",
                                 "unreach(X)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"d"}));

  DatalogContext ctx2;
  auto alerts = RunQueryStrings(ctx2, R"(
    node(a). node(b). node(c). node(d). node(e).
    edge(a, b).
    reach(a).
    reach(Y) :- reach(X), edge(X, Y).
    unreach(X) :- node(X), not reach(X).
    alert(X) :- unreach(X), not whitelisted(X).
    whitelisted(d).
  )",
                                 "alert(X)", Strategy::kSemiNaive);
  EXPECT_EQ(alerts, (std::vector<std::string>{"c", "e"}));
}

TEST(NegationTest, StratifiedNaiveMatchesSemiNaive) {
  const char* program = R"(
    node(a). node(b). node(c).
    edge(a, b).
    reach(a).
    reach(Y) :- reach(X), edge(X, Y).
    unreach(X) :- node(X), not reach(X).
  )";
  DatalogContext c1, c2;
  EXPECT_EQ(RunQueryStrings(c1, program, "unreach(X)", Strategy::kNaive),
            RunQueryStrings(c2, program, "unreach(X)", Strategy::kSemiNaive));
}

TEST(NegationTest, StratifyComputesLevels) {
  DatalogContext ctx;
  auto program = ParseProgram(R"(
    base(a).
    p(X) :- base(X).
    q(X) :- base(X), not p(X).
    s(X) :- q(X), not p(X).
    t(X) :- s(X), not q(X).
  )",
                              ctx);
  ASSERT_TRUE(program.ok());
  auto strata = StratifyProgram(*program, ctx);
  ASSERT_TRUE(strata.ok()) << strata.status().ToString();
  // base/p at 0, q at 1, s at >= 1 (needs p complete), t at >= 2.
  EXPECT_EQ((*strata)[0], 0u);  // base fact
  EXPECT_EQ((*strata)[1], 0u);  // p
  EXPECT_EQ((*strata)[2], 1u);  // q
  EXPECT_GE((*strata)[3], 1u);  // s
  EXPECT_GE((*strata)[4], 2u);  // t
}

TEST(NegationTest, PositiveProgramIsOneStratum) {
  DatalogContext ctx;
  auto positive = ParseProgram(R"(
    edge(a, b).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- path(X, Z), edge(Z, Y).
    far(X) :- path(a, X), X != b.
  )",
                               ctx);
  ASSERT_TRUE(positive.ok()) << positive.status().ToString();
  auto strata = StratifyProgram(*positive, ctx);
  ASSERT_TRUE(strata.ok()) << strata.status().ToString();
  EXPECT_EQ(*strata, (std::vector<uint32_t>{0, 0, 0, 0}));

  Program empty;
  auto none = StratifyProgram(empty, ctx);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  // The program of StratifyComputesLevels keeps its exact strata.
  auto stratified = ParseProgram(R"(
    base(a).
    p(X) :- base(X).
    q(X) :- base(X), not p(X).
    s(X) :- q(X), not p(X).
    t(X) :- s(X), not q(X).
  )",
                                 ctx);
  ASSERT_TRUE(stratified.ok());
  auto levels = StratifyProgram(*stratified, ctx);
  ASSERT_TRUE(levels.ok()) << levels.status().ToString();
  EXPECT_EQ(*levels, (std::vector<uint32_t>{0, 0, 1, 1, 2}));
}

TEST(NegationTest, GroundNegatedFactRule) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    present(a).
    flag(yes) :- not present(b).
    flag(no) :- not present(a).
  )",
                                 "flag(X)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"yes"}));
}

TEST(NegationTest, QsqRejectsNegation) {
  DatalogContext ctx;
  auto program = ParseProgram(R"(
    node(a).
    p(X) :- node(X), not q(X).
    q(b).
  )",
                              ctx);
  ASSERT_TRUE(program.ok());
  auto query = ParseQuery("p(X)", ctx);
  ASSERT_TRUE(query.ok());
  Database db(&ctx);
  auto result = SolveQuery(*program, db, *query, Strategy::kQsq);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
}

TEST(NegationTest, NegationWithFunctionTerms) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    item(a). item(b).
    boxed(f(a)).
    unboxed(X) :- item(X), not boxed(f(X)).
  )",
                                 "unboxed(X)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"b"}));
}

TEST(NegationTest, RemarkFourNotCausalViaNegation) {
  // Paper Remark 4: causal and notCausal are complements. On a FIXED
  // (pre-materialized) unfolding, notCausal can be computed by stratified
  // negation from causal; the paper's encoding cannot, because node
  // creation depends on notCausal (only locally stratified). We verify the
  // complement relationship on materialized data.
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    % A fixed little causal order: e1 < e2 < e3.
    ev(e1). ev(e2). ev(e3).
    parent(e2, e1). parent(e3, e2).
    causal(X, X) :- ev(X).
    causal(X, Y) :- parent(X, Z), causal(Z, Y).
    notcausal(X, Y) :- ev(X), ev(Y), not causal(X, Y).
  )",
                                 "notcausal(X, Y)", Strategy::kSemiNaive);
  EXPECT_EQ(answers,
            (std::vector<std::string>{"e1,e2", "e1,e3", "e2,e3"}));
}

}  // namespace
}  // namespace dqsq
