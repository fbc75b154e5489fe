#include "datalog/qsq_rewrite.h"

#include <gtest/gtest.h>

#include "datalog/engine.h"
#include "datalog/magic_rewrite.h"
#include "datalog/parser.h"
#include "tests/test_util.h"

namespace dqsq {
namespace {

using ::dqsq::testing::RunQuery;
using ::dqsq::testing::RunQueryStrings;

// The paper's Figure 3 program (relations a, b, c extensional), with a
// chain EDB where a provides the direct answer and the s/t branch provides
// a second derivation path.
std::string Figure3Program() {
  return R"(
    r@r(X, Y) :- a@r(X, Y).
    r@r(X, Y) :- s@s(X, Z), t@t(Z, Y).
    s@s(X, Y) :- r@r(X, Y), b@s(Y, Z).
    t@t(X, Y) :- c@t(X, Y).
    a@r("1", "2").
    a@r("2", "3").
    a@r("7", "8").
    b@s("2", "5").
    b@s("3", "6").
    c@t("2", "4").
    c@t("3", "9").
  )";
}

TEST(QsqTest, Figure3AllStrategiesAgree) {
  std::vector<std::string> expected;
  for (Strategy strategy :
       {Strategy::kNaive, Strategy::kSemiNaive, Strategy::kMagic,
        Strategy::kQsq, Strategy::kQsqAllVars}) {
    DatalogContext ctx;
    auto answers =
        RunQueryStrings(ctx, Figure3Program(), "r@r(\"1\", Y)", strategy);
    if (expected.empty()) {
      expected = answers;
      EXPECT_FALSE(expected.empty());
    } else {
      EXPECT_EQ(answers, expected) << StrategyName(strategy);
    }
  }
}

TEST(QsqTest, Figure3QsqAnswersAreCorrect) {
  DatalogContext ctx;
  auto answers =
      RunQueryStrings(ctx, Figure3Program(), "r@r(\"1\", Y)", Strategy::kQsq);
  // r("1","2") via a; then s("1","2") needs b("2",_): yes -> s holds
  // ("1","2"); t("2","4") via c => r("1","4") via rule 2. Then s("1","4")?
  // needs b("4",_): no. Fixpoint.
  EXPECT_EQ(answers, (std::vector<std::string>{"2", "4"}));
}

TEST(QsqTest, QsqMaterializesLessThanNaive) {
  DatalogContext big_ctx;
  // A long chain where the query touches only a short prefix: demand-driven
  // evaluation should materialize strictly fewer facts.
  std::string program;
  for (int i = 0; i < 50; ++i) {
    program += "edge(v" + std::to_string(i) + ", v" + std::to_string(i + 1) +
               ").\n";
  }
  program += "path(X, Y) :- edge(X, Y).\n";
  program += "path(X, Y) :- edge(X, Z), path(Z, Y).\n";

  DatalogContext ctx_naive;
  QueryResult naive =
      RunQuery(ctx_naive, program, "path(v45, Y)", Strategy::kSemiNaive);
  DatalogContext ctx_qsq;
  QueryResult qsq = RunQuery(ctx_qsq, program, "path(v45, Y)", Strategy::kQsq);
  EXPECT_EQ(testing::AnswerStrings(naive.answers, ctx_naive),
            testing::AnswerStrings(qsq.answers, ctx_qsq));
  // Naive derives all ~1275 path facts; QSQ only those demanded from v45
  // onward (15 path + 5 edge answers).
  EXPECT_GT(naive.answer_facts, 1000u);
  EXPECT_LE(qsq.answer_facts, 25u);
  EXPECT_LT(qsq.derived_facts, naive.derived_facts / 5);
}

TEST(QsqTest, MagicMaterializesLessThanNaive) {
  std::string program;
  for (int i = 0; i < 50; ++i) {
    program += "edge(v" + std::to_string(i) + ", v" + std::to_string(i + 1) +
               ").\n";
  }
  program += "path(X, Y) :- edge(X, Y).\n";
  program += "path(X, Y) :- edge(X, Z), path(Z, Y).\n";
  DatalogContext ctx;
  QueryResult magic = RunQuery(ctx, program, "path(v45, Y)", Strategy::kMagic);
  EXPECT_EQ(magic.answers.size(), 5u);
  EXPECT_LE(magic.answer_facts, 25u);
}

TEST(QsqTest, SameGenerationQueryAllStrategies) {
  // sg(a,q) directly via flat; sg(a,b) via up(a,e), sg(e,f), down(f,b)
  // where sg(e,f) itself needs one more level of recursion.
  const char* program = R"(
    flat(a, q). flat(m, n).
    up(a, e). up(e, m).
    down(n, f). down(f, b).
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
  )";
  for (Strategy strategy :
       {Strategy::kNaive, Strategy::kSemiNaive, Strategy::kMagic,
        Strategy::kQsq, Strategy::kQsqAllVars}) {
    DatalogContext ctx;
    auto answers = RunQueryStrings(ctx, program, "sg(a, Y)", strategy);
    EXPECT_EQ(answers, (std::vector<std::string>{"b", "q"}))
        << StrategyName(strategy);
  }
}

TEST(QsqTest, RewriteStructureMatchesFigure4) {
  // Figure 4 of the paper: the rewriting of the (local) Figure 3 program
  // introduces, per rule, supplementary relations sup_{i,0..n}, input
  // relations in_R^bf, and adorned answers R^bf.
  DatalogContext ctx;
  auto program = ParseProgram(R"(
    r(X, Y) :- a(X, Y).
    r(X, Y) :- s(X, Z), t(Z, Y).
    s(X, Y) :- r(X, Y), b(Y, Z).
    t(X, Y) :- c(X, Y).
  )",
                              ctx);
  ASSERT_TRUE(program.ok());
  auto q = ParseQuery("r(\"1\", Y)", ctx);
  ASSERT_TRUE(q.ok());
  auto adorned = AdornProgram(*program, q->atom.rel, QueryAdornment(q->atom));
  ASSERT_TRUE(adorned.ok());
  auto rewrite = QsqRewrite(*adorned, q->atom.rel, QueryAdornment(q->atom),
                            ctx, QsqOptions{});
  ASSERT_TRUE(rewrite.ok()) << rewrite.status().ToString();

  // Rule counts, following Figure 4: rule 1 (1 EDB atom) contributes
  // 1 (sup0) + 1 (sup1 via EDB) + 1 (answer) = 3; rule 2 (2 IDB atoms)
  // contributes 1 + 2*(in + sup) + 1 = 6; rule 3 (IDB + EDB) contributes
  // 1 + 2 + 1 + 1 = 5; rule 4: 3. Total 17.
  EXPECT_EQ(rewrite->program.rules.size(), 17u);

  // The query's interface relations exist with the right names.
  EXPECT_EQ(ctx.PredicateName(rewrite->answer_rel.pred), "r__bf");
  EXPECT_EQ(ctx.PredicateName(rewrite->input_rel.pred), "in__r__bf");
  EXPECT_EQ(ctx.PredicateArity(rewrite->input_rel.pred), 1u);

  // in relations for all three call patterns (Figure 4's in-R^bf, in-S^bf,
  // in-T^bf).
  PredicateId pred;
  EXPECT_TRUE(ctx.LookupPredicate("in__s__bf", &pred));
  EXPECT_TRUE(ctx.LookupPredicate("in__t__bf", &pred));
  EXPECT_TRUE(ctx.LookupPredicate("s__bf", &pred));
  EXPECT_TRUE(ctx.LookupPredicate("t__bf", &pred));
}

// The Figure 3 rules plus a rule with three disequalities: a ground one
// (attached to sup_0), one bound after the first body atom, and one bound
// only by the last atom (attached to the final sup).
std::string GoldenRewriteText(bool project_relevant_vars,
                              bool distribute_sups) {
  DatalogContext ctx;
  auto program = ParseProgram(R"(
    r@r(X, Y) :- a@r(X, Y).
    r@r(X, Y) :- s@s(X, Z), t@t(Z, Y).
    s@s(X, Y) :- r@r(X, Y), b@s(Y, Z).
    t@t(X, Y) :- c@t(X, Y).
    r@r(X, Y) :- a@r(X, Z), s@s(Z, W), c@t(W, Y), u != v, Z != X, Y != W.
  )",
                              ctx);
  DQSQ_CHECK_OK(program.status());
  auto q = ParseQuery("r@r(\"1\", Y)", ctx);
  DQSQ_CHECK_OK(q.status());
  auto adorned = AdornProgram(*program, q->atom.rel, QueryAdornment(q->atom));
  DQSQ_CHECK_OK(adorned.status());
  QsqOptions opts;
  opts.project_relevant_vars = project_relevant_vars;
  opts.distribute_sups = distribute_sups;
  auto rewrite = QsqRewrite(*adorned, q->atom.rel, QueryAdornment(q->atom),
                            ctx, opts);
  DQSQ_CHECK_OK(rewrite.status());
  return ProgramToString(rewrite->program, ctx);
}

// Golden text of the rewrite under all four option combinations. Rule
// order, sup schemas and disequality placement are all pinned, so a
// faster rewrite must reproduce its predecessor byte for byte.
TEST(QsqTest, RewriteTextIsPinned) {
  EXPECT_EQ(GoldenRewriteText(/*project_relevant_vars=*/true,
                              /*distribute_sups=*/true),
            R"(sup__r0__bf__0@r(X) :- in__r__bf@r(X).
sup__r0__bf__1@r(X,Y) :- sup__r0__bf__0@r(X), a@r(X,Y).
r__bf@r(X,Y) :- sup__r0__bf__1@r(X,Y).
sup__r1__bf__0@s(X) :- in__r__bf@r(X).
in__s__bf@s(X) :- sup__r1__bf__0@s(X).
sup__r1__bf__1@t(X,Z) :- sup__r1__bf__0@s(X), s__bf@s(X,Z).
in__t__bf@t(Z) :- sup__r1__bf__1@t(X,Z).
sup__r1__bf__2@r(X,Y) :- sup__r1__bf__1@t(X,Z), t__bf@t(Z,Y).
r__bf@r(X,Y) :- sup__r1__bf__2@r(X,Y).
sup__r4__bf__0@r(X) :- in__r__bf@r(X), u != v.
sup__r4__bf__1@s(X,Z) :- sup__r4__bf__0@r(X), a@r(X,Z), Z != X.
in__s__bf@s(Z) :- sup__r4__bf__1@s(X,Z).
sup__r4__bf__2@t(X,W) :- sup__r4__bf__1@s(X,Z), s__bf@s(Z,W).
sup__r4__bf__3@r(X,Y,W) :- sup__r4__bf__2@t(X,W), c@t(W,Y), Y != W.
r__bf@r(X,Y) :- sup__r4__bf__3@r(X,Y,W).
sup__r2__bf__0@r(X) :- in__s__bf@s(X).
in__r__bf@r(X) :- sup__r2__bf__0@r(X).
sup__r2__bf__1@s(X,Y) :- sup__r2__bf__0@r(X), r__bf@r(X,Y).
sup__r2__bf__2@s(X,Y) :- sup__r2__bf__1@s(X,Y), b@s(Y,Z).
s__bf@s(X,Y) :- sup__r2__bf__2@s(X,Y).
sup__r3__bf__0@t(X) :- in__t__bf@t(X).
sup__r3__bf__1@t(X,Y) :- sup__r3__bf__0@t(X), c@t(X,Y).
t__bf@t(X,Y) :- sup__r3__bf__1@t(X,Y).
)");
  EXPECT_EQ(GoldenRewriteText(/*project_relevant_vars=*/true,
                              /*distribute_sups=*/false),
            R"(sup__r0__bf__0@r(X) :- in__r__bf@r(X).
sup__r0__bf__1@r(X,Y) :- sup__r0__bf__0@r(X), a@r(X,Y).
r__bf@r(X,Y) :- sup__r0__bf__1@r(X,Y).
sup__r1__bf__0@r(X) :- in__r__bf@r(X).
in__s__bf@s(X) :- sup__r1__bf__0@r(X).
sup__r1__bf__1@r(X,Z) :- sup__r1__bf__0@r(X), s__bf@s(X,Z).
in__t__bf@t(Z) :- sup__r1__bf__1@r(X,Z).
sup__r1__bf__2@r(X,Y) :- sup__r1__bf__1@r(X,Z), t__bf@t(Z,Y).
r__bf@r(X,Y) :- sup__r1__bf__2@r(X,Y).
sup__r4__bf__0@r(X) :- in__r__bf@r(X), u != v.
sup__r4__bf__1@r(X,Z) :- sup__r4__bf__0@r(X), a@r(X,Z), Z != X.
in__s__bf@s(Z) :- sup__r4__bf__1@r(X,Z).
sup__r4__bf__2@r(X,W) :- sup__r4__bf__1@r(X,Z), s__bf@s(Z,W).
sup__r4__bf__3@r(X,Y,W) :- sup__r4__bf__2@r(X,W), c@t(W,Y), Y != W.
r__bf@r(X,Y) :- sup__r4__bf__3@r(X,Y,W).
sup__r2__bf__0@s(X) :- in__s__bf@s(X).
in__r__bf@r(X) :- sup__r2__bf__0@s(X).
sup__r2__bf__1@s(X,Y) :- sup__r2__bf__0@s(X), r__bf@r(X,Y).
sup__r2__bf__2@s(X,Y) :- sup__r2__bf__1@s(X,Y), b@s(Y,Z).
s__bf@s(X,Y) :- sup__r2__bf__2@s(X,Y).
sup__r3__bf__0@t(X) :- in__t__bf@t(X).
sup__r3__bf__1@t(X,Y) :- sup__r3__bf__0@t(X), c@t(X,Y).
t__bf@t(X,Y) :- sup__r3__bf__1@t(X,Y).
)");
  EXPECT_EQ(GoldenRewriteText(/*project_relevant_vars=*/false,
                              /*distribute_sups=*/true),
            R"(supall__r0__bf__0@r(X) :- in__r__bf@r(X).
supall__r0__bf__1@r(X,Y) :- supall__r0__bf__0@r(X), a@r(X,Y).
r__bf@r(X,Y) :- supall__r0__bf__1@r(X,Y).
supall__r1__bf__0@s(X) :- in__r__bf@r(X).
in__s__bf@s(X) :- supall__r1__bf__0@s(X).
supall__r1__bf__1@t(X,Z) :- supall__r1__bf__0@s(X), s__bf@s(X,Z).
in__t__bf@t(Z) :- supall__r1__bf__1@t(X,Z).
supall__r1__bf__2@r(X,Y,Z) :- supall__r1__bf__1@t(X,Z), t__bf@t(Z,Y).
r__bf@r(X,Y) :- supall__r1__bf__2@r(X,Y,Z).
supall__r4__bf__0@r(X) :- in__r__bf@r(X), u != v.
supall__r4__bf__1@s(X,Z) :- supall__r4__bf__0@r(X), a@r(X,Z), Z != X.
in__s__bf@s(Z) :- supall__r4__bf__1@s(X,Z).
supall__r4__bf__2@t(X,Z,W) :- supall__r4__bf__1@s(X,Z), s__bf@s(Z,W).
supall__r4__bf__3@r(X,Y,Z,W) :- supall__r4__bf__2@t(X,Z,W), c@t(W,Y), Y != W.
r__bf@r(X,Y) :- supall__r4__bf__3@r(X,Y,Z,W).
supall__r2__bf__0@r(X) :- in__s__bf@s(X).
in__r__bf@r(X) :- supall__r2__bf__0@r(X).
supall__r2__bf__1@s(X,Y) :- supall__r2__bf__0@r(X), r__bf@r(X,Y).
supall__r2__bf__2@s(X,Y,Z) :- supall__r2__bf__1@s(X,Y), b@s(Y,Z).
s__bf@s(X,Y) :- supall__r2__bf__2@s(X,Y,Z).
supall__r3__bf__0@t(X) :- in__t__bf@t(X).
supall__r3__bf__1@t(X,Y) :- supall__r3__bf__0@t(X), c@t(X,Y).
t__bf@t(X,Y) :- supall__r3__bf__1@t(X,Y).
)");
  EXPECT_EQ(GoldenRewriteText(/*project_relevant_vars=*/false,
                              /*distribute_sups=*/false),
            R"(supall__r0__bf__0@r(X) :- in__r__bf@r(X).
supall__r0__bf__1@r(X,Y) :- supall__r0__bf__0@r(X), a@r(X,Y).
r__bf@r(X,Y) :- supall__r0__bf__1@r(X,Y).
supall__r1__bf__0@r(X) :- in__r__bf@r(X).
in__s__bf@s(X) :- supall__r1__bf__0@r(X).
supall__r1__bf__1@r(X,Z) :- supall__r1__bf__0@r(X), s__bf@s(X,Z).
in__t__bf@t(Z) :- supall__r1__bf__1@r(X,Z).
supall__r1__bf__2@r(X,Y,Z) :- supall__r1__bf__1@r(X,Z), t__bf@t(Z,Y).
r__bf@r(X,Y) :- supall__r1__bf__2@r(X,Y,Z).
supall__r4__bf__0@r(X) :- in__r__bf@r(X), u != v.
supall__r4__bf__1@r(X,Z) :- supall__r4__bf__0@r(X), a@r(X,Z), Z != X.
in__s__bf@s(Z) :- supall__r4__bf__1@r(X,Z).
supall__r4__bf__2@r(X,Z,W) :- supall__r4__bf__1@r(X,Z), s__bf@s(Z,W).
supall__r4__bf__3@r(X,Y,Z,W) :- supall__r4__bf__2@r(X,Z,W), c@t(W,Y), Y != W.
r__bf@r(X,Y) :- supall__r4__bf__3@r(X,Y,Z,W).
supall__r2__bf__0@s(X) :- in__s__bf@s(X).
in__r__bf@r(X) :- supall__r2__bf__0@s(X).
supall__r2__bf__1@s(X,Y) :- supall__r2__bf__0@s(X), r__bf@r(X,Y).
supall__r2__bf__2@s(X,Y,Z) :- supall__r2__bf__1@s(X,Y), b@s(Y,Z).
s__bf@s(X,Y) :- supall__r2__bf__2@s(X,Y,Z).
supall__r3__bf__0@t(X) :- in__t__bf@t(X).
supall__r3__bf__1@t(X,Y) :- supall__r3__bf__0@t(X), c@t(X,Y).
t__bf@t(X,Y) :- supall__r3__bf__1@t(X,Y).
)");
}

TEST(QsqTest, DistributedPlacementMatchesFigure5) {
  // In the dQSQ placement, sup_{r,j} lives at the peer of body atom j so
  // every rewritten rule reads relations of exactly one peer (Fig. 5: only
  // sup22 and sup32 cross peers, as heads).
  DatalogContext ctx;
  auto program = ParseProgram(Figure3Program(), ctx);
  ASSERT_TRUE(program.ok());
  auto q = ParseQuery("r@r(\"1\", Y)", ctx);
  ASSERT_TRUE(q.ok());
  auto adorned = AdornProgram(*program, q->atom.rel, QueryAdornment(q->atom));
  ASSERT_TRUE(adorned.ok());
  QsqOptions opts;
  opts.distribute_sups = true;
  auto rewrite = QsqRewrite(*adorned, q->atom.rel, QueryAdornment(q->atom),
                            ctx, opts);
  ASSERT_TRUE(rewrite.ok());
  for (const Rule& rule : rewrite->program.rules) {
    ASSERT_FALSE(rule.body.empty());
    SymbolId body_peer = rule.body[0].rel.peer;
    for (const Atom& atom : rule.body) {
      EXPECT_EQ(atom.rel.peer, body_peer)
          << "cross-peer body in " << RuleToString(rule, ctx);
    }
  }
}

TEST(QsqTest, BoundArgumentWithFunctionTermDrivesDemand) {
  // Skolem terms in heads: querying node(f(a)) must demand only f(a), not
  // build unrelated terms.
  DatalogContext ctx;
  auto result = RunQuery(ctx, R"(
    base(a). base(b).
    node(f(X)) :- base(X).
  )",
                         "node(f(a))", Strategy::kQsq);
  EXPECT_EQ(result.answers.size(), 1u);
}

TEST(QsqTest, DisequalityInRewrittenProgram) {
  for (Strategy strategy : {Strategy::kQsq, Strategy::kMagic}) {
    DatalogContext ctx;
    auto answers = RunQueryStrings(ctx, R"(
      edge(a, b). edge(b, a). edge(b, c).
      reach(X, Y) :- edge(X, Y).
      reach(X, Y) :- edge(X, Z), reach(Z, Y), X != Y.
    )",
                                   "reach(a, Y)", strategy);
    DatalogContext ctx2;
    auto expected = RunQueryStrings(ctx2, R"(
      edge(a, b). edge(b, a). edge(b, c).
      reach(X, Y) :- edge(X, Y).
      reach(X, Y) :- edge(X, Z), reach(Z, Y), X != Y.
    )",
                                    "reach(a, Y)", Strategy::kSemiNaive);
    EXPECT_EQ(answers, expected) << StrategyName(strategy);
  }
}

TEST(QsqTest, AllFreeQueryStillWorks) {
  for (Strategy strategy :
       {Strategy::kQsq, Strategy::kMagic, Strategy::kQsqAllVars}) {
    DatalogContext ctx;
    auto answers = RunQueryStrings(ctx, R"(
      edge(a, b). edge(b, c).
      path(X, Y) :- edge(X, Y).
      path(X, Y) :- edge(X, Z), path(Z, Y).
    )",
                                   "path(X, Y)", strategy);
    EXPECT_EQ(answers,
              (std::vector<std::string>{"a,b", "a,c", "b,c"}))
        << StrategyName(strategy);
  }
}

TEST(QsqTest, RepeatedVariableInQuery) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    edge(a, a). edge(a, b). edge(b, b).
    loop(X, Y) :- edge(X, Y).
  )",
                                 "loop(X, X)", Strategy::kQsq);
  EXPECT_EQ(answers, (std::vector<std::string>{"a", "b"}));
}

TEST(QsqTest, QsqTerminatesWhereNaiveDiverges) {
  // With function symbols, bottom-up runs forever but QSQ's demand is
  // finite for this query: the query asks about a specific ground numeral.
  DatalogContext ctx;
  auto program = ParseProgram(R"(
    zero(z).
    num(X) :- zero(X).
    num(s(X)) :- num(X).
  )",
                              ctx);
  ASSERT_TRUE(program.ok());
  auto q = ParseQuery("num(s(s(z)))", ctx);
  ASSERT_TRUE(q.ok());
  Database db(&ctx);
  EvalOptions opts;
  opts.max_facts = 10000;  // would be exhausted by bottom-up
  auto result = SolveQuery(*program, db, *q, Strategy::kQsq, opts);
  // NOTE: demand on num^b unfolds s(s(z)) downward: in__num__b holds
  // s(s(z)), and the rule num(s(X)) :- num(X) with head pattern s(X)
  // matched against the demand binds X = s(z), recursing. Finite.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->answers.size(), 1u);
}

TEST(QsqTest, QsqAllVarsKeepsWiderSupSchemas) {
  // The ablation: without relevant-variable projection the sup relations
  // carry at least as many facts.
  std::string program;
  for (int i = 0; i < 30; ++i) {
    program += "edge(v" + std::to_string(i) + ", v" + std::to_string(i + 1) +
               ").\n";
  }
  program += "path(X, Y) :- edge(X, Y).\n";
  program += "path(X, Y) :- edge(X, Z), path(Z, Y).\n";
  DatalogContext ctx1, ctx2;
  QueryResult slim = RunQuery(ctx1, program, "path(v0, Y)", Strategy::kQsq);
  QueryResult wide =
      RunQuery(ctx2, program, "path(v0, Y)", Strategy::kQsqAllVars);
  EXPECT_EQ(testing::AnswerStrings(slim.answers, ctx1),
            testing::AnswerStrings(wide.answers, ctx2));
  EXPECT_GE(wide.aux_facts, slim.aux_facts);
}

}  // namespace
}  // namespace dqsq
