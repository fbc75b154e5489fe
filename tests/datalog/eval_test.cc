#include "datalog/eval.h"

#include <gtest/gtest.h>

#include "datalog/engine.h"
#include "datalog/parser.h"
#include "tests/test_util.h"

namespace dqsq {
namespace {

using ::dqsq::testing::AnswerStrings;
using ::dqsq::testing::RunQueryStrings;

const char* kTransitiveClosure = R"(
  edge(a, b).
  edge(b, c).
  edge(c, d).
  edge(b, e).
  path(X, Y) :- edge(X, Y).
  path(X, Y) :- edge(X, Z), path(Z, Y).
)";

TEST(EvalTest, TransitiveClosureNaive) {
  DatalogContext ctx;
  auto answers =
      RunQueryStrings(ctx, kTransitiveClosure, "path(a, Y)", Strategy::kNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"b", "c", "d", "e"}));
}

TEST(EvalTest, TransitiveClosureSemiNaive) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, kTransitiveClosure, "path(a, Y)",
                                 Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"b", "c", "d", "e"}));
}

TEST(EvalTest, SemiNaiveDerivesSameFactsAsNaive) {
  DatalogContext ctx;
  auto program = ParseProgram(kTransitiveClosure, ctx);
  ASSERT_TRUE(program.ok());
  Database naive_db(&ctx);
  Database semi_db(&ctx);
  EvalOptions naive_opts;
  naive_opts.seminaive = false;
  EvalOptions semi_opts;
  ASSERT_TRUE(Evaluate(*program, naive_db, naive_opts).ok());
  ASSERT_TRUE(Evaluate(*program, semi_db, semi_opts).ok());
  EXPECT_EQ(naive_db.Dump(), semi_db.Dump());
  EXPECT_EQ(naive_db.TotalFacts(), semi_db.TotalFacts());
}

TEST(EvalTest, CyclicGraphTerminates) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    edge(a, b). edge(b, c). edge(c, a).
    path(X, Y) :- edge(X, Y).
    path(X, Y) :- edge(X, Z), path(Z, Y).
  )",
                                 "path(a, Y)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(EvalTest, DisequalityFiltersDerivations) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    node(a). node(b). node(c).
    pair(X, Y) :- node(X), node(Y), X != Y.
  )",
                                 "pair(X, Y)", Strategy::kSemiNaive);
  EXPECT_EQ(answers.size(), 6u);  // 3*3 minus the 3 diagonal pairs
  for (const std::string& s : answers) {
    EXPECT_NE(s, "a,a");
    EXPECT_NE(s, "b,b");
    EXPECT_NE(s, "c,c");
  }
}

TEST(EvalTest, DisequalityAgainstConstant) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    node(a). node(b).
    notb(X) :- node(X), X != b.
  )",
                                 "notb(X)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"a"}));
}

TEST(EvalTest, FunctionSymbolsConstructTerms) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    base(a).
    wrapped(f(X)) :- base(X).
    double(g(X, X)) :- base(X).
  )",
                                 "wrapped(W)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"f(a)"}));
}

TEST(EvalTest, FunctionSymbolsDecomposeInBodies) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    cell(f(a, b)).
    cell(f(c, d)).
    left(X) :- cell(f(X, Y)).
  )",
                                 "left(X)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"a", "c"}));
}

TEST(EvalTest, InfiniteProgramHitsDepthBudget) {
  DatalogContext ctx;
  auto program = ParseProgram(R"(
    n(z).
    n(s(X)) :- n(X).
  )",
                              ctx);
  ASSERT_TRUE(program.ok());
  Database db(&ctx);
  EvalOptions opts;
  opts.max_term_depth = 5;
  opts.depth_policy = EvalOptions::DepthPolicy::kPrune;
  auto stats = Evaluate(*program, db, opts);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // z, s(z), ..., s^4(z): depth cap 5 keeps exactly 5 numerals.
  PredicateId n;
  ASSERT_TRUE(ctx.LookupPredicate("n", &n));
  EXPECT_EQ(db.Find(RelId{n, ctx.local_peer()})->size(), 5u);
  EXPECT_GT(stats->depth_pruned, 0u);
}

TEST(EvalTest, InfiniteProgramErrorsUnderErrorPolicy) {
  DatalogContext ctx;
  auto program = ParseProgram(R"(
    n(z).
    n(s(X)) :- n(X).
  )",
                              ctx);
  ASSERT_TRUE(program.ok());
  Database db(&ctx);
  EvalOptions opts;
  opts.max_term_depth = 5;
  opts.depth_policy = EvalOptions::DepthPolicy::kError;
  auto stats = Evaluate(*program, db, opts);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
}

TEST(EvalTest, MaxFactsBudgetStopsRunaway) {
  DatalogContext ctx;
  auto program = ParseProgram(R"(
    n(z).
    n(s(X)) :- n(X).
  )",
                              ctx);
  ASSERT_TRUE(program.ok());
  Database db(&ctx);
  EvalOptions opts;
  opts.max_facts = 100;
  auto stats = Evaluate(*program, db, opts);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
}

// A pass is finite, so max_rounds bounds every run: a program whose least
// model is infinite runs out of passes instead of looping inside one.
StatusOr<EvalStats> EvaluateWithMaxRounds(const std::string& text,
                                          size_t max_rounds) {
  DatalogContext ctx;
  auto program = ParseProgram(text, ctx);
  DQSQ_CHECK_OK(program.status());
  Database db(&ctx);
  EvalOptions opts;
  opts.max_rounds = max_rounds;
  return Evaluate(*program, db, opts);
}

TEST(EvalTest, MaxRoundsStopsSelfRecursionThroughAFunctionSymbol) {
  auto stats = EvaluateWithMaxRounds(R"(
    nat(z).
    nat(s(X)) :- nat(X).
  )",
                                     50);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(stats.status().ToString().find("max_rounds"), std::string::npos);
}

// The cycle is written in ascending order, so each pass carries a fact
// through both rules before the next one starts.
TEST(EvalTest, MaxRoundsStopsAscendingTwoRuleCycle) {
  auto stats = EvaluateWithMaxRounds(R"(
    even(z).
    odd(s(X)) :- even(X).
    even(s(X)) :- odd(X).
  )",
                                     50);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(stats.status().ToString().find("max_rounds"), std::string::npos);
}

TEST(EvalTest, EmptyProgramIsFixpointImmediately) {
  DatalogContext ctx;
  Program program;
  Database db(&ctx);
  auto stats = Evaluate(program, db, EvalOptions{});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->facts_derived, 0u);
}

TEST(EvalTest, MutualRecursionAcrossRelations) {
  DatalogContext ctx;
  auto answers = RunQueryStrings(ctx, R"(
    succ(n0, n1). succ(n1, n2). succ(n2, n3). succ(n3, n4).
    even(n0).
    odd(X) :- succ(Y, X), even(Y).
    even(X) :- succ(Y, X), odd(Y).
  )",
                                 "even(X)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"n0", "n2", "n4"}));
}

TEST(EvalTest, DistributedFactsKeyedByPeer) {
  DatalogContext ctx;
  // The same predicate at different peers holds different facts (global
  // program semantics P^g: the peer is an extra column).
  auto answers = RunQueryStrings(ctx, R"(
    stock@paris(wine).
    stock@rome(pasta).
    menu(X) :- stock@paris(X).
  )",
                                 "menu(X)", Strategy::kSemiNaive);
  EXPECT_EQ(answers, (std::vector<std::string>{"wine"}));
}

// Rule activation: a semi-naive pass visits only the rules that read a
// relation with rows past their watermarks. A 64-node chain closure runs
// next to 1,000 rules over relations that never get facts; visiting every
// rule every pass would cost 1,002 x 63 visits.
TEST(EvalTest, SemiNaiveRoundsVisitOnlyRulesReadingADelta) {
  constexpr int kNodes = 64;
  constexpr int kIdleRules = 1000;
  std::string text =
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Y) :- path(X, Z), edge(Z, Y).\n";
  for (int i = 0; i < kIdleRules; ++i) {
    std::string n = std::to_string(i);
    text += "idle" + n + "(X) :- ghost" + n + "(X, Y), absent(Y).\n";
  }
  auto run = [&](bool seminaive, std::string* dump) {
    DatalogContext ctx;
    auto program = ParseProgram(text, ctx);
    DQSQ_CHECK_OK(program.status());
    Database db(&ctx);
    for (int i = 0; i + 1 < kNodes; ++i) {
      db.InsertByName("edge", {"v" + std::to_string(i),
                               "v" + std::to_string(i + 1)});
    }
    EvalOptions options;
    options.seminaive = seminaive;
    auto stats = Evaluate(*program, db, options);
    DQSQ_CHECK_OK(stats.status());
    *dump = db.Dump();
    return *stats;
  };
  const size_t plans = 2 + kIdleRules;
  std::string semi_dump, naive_dump;
  EvalStats semi = run(/*seminaive=*/true, &semi_dump);
  EXPECT_EQ(semi.facts_derived, size_t{kNodes} * (kNodes - 1) / 2);
  // 63 passes, not 64: pass 0 carries each edge through both rules (paths
  // of length 1 and 2), each later pass adds one length, and the pass
  // after length 63 derives nothing.
  EXPECT_EQ(semi.rounds, size_t{kNodes - 1});
  EXPECT_LE(semi.rule_visits, plans + 2 * semi.rounds);

  // Naive mode visits every rule every pass, and derives the same facts.
  EvalStats naive = run(/*seminaive=*/false, &naive_dump);
  EXPECT_EQ(naive.rule_visits, plans * naive.rounds);
  EXPECT_EQ(naive_dump, semi_dump);
}

// Rows flow forward within a pass: a chain of K copy rules written in
// ascending order closes in one pass, and written in descending order
// each pass moves the fact one rule further, so it takes K passes.
TEST(EvalTest, ChainClosesInOnePassInAscendingOrder) {
  constexpr int kRules = 8;
  std::vector<std::string> rules;
  for (int i = 1; i <= kRules; ++i) {
    rules.push_back("p" + std::to_string(i) + "(X) :- p" +
                    std::to_string(i - 1) + "(X).\n");
  }
  auto run = [&](bool ascending, std::string* dump) {
    std::string text;
    for (int i = 0; i < kRules; ++i) {
      text += rules[ascending ? i : kRules - 1 - i];
    }
    DatalogContext ctx;
    auto program = ParseProgram(text, ctx);
    DQSQ_CHECK_OK(program.status());
    Database db(&ctx);
    db.InsertByName("p0", {"a"});
    auto stats = Evaluate(*program, db, EvalOptions{});
    DQSQ_CHECK_OK(stats.status());
    *dump = db.Dump();
    return *stats;
  };
  std::string ascending_dump, descending_dump;
  EvalStats ascending = run(/*ascending=*/true, &ascending_dump);
  EvalStats descending = run(/*ascending=*/false, &descending_dump);
  EXPECT_EQ(ascending.facts_derived, size_t{kRules});
  EXPECT_EQ(ascending.rounds, 1u);
  EXPECT_EQ(descending.facts_derived, size_t{kRules});
  EXPECT_EQ(descending.rounds, size_t{kRules});
  EXPECT_EQ(ascending_dump, descending_dump);
}

TEST(EvalTest, AskOnGroundQueryChecksMembership) {
  DatalogContext ctx;
  auto program = ParseProgram("edge(a, b).", ctx);
  ASSERT_TRUE(program.ok());
  Database db(&ctx);
  ASSERT_TRUE(Evaluate(*program, db, EvalOptions{}).ok());
  auto yes = ParseQuery("edge(a, b)", ctx);
  auto no = ParseQuery("edge(b, a)", ctx);
  ASSERT_TRUE(yes.ok() && no.ok());
  EXPECT_EQ(Ask(db, yes->atom, yes->num_vars).size(), 1u);
  EXPECT_EQ(Ask(db, no->atom, no->num_vars).size(), 0u);
}

}  // namespace
}  // namespace dqsq
