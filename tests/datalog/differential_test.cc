// Differential testing: randomly generated Datalog programs are evaluated
// with every strategy — naive, semi-naive, magic, both QSQ realizations —
// and must produce identical answers. Naive evaluation re-joins every rule
// every round, so it is also the oracle for semi-naive rule activation:
// both modes must leave byte-identical databases, with and without
// stratified negation. Any fair rule order reaches the same model, so a
// rule-shuffled copy of a program must leave the same database too.
// Parameterized over generator seeds (TEST_P), so
// each seed is an independently reported case.
#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "datalog/engine.h"
#include "tests/test_util.h"

namespace dqsq {
namespace {

// Generates a random function-free program over a small constant domain,
// guaranteed range-restricted, plus a query on a random IDB relation with
// a bound first argument. The rules cover what rule activation must get
// right:
//   - mutual recursion: an IDB body atom may name any IDB;
//   - non-linear bodies: one IDB read twice in the same rule;
//   - relations born mid-layer: no IDB exists before its first derivation,
//     and `g0` is read but never derived at all;
//   - with `negation`, a second stratum n0..n1 that negates EDB and
//     stratum-0 IDB atoms, so its layer starts with existing relations.
struct GeneratedCase {
  std::string program;
  std::string query;
};

GeneratedCase GenerateProgram(uint64_t seed, bool negation = false) {
  Rng rng(seed);
  GeneratedCase out;
  const int num_consts = 5;
  const int num_edb = 3;
  const int num_idb = 3;
  const int num_neg = 2;
  auto constant = [&](int i) { return "c" + std::to_string(i); };
  auto pick = [&](int n) { return std::to_string(rng.NextBelow(n)); };

  // EDB facts: binary relations e0..e{k-1}.
  for (int r = 0; r < num_edb; ++r) {
    int facts = 3 + static_cast<int>(rng.NextBelow(6));
    for (int f = 0; f < facts; ++f) {
      out.program += "e" + std::to_string(r) + "(" +
                     constant(static_cast<int>(rng.NextBelow(num_consts))) +
                     ", " +
                     constant(static_cast<int>(rng.NextBelow(num_consts))) +
                     ").\n";
    }
  }
  // A positive body atom: mostly EDB, often any IDB of `idb` (mutual
  // recursion), rarely the never-derived g0.
  auto body_rel = [&](const std::string& idb, int num) {
    double roll = rng.NextDouble();
    if (roll < 0.05) return std::string("g0");
    if (roll < 0.45) return idb + pick(num);
    return "e" + pick(num_edb);
  };
  // Bodies chain X0 -> Y0 -> ... -> X1, so every rule is range-restricted.
  auto chain_body = [&](const std::string& idb, int num) {
    int body_len = 1 + static_cast<int>(rng.NextBelow(3));
    std::string body;
    for (int b = 0; b < body_len; ++b) {
      std::string from = (b == 0) ? "X0" : "Y" + std::to_string(b - 1);
      std::string to = (b == body_len - 1) ? "X1" : "Y" + std::to_string(b);
      if (!body.empty()) body += ", ";
      body += body_rel(idb, num) + "(" + from + ", " + to + ")";
    }
    return body;
  };
  // IDB rules: i0..i{m-1}, each defined by 1-2 chain rules, sometimes a
  // linear recursive rule and sometimes a non-linear one.
  for (int r = 0; r < num_idb; ++r) {
    std::string head = "i" + std::to_string(r) + "(X0, X1) :- ";
    int rules = 1 + static_cast<int>(rng.NextBelow(2));
    for (int k = 0; k < rules; ++k) {
      if (rng.NextBool(0.5)) {
        out.program += head + "e" + pick(num_edb) + "(X0, Y0), i" +
                       std::to_string(r) + "(Y0, X1).\n";
      }
      if (rng.NextBool(0.3)) {
        std::string twice = "i" + pick(num_idb);
        out.program +=
            head + twice + "(X0, Y0), " + twice + "(Y0, X1).\n";
      }
      out.program += head + chain_body("i", num_idb) + ".\n";
    }
  }
  std::string target = "i" + pick(num_idb);
  if (negation) {
    // Stratum 1: n0..n{k-1} over anything positive, minus an EDB or
    // stratum-0 IDB atom on the already-bound X0, X1.
    for (int r = 0; r < num_neg; ++r) {
      std::string head = "n" + std::to_string(r) + "(X0, X1) :- ";
      int rules = 1 + static_cast<int>(rng.NextBelow(2));
      for (int k = 0; k < rules; ++k) {
        std::string positive = rng.NextBool(0.5) ? chain_body("n", num_neg)
                                                 : chain_body("i", num_idb);
        std::string negated =
            (rng.NextBool(0.5) ? "e" + pick(num_edb) : "i" + pick(num_idb)) +
            (rng.NextBool(0.5) ? "(X1, X0)" : "(X0, X1)");
        out.program += head + positive + ", not " + negated + ".\n";
      }
    }
    target = "n" + pick(num_neg);
  }
  out.query = target + "(" +
              constant(static_cast<int>(rng.NextBelow(num_consts))) + ", Y)";
  return out;
}

// Evaluates `text` bottom-up in one mode; returns the full database dump.
std::string EvaluateToDump(const std::string& text, bool seminaive) {
  DatalogContext ctx;
  auto program = ParseProgram(text, ctx);
  DQSQ_CHECK_OK(program.status());
  Database db(&ctx);
  EvalOptions options;
  options.seminaive = seminaive;
  auto stats = Evaluate(*program, db, options);
  DQSQ_CHECK_OK(stats.status());
  return db.Dump();
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, AllStrategiesAgree) {
  GeneratedCase c = GenerateProgram(GetParam());
  SCOPED_TRACE(c.program + "?- " + c.query);
  std::vector<std::string> expected;
  bool first = true;
  for (Strategy strategy :
       {Strategy::kNaive, Strategy::kSemiNaive, Strategy::kMagic,
        Strategy::kQsq, Strategy::kQsqAllVars, Strategy::kQsqIterative}) {
    DatalogContext ctx;
    auto answers =
        testing::RunQueryStrings(ctx, c.program, c.query, strategy);
    if (first) {
      expected = answers;
      first = false;
    } else {
      EXPECT_EQ(answers, expected) << StrategyName(strategy);
    }
  }
}

TEST_P(DifferentialTest, QsqRealizationsBuildIdenticalTables) {
  GeneratedCase c = GenerateProgram(GetParam());
  SCOPED_TRACE(c.program + "?- " + c.query);
  DatalogContext c1, c2;
  QueryResult rw =
      testing::RunQuery(c1, c.program, c.query, Strategy::kQsq);
  QueryResult td =
      testing::RunQuery(c2, c.program, c.query, Strategy::kQsqIterative);
  EXPECT_EQ(rw.answer_facts, td.answer_facts);
}

TEST_P(DifferentialTest, SemiNaiveDatabaseMatchesNaive) {
  GeneratedCase c = GenerateProgram(GetParam());
  SCOPED_TRACE(c.program);
  EXPECT_EQ(EvaluateToDump(c.program, /*seminaive=*/true),
            EvaluateToDump(c.program, /*seminaive=*/false));
}

TEST_P(DifferentialTest, StratifiedNegationSemiNaiveMatchesNaive) {
  GeneratedCase c = GenerateProgram(GetParam(), /*negation=*/true);
  SCOPED_TRACE(c.program + "?- " + c.query);
  EXPECT_EQ(EvaluateToDump(c.program, /*seminaive=*/true),
            EvaluateToDump(c.program, /*seminaive=*/false));
  DatalogContext c1, c2;
  EXPECT_EQ(
      testing::RunQueryStrings(c1, c.program, c.query, Strategy::kSemiNaive),
      testing::RunQueryStrings(c2, c.program, c.query, Strategy::kNaive));
}

TEST_P(DifferentialTest, RuleOrderDoesNotChangeTheDatabase) {
  for (bool negation : {false, true}) {
    GeneratedCase c = GenerateProgram(GetParam(), negation);
    // One rule or fact per line: shuffle the lines.
    std::vector<std::string> lines;
    std::istringstream in(c.program);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    Rng rng(GetParam());
    rng.Shuffle(lines);
    std::string shuffled;
    for (const std::string& line : lines) shuffled += line + "\n";
    SCOPED_TRACE(c.program + "shuffled:\n" + shuffled);
    EXPECT_EQ(EvaluateToDump(shuffled, /*seminaive=*/true),
              EvaluateToDump(c.program, /*seminaive=*/true));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 201));

}  // namespace
}  // namespace dqsq
