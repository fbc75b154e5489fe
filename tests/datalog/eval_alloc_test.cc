// Steady-state allocation audit for the semi-naive hot path. The columnar
// engine's contract (DESIGN.md, "Columnar relation storage") is that once
// scratch buffers and tables are warm, evaluation passes allocate nothing:
// probes copy into reusable scratch, dedup and indices grow geometrically,
// and the final pass, whose joins find only known facts, inserts nothing.
// This test counts global operator new calls per pass via
// EvalOptions::round_hook and asserts the final pass is allocation-free.
// It also bounds the allocations of the per-query compile path (DESIGN.md
// §5a, "Compile path"): validation and the stratification of a positive
// program cost a constant, the QSQ rewrite a few per emitted rule.
//
// Note: the counters track every allocation in the process, so the test
// binary must stay single-threaded (gtest default).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "datalog/adornment.h"
#include "datalog/engine.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "datalog/qsq_rewrite.h"

namespace {
uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dqsq {
namespace {

struct RoundAllocs {
  static constexpr size_t kMaxRounds = 256;
  uint64_t at_round_end[kMaxRounds] = {};
  size_t rounds_seen = 0;
};

// Fixed-size recording (no allocation inside the hook itself).
void RecordRound(void* ctx, size_t round) {
  auto* rec = static_cast<RoundAllocs*>(ctx);
  ASSERT_LT(round, RoundAllocs::kMaxRounds);
  rec->at_round_end[round] = g_allocations;
  if (round + 1 > rec->rounds_seen) rec->rounds_seen = round + 1;
}

TEST(EvalAllocTest, FinalFixpointRoundAllocatesNothing) {
  DatalogContext ctx;
  // Cyclic transitive closure: 16 nodes in a ring. Semi-naive runs ~15
  // passes of real derivation (path lengths grow by one per pass) and then
  // one final pass that derives nothing and confirms the fixpoint.
  std::string program_text;
  constexpr int kNodes = 16;
  for (int i = 0; i < kNodes; ++i) {
    program_text += "edge(v" + std::to_string(i) + ", v" +
                    std::to_string((i + 1) % kNodes) + ").\n";
  }
  program_text += "path(X, Y) :- edge(X, Y).\n";
  program_text += "path(X, Y) :- path(X, Z), edge(Z, Y).\n";
  auto program = ParseProgram(program_text, ctx);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  Database db(&ctx);
  RoundAllocs rec;
  EvalOptions options;
  options.round_hook = RecordRound;
  options.round_hook_ctx = &rec;
  auto stats = Evaluate(*program, db, options);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_GE(rec.rounds_seen, 3u);  // ring TC is genuinely multi-round
  EXPECT_EQ(stats->facts_derived, size_t{kNodes} * kNodes + kNodes)
      << "ring TC derives every (X, Y) pair";

  // The last pass joined the previous pass's new paths and inserted
  // nothing: with warm scratch it must not allocate at all.
  uint64_t final_round_allocs = rec.at_round_end[rec.rounds_seen - 1] -
                                rec.at_round_end[rec.rounds_seen - 2];
  EXPECT_EQ(final_round_allocs, 0u)
      << "steady-state evaluation round allocated";
}

TEST(EvalAllocTest, LateDerivationRoundsAllocateOnlyForGrowth) {
  // Soft companion bound: across the whole run, allocation count stays
  // far below the number of facts derived — per-tuple allocation (the
  // pre-columnar unordered_map behavior) would exceed it many times over.
  DatalogContext ctx;
  std::string program_text;
  constexpr int kNodes = 24;
  for (int i = 0; i < kNodes; ++i) {
    program_text += "edge(v" + std::to_string(i) + ", v" +
                    std::to_string((i + 1) % kNodes) + ").\n";
  }
  program_text += "path(X, Y) :- edge(X, Y).\n";
  program_text += "path(X, Y) :- path(X, Z), edge(Z, Y).\n";
  auto program = ParseProgram(program_text, ctx);
  ASSERT_TRUE(program.ok());

  Database db(&ctx);
  uint64_t before = g_allocations;
  EvalOptions options;
  auto stats = Evaluate(*program, db, options);
  uint64_t during = g_allocations - before;
  ASSERT_TRUE(stats.ok());
  ASSERT_GT(stats->facts_derived, 500u);
  EXPECT_LT(during, stats->facts_derived)
      << "more than one allocation per derived fact: per-tuple allocation "
         "crept back into the hot path";
}

// A chain of `n` + 1 rules, each with a disequality: p<i> reads p<i-1>,
// so a query on p<n> with a bound first argument demands every rule.
std::string ChainProgram(int n) {
  std::string text = "p0(X, Y) :- e(X, Y).\n";
  for (int i = 1; i <= n; ++i) {
    text += "p" + std::to_string(i) + "(X, Y) :- p" + std::to_string(i - 1) +
            "(X, Z), e(Z, Y), X != Y.\n";
  }
  return text;
}

TEST(EvalAllocTest, StratifyingAPositiveProgramAllocatesOnce) {
  DatalogContext ctx;
  auto program = ParseProgram(ChainProgram(1000), ctx);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  uint64_t before = g_allocations;
  auto strata = StratifyProgram(*program, ctx);
  uint64_t during = g_allocations - before;
  ASSERT_TRUE(strata.ok());
  EXPECT_EQ(strata->size(), 1001u);
  EXPECT_LE(during, 1u) << "a positive program is one stratum: only the "
                           "result vector should allocate";
}

TEST(EvalAllocTest, ValidationAllocatesPerProgramNotPerRule) {
  DatalogContext ctx;
  auto program = ParseProgram(ChainProgram(1000), ctx);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  uint64_t before = g_allocations;
  Status status = ValidateProgram(*program, ctx);
  uint64_t during = g_allocations - before;
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_LE(during, 16u) << "ValidateProgram allocated per rule over "
                         << program->rules.size() << " rules";
}

TEST(EvalAllocTest, QsqRewriteAllocatesFewPerEmittedRule) {
  DatalogContext ctx;
  auto program = ParseProgram(ChainProgram(400), ctx);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  auto query = ParseQuery("p400(a, Y)", ctx);
  ASSERT_TRUE(query.ok());
  Adornment adornment = QueryAdornment(query->atom);
  auto adorned = AdornProgram(*program, query->atom.rel, adornment);
  ASSERT_TRUE(adorned.ok()) << adorned.status().ToString();
  uint64_t before = g_allocations;
  auto rewrite = QsqRewrite(*adorned, query->atom.rel, adornment, ctx);
  uint64_t during = g_allocations - before;
  ASSERT_TRUE(rewrite.ok()) << rewrite.status().ToString();
  const size_t rules = rewrite->program.rules.size();
  ASSERT_GT(rules, 1000u);
  // Counts the output validation too. Emitted rules share their source
  // rule's variable names, so copying them costs no allocation: the
  // rewrite measures 6.3 per emitted rule (7.3 when each copied them).
  EXPECT_LE(during, 7 * rules)
      << during << " allocations for " << rules << " emitted rules";
}

}  // namespace
}  // namespace dqsq
