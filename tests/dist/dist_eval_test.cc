#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "datalog/engine.h"
#include "dist/dnaive.h"
#include "dist/dqsq.h"
#include "dist/global.h"
#include "tests/test_util.h"

namespace dqsq::dist {
namespace {

using ::dqsq::testing::AnswerStrings;

// The paper's Figure 3 distributed program.
const char* kFigure3 = R"(
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

struct Parsed {
  Program program;
  ParsedQuery query;
};

Parsed ParseAll(DatalogContext& ctx, const std::string& program_text,
                const std::string& query_text) {
  auto program = ParseProgram(program_text, ctx);
  DQSQ_CHECK_OK(program.status());
  auto query = ParseQuery(query_text, ctx);
  DQSQ_CHECK_OK(query.status());
  return Parsed{*std::move(program), *std::move(query)};
}

struct RunOutcome {
  std::vector<std::string> answers;  // rendered while the context is alive
  NetworkStats stats;
  bool quiescent = false;
};

StatusOr<RunOutcome> Solve(bool qsq, const std::string& program_text,
                           const std::string& query_text,
                           const DistOptions& opts) {
  DatalogContext ctx;
  Parsed p = ParseAll(ctx, program_text, query_text);
  DQSQ_ASSIGN_OR_RETURN(DistResult result,
                        qsq ? DistQsqSolve(ctx, p.program, p.query, opts)
                            : DistNaiveSolve(ctx, p.program, p.query, opts));
  RunOutcome out;
  out.answers = AnswerStrings(result.answers, ctx);
  out.stats = result.net_stats;
  out.quiescent = result.quiescent_at_detection;
  return out;
}

TEST(DistNaiveTest, Figure3MatchesCentralized) {
  DatalogContext ctx;
  Parsed p = ParseAll(ctx, kFigure3, "r@r(\"1\", Y)");

  Database db(&ctx);
  auto central = SolveQuery(p.program, db, p.query, Strategy::kSemiNaive);
  ASSERT_TRUE(central.ok());

  auto dist = DistNaiveSolve(ctx, p.program, p.query, DistOptions{});
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_EQ(AnswerStrings(dist->answers, ctx),
            AnswerStrings(central->answers, ctx));
  EXPECT_EQ(AnswerStrings(dist->answers, ctx),
            (std::vector<std::string>{"2", "4"}));
  EXPECT_EQ(dist->num_peers, 3u);
  EXPECT_GT(dist->net_stats.messages_delivered, 0u);
}

TEST(DistQsqTest, Figure3MatchesCentralizedQsq) {
  // Theorem 1: dQSQ computes the same facts as QSQ and the same answers.
  DatalogContext ctx;
  Parsed p = ParseAll(ctx, kFigure3, "r@r(\"1\", Y)");

  Database db(&ctx);
  auto central = SolveQuery(p.program, db, p.query, Strategy::kQsq);
  ASSERT_TRUE(central.ok());

  auto dist = DistQsqSolve(ctx, p.program, p.query, DistOptions{});
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  EXPECT_EQ(AnswerStrings(dist->answers, ctx),
            AnswerStrings(central->answers, ctx));
  EXPECT_EQ(AnswerStrings(dist->answers, ctx),
            (std::vector<std::string>{"2", "4"}));
}

TEST(DistQsqTest, Theorem1AdornedRelationsMatchCentralized) {
  // Theorem 1's bijection on adorned relations: the union over peers of
  // each adorned answer relation equals the centralized one.
  DatalogContext ctx_c;
  Parsed pc = ParseAll(ctx_c, kFigure3, "r@r(\"1\", Y)");
  Database db(&ctx_c);
  auto central = SolveQuery(pc.program, db, pc.query, Strategy::kQsq);
  ASSERT_TRUE(central.ok());

  DatalogContext ctx_d;
  Parsed pd = ParseAll(ctx_d, kFigure3, "r@r(\"1\", Y)");
  auto dist = DistQsqSolve(ctx_d, pd.program, pd.query, DistOptions{});
  ASSERT_TRUE(dist.ok());

  // Centralized adorned answers of the intensional relations. (The
  // centralized engine also adorns the fact-defined relations a/b/c —
  // facts are rules to it — while peers load them extensionally and join
  // directly; Theorem 1's bijection concerns the intensional relations.)
  size_t central_ans = 0;
  for (const char* rel : {"r__bf", "s__bf", "t__bf"}) {
    central_ans += CountRelationFacts(db, rel);
  }
  EXPECT_EQ(dist->answer_facts, central_ans);
}

TEST(DistTest, SeedsDoNotChangeResults) {
  // Arbitrary asynchrony must not affect the fixpoint (confluence of the
  // naive distributed evaluation, §3.1).
  std::vector<std::string> naive_expected, qsq_expected;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    DatalogContext ctx;
    Parsed p = ParseAll(ctx, kFigure3, "r@r(\"1\", Y)");
    DistOptions opts;
    opts.seed = seed;
    auto naive = DistNaiveSolve(ctx, p.program, p.query, opts);
    ASSERT_TRUE(naive.ok());
    auto qsq = DistQsqSolve(ctx, p.program, p.query, opts);
    ASSERT_TRUE(qsq.ok());
    auto ns = AnswerStrings(naive->answers, ctx);
    auto qs = AnswerStrings(qsq->answers, ctx);
    if (seed == 1) {
      naive_expected = ns;
      qsq_expected = qs;
    } else {
      EXPECT_EQ(ns, naive_expected) << "seed " << seed;
      EXPECT_EQ(qs, qsq_expected) << "seed " << seed;
    }
  }
}

TEST(DistQsqTest, MaterializesLessThanDistNaive) {
  // A distributed chain: peers p0..p3 each own a segment; the query binds
  // the start, so dQSQ only walks the demanded suffix.
  std::string program;
  const int kPeers = 4, kPerPeer = 8;
  for (int p = 0; p < kPeers; ++p) {
    for (int i = 0; i < kPerPeer; ++i) {
      int from = p * kPerPeer + i;
      int to = from + 1;
      program += "edge@peer" + std::to_string(p) + "(v" +
                 std::to_string(from) + ", v" + std::to_string(to) + ").\n";
    }
  }
  // path@peerP(X,Y) walks edges within the peer and hops to the next.
  for (int p = 0; p < kPeers; ++p) {
    std::string self = "peer" + std::to_string(p);
    program += "path@" + self + "(X, Y) :- edge@" + self + "(X, Y).\n";
    program += "path@" + self + "(X, Y) :- edge@" + self +
               "(X, Z), path@" + self + "(Z, Y).\n";
    if (p + 1 < kPeers) {
      std::string next = "peer" + std::to_string(p + 1);
      program += "path@" + self + "(X, Y) :- edge@" + self + "(X, Z), path@" +
                 next + "(Z, Y).\n";
      // Hop rule: the last edge of this peer continues at the next peer.
    }
  }
  DatalogContext ctx1;
  Parsed p1 = ParseAll(ctx1, program, "path@peer2(v20, Y)");
  auto naive = DistNaiveSolve(ctx1, p1.program, p1.query, DistOptions{});
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();

  DatalogContext ctx2;
  Parsed p2 = ParseAll(ctx2, program, "path@peer2(v20, Y)");
  auto qsq = DistQsqSolve(ctx2, p2.program, p2.query, DistOptions{});
  ASSERT_TRUE(qsq.ok()) << qsq.status().ToString();

  EXPECT_EQ(AnswerStrings(naive->answers, ctx1),
            AnswerStrings(qsq->answers, ctx2));
  EXPECT_FALSE(qsq->answers.empty());
  // Naive materializes every path fact of the activated sub-program; QSQ
  // only those reachable from v20.
  EXPECT_LT(qsq->answer_facts, naive->answer_facts);
  EXPECT_LT(qsq->net_stats.tuples_shipped, naive->net_stats.tuples_shipped);
}

TEST(DistMetricsTest, DqsqShipsFewerTuplesThanDistNaiveOnE3Chain) {
  // The E3 bench workload: a chain over 4 peers, demand bound at peer0 so
  // it spans every peer. Scope the process-wide registry to each run with
  // snapshot diffs, check the registry agrees with the per-run
  // NetworkStats view, and assert the paper's communication claim on the
  // tuple-shipping counter. (Total message counts are NOT lower for dQSQ:
  // subquery/install control traffic plus Dijkstra-Scholten acks outweigh
  // the saved data messages at this scale; the claim is about tuples.)
  const std::string program = bench::DistributedChainProgram(4, 16);
  const std::string query = "path@peer0(v0, Y)";
  auto& registry = MetricsRegistry::Global();

  DatalogContext ctx1;
  Parsed p1 = ParseAll(ctx1, program, query);
  MetricsSnapshot before_naive = registry.Snapshot();
  auto naive = DistNaiveSolve(ctx1, p1.program, p1.query, DistOptions{});
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  MetricsSnapshot naive_diff = registry.Snapshot().Diff(before_naive);

  DatalogContext ctx2;
  Parsed p2 = ParseAll(ctx2, program, query);
  MetricsSnapshot before_qsq = registry.Snapshot();
  auto qsq = DistQsqSolve(ctx2, p2.program, p2.query, DistOptions{});
  ASSERT_TRUE(qsq.ok()) << qsq.status().ToString();
  MetricsSnapshot qsq_diff = registry.Snapshot().Diff(before_qsq);

  EXPECT_EQ(AnswerStrings(naive->answers, ctx1),
            AnswerStrings(qsq->answers, ctx2));

  // The registry's counters are the NetworkStats numbers.
  EXPECT_EQ(naive_diff.Value("dist.net.tuples_shipped"),
            naive->net_stats.tuples_shipped);
  EXPECT_EQ(qsq_diff.Value("dist.net.tuples_shipped"),
            qsq->net_stats.tuples_shipped);
  EXPECT_EQ(naive_diff.Total("dist.net.messages_delivered"),
            naive->net_stats.messages_delivered);
  EXPECT_EQ(qsq_diff.Total("dist.net.messages_delivered"),
            qsq->net_stats.messages_delivered);
  EXPECT_EQ(naive_diff.Total("dist.net.channel_messages"),
            naive->net_stats.messages_delivered);

  // dQSQ ships strictly fewer tuples than distributed naive.
  EXPECT_LT(qsq_diff.Value("dist.net.tuples_shipped"),
            naive_diff.Value("dist.net.tuples_shipped"));

  // Per-engine accounting fired exactly once per run.
  EXPECT_EQ(naive_diff.Value("dist.solve.queries", {{"engine", "dnaive"}}),
            1u);
  EXPECT_EQ(qsq_diff.Value("dist.solve.queries", {{"engine", "dqsq"}}), 1u);
  // One subquery message per peer along the demand chain (at least).
  EXPECT_GE(qsq_diff.Total("dist.peer.subqueries_received"), 4u);
}

// A NetworkStats field and the registry counter that reports it. `total`
// sums the counter over its label sets (the {peer=} crash-path counters);
// `shim_only` rows exist only while the reliable shim is engaged.
struct NetCounterRow {
  const char* metric;
  size_t NetworkStats::*field;
  bool total = false;
  bool shim_only = false;
};

const NetCounterRow kNetCounterRows[] = {
    {"dist.net.messages_delivered", &NetworkStats::messages_delivered, true},
    {"dist.net.tuples_shipped", &NetworkStats::tuples_shipped},
    {"dist.net.rules_shipped", &NetworkStats::rules_shipped},
    {"dist.net.wire_messages", &NetworkStats::wire_messages, false, true},
    {"dist.net.wire_bytes", &NetworkStats::wire_bytes, false, true},
    {"dist.net.channel_messages", &NetworkStats::wire_messages, true},
    {"dist.net.dropped", &NetworkStats::dropped},
    {"dist.net.duplicated", &NetworkStats::duplicated},
    {"dist.net.delayed", &NetworkStats::delayed},
    {"dist.net.retransmits", &NetworkStats::retransmits},
    {"dist.net.spurious", &NetworkStats::spurious},
    {"dist.net.transport_acks", &NetworkStats::transport_acks},
    {"dist.net.sacked", &NetworkStats::sacked},
    {"dist.net.fast_retransmits", &NetworkStats::fast_retransmits},
    {"dist.net.window_stalls", &NetworkStats::window_stalls},
    {"dist.net.window_drained", &NetworkStats::window_drained},
    {"dist.net.rto_samples", &NetworkStats::rtt_samples},
    {"dist.net.crashes", &NetworkStats::crashes, true},
    {"dist.net.restarts", &NetworkStats::restarts, true},
    {"dist.net.stale_epoch_drops", &NetworkStats::stale_epoch_drops},
    {"dist.net.crash_drops", &NetworkStats::crash_drops},
    {"dist.net.snapshot_bytes", &NetworkStats::snapshot_bytes, true},
    {"dist.net.wal_records", &NetworkStats::wal_records},
    {"dist.net.migrations", &NetworkStats::migrations, true},
};

bool Registered(const MetricsSnapshot& snapshot, const std::string& name) {
  for (const MetricSample& s : snapshot.samples) {
    if (s.name == name) return true;
  }
  return false;
}

TEST(DistMetricsTest, RegistryMatchesNetworkStatsOnEveryWire) {
  // The per-run NetworkStats and the registry diff of the same run report
  // the same numbers, field by field, on a perfect wire, a lossy wire and
  // a crash plan with a live migration. An event that never fired leaves
  // its metric unregistered: a run registers nothing it did not count.
  struct Wire {
    const char* name;
    FaultPlan plan;
    std::vector<size_t NetworkStats::*> fired;  // must be non-zero
  };
  std::vector<Wire> wires;
  wires.push_back({"perfect", FaultPlan{}, {}});
  {
    FaultPlan lossy;
    lossy.drop = 0.15;
    lossy.duplicate = 0.1;
    lossy.delay = 0.2;
    wires.push_back({"lossy", lossy,
                     {&NetworkStats::dropped, &NetworkStats::duplicated,
                      &NetworkStats::delayed, &NetworkStats::retransmits}});
  }
  {
    FaultPlan crash;
    crash.crash.crash_at_step = {{/*at_step=*/8, /*peer_index=*/0}};
    crash.crash.migrate_at_step = {{/*at_step=*/20, /*peer_index=*/1}};
    crash.crash.down_for = 8;
    crash.crash.checkpoint_every = 2;
    wires.push_back({"crash+migration", crash,
                     {&NetworkStats::crashes, &NetworkStats::restarts,
                      &NetworkStats::migrations, &NetworkStats::wal_records,
                      &NetworkStats::snapshot_bytes}});
  }
  auto& registry = MetricsRegistry::Global();
  for (const Wire& wire : wires) {
    for (bool qsq : {false, true}) {
      SCOPED_TRACE(std::string(wire.name) + (qsq ? " dqsq" : " dnaive"));
      DistOptions opts;
      opts.faults = wire.plan;
      MetricsSnapshot before = registry.Snapshot();
      auto run = Solve(qsq, kFigure3, "r@r(\"1\", Y)", opts);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      MetricsSnapshot after = registry.Snapshot();
      MetricsSnapshot diff = after.Diff(before);
      const NetworkStats& stats = run->stats;
      for (size_t NetworkStats::*field : wire.fired) {
        EXPECT_GT(stats.*field, 0u);
      }
      for (const NetCounterRow& row : kNetCounterRows) {
        SCOPED_TRACE(row.metric);
        const size_t expected =
            row.shim_only && !wire.plan.active() ? 0 : stats.*row.field;
        if (expected == 0) {
          EXPECT_EQ(diff.Total(row.metric), 0u);
          if (!Registered(before, row.metric)) {
            EXPECT_FALSE(Registered(after, row.metric))
                << "registered by a run that never counted it";
          }
        } else if (row.total) {
          EXPECT_EQ(diff.Total(row.metric), expected);
        } else {
          EXPECT_EQ(diff.Value(row.metric), expected);
        }
      }
      if (!wire.plan.active()) {
        // Without the shim every wire copy is a first delivery.
        EXPECT_EQ(diff.Value("dist.net.bytes"), stats.wire_bytes);
      }
    }
  }
}

TEST(DistTest, GlobalProgramSemanticsMatch) {
  // The distributed result equals evaluating P^g centrally (the paper's
  // definition of dDatalog semantics).
  DatalogContext ctx;
  Parsed p = ParseAll(ctx, kFigure3, "r@r(\"1\", Y)");
  auto global = GlobalProgram(p.program, ctx);
  ASSERT_TRUE(global.ok());
  auto gquery = GlobalQuery(p.query, ctx);
  ASSERT_TRUE(gquery.ok());
  Database db(&ctx);
  auto central = SolveQuery(*global, db, *gquery, Strategy::kSemiNaive);
  ASSERT_TRUE(central.ok());

  auto dist = DistNaiveSolve(ctx, p.program, p.query, DistOptions{});
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(AnswerStrings(dist->answers, ctx),
            AnswerStrings(central->answers, ctx));
}

TEST(DistTest, FunctionSymbolsAcrossPeers) {
  DatalogContext ctx;
  Parsed p = ParseAll(ctx, R"(
    base@a(c1).
    wrap@b(f(X)) :- base@a(X).
    deep@c(g(Y)) :- wrap@b(Y).
  )",
                      "deep@c(W)");
  auto naive = DistNaiveSolve(ctx, p.program, p.query, DistOptions{});
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(AnswerStrings(naive->answers, ctx),
            (std::vector<std::string>{"g(f(c1))"}));

  DatalogContext ctx2;
  Parsed p2 = ParseAll(ctx2, R"(
    base@a(c1).
    wrap@b(f(X)) :- base@a(X).
    deep@c(g(Y)) :- wrap@b(Y).
  )",
                       "deep@c(W)");
  auto qsq = DistQsqSolve(ctx2, p2.program, p2.query, DistOptions{});
  ASSERT_TRUE(qsq.ok()) << qsq.status().ToString();
  EXPECT_EQ(AnswerStrings(qsq->answers, ctx2),
            (std::vector<std::string>{"g(f(c1))"}));
}

TEST(DistTest, DisequalitiesAcrossPeers) {
  const char* program = R"(
    node@a(x). node@a(y).
    other@b(x). other@b(y).
    pair@a(X, Y) :- node@a(X), other@b(Y), X != Y.
  )";
  DatalogContext ctx;
  Parsed p = ParseAll(ctx, program, "pair@a(U, V)");
  auto naive = DistNaiveSolve(ctx, p.program, p.query, DistOptions{});
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(AnswerStrings(naive->answers, ctx),
            (std::vector<std::string>{"x,y", "y,x"}));

  DatalogContext ctx2;
  Parsed p2 = ParseAll(ctx2, program, "pair@a(U, V)");
  auto qsq = DistQsqSolve(ctx2, p2.program, p2.query, DistOptions{});
  ASSERT_TRUE(qsq.ok()) << qsq.status().ToString();
  EXPECT_EQ(AnswerStrings(qsq->answers, ctx2),
            (std::vector<std::string>{"x,y", "y,x"}));
}

TEST(DistTest, DijkstraScholtenDrivesTermination) {
  // The drivers stop when the root's DS detection fires;
  // RunUntilTermination verifies quiescence at that instant and fails
  // otherwise — so a passing run IS the safety check. Message counts
  // include the acknowledgments (>= one per basic message).
  DatalogContext ctx;
  Parsed p = ParseAll(ctx, kFigure3, "r@r(\"1\", Y)");
  auto dist = DistQsqSolve(ctx, p.program, p.query, DistOptions{});
  ASSERT_TRUE(dist.ok()) << dist.status().ToString();
  // Basic messages (tuples + control minus acks) are each acked once.
  size_t basic = dist->net_stats.messages_delivered / 2;
  EXPECT_GE(dist->net_stats.messages_delivered, 2 * basic);
  EXPECT_GT(basic, 0u);
}

TEST(DistOptionsTest, NumShardsIsOneOrRejected) {
  // num_shards survives only for source compatibility. 1 must leave the
  // wire trajectory untouched — every counter pins equal to the default —
  // and anything above 1 is refused before a cluster is built.
  for (bool qsq : {false, true}) {
    auto base = Solve(qsq, kFigure3, "r@r(\"1\", Y)", DistOptions{});
    ASSERT_TRUE(base.ok());
    DistOptions opts;
    opts.num_shards = 1;
    auto k1 = Solve(qsq, kFigure3, "r@r(\"1\", Y)", opts);
    ASSERT_TRUE(k1.ok());
    EXPECT_EQ(k1->answers, base->answers);
    EXPECT_EQ(k1->stats.messages_delivered, base->stats.messages_delivered);
    EXPECT_EQ(k1->stats.tuples_shipped, base->stats.tuples_shipped);
    EXPECT_EQ(k1->stats.wire_messages, base->stats.wire_messages);
    EXPECT_EQ(k1->stats.wire_bytes, base->stats.wire_bytes);
    opts.num_shards = 2;
    auto k2 = Solve(qsq, kFigure3, "r@r(\"1\", Y)", opts);
    EXPECT_EQ(k2.status().code(), StatusCode::kInvalidArgument)
        << k2.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Reliable-delivery shim under many concurrently owed channels.
// ---------------------------------------------------------------------------

/// Every peer's path rules hop into every peer, so demand and bindings
/// cross all peers·(peers-1) directed channels at once.
std::string MeshProgram(int peers, int per_peer) {
  std::string program = bench::DistributedChainProgram(peers, per_peer);
  for (int p = 0; p < peers; ++p) {
    std::string self = "peer" + std::to_string(p);
    for (int q = 0; q < peers; ++q) {
      if (q == p || q == p + 1) continue;  // the chain already hops there
      program += "path@" + self + "(X, Y) :- edge@" + self + "(X, Z), path@" +
                 "peer" + std::to_string(q) + "(Z, Y).\n";
    }
  }
  return program;
}

TEST(DistShimTest, ManyOwedChannelsTerminate) {
  // Regression for the standalone-ack livelock: re-emitting every owed
  // standalone ack each ack_delay steps outruns the wire's
  // one-delivery-per-step drain rate once ~ack_delay channels owe at
  // once; the discharging acks queue behind the flood they created,
  // logical traffic starves, and Dijkstra-Scholten never terminates. The
  // uncapped standalone-ack backoff (ReliableTransport::PollWire) is the
  // only defense: the simulated wire delivers every copy it is given, as
  // the socket wire does. This 30-channel mesh exhausts its step budget
  // without the backoff and terminates with it.
  // The shim is engaged with a vanishing duplicate probability so the
  // wire itself stays effectively lossless — the livelock needs no
  // actual faults.
  const std::string mesh = MeshProgram(6, 4);
  for (bool qsq : {false, true}) {
    auto base = Solve(qsq, mesh, "path@peer0(v0, Y)", DistOptions{});
    ASSERT_TRUE(base.ok()) << base.status().ToString();
    ASSERT_FALSE(base->answers.empty());
    DistOptions opts;
    opts.faults.duplicate = 1e-12;  // engages the shim, never fires
    opts.max_network_steps = 60'000;
    auto run = Solve(qsq, mesh, "path@peer0(v0, Y)", opts);
    ASSERT_TRUE(run.ok()) << (qsq ? "dqsq" : "dnaive") << ": "
                          << run.status().ToString();
    EXPECT_EQ(run->answers, base->answers);
    EXPECT_TRUE(run->quiescent);
    // And with real faults: a lossy, reordering wire still converges to
    // the lossless answers.
    DistOptions lossy;
    lossy.faults.drop = 0.02;
    lossy.faults.delay = 0.05;
    auto lossy_run = Solve(qsq, mesh, "path@peer0(v0, Y)", lossy);
    ASSERT_TRUE(lossy_run.ok()) << (qsq ? "dqsq" : "dnaive") << " lossy: "
                                << lossy_run.status().ToString();
    EXPECT_EQ(lossy_run->answers, base->answers);
  }
}

// ---------------------------------------------------------------------------
// Wire batching: every fixpoint flush packs its kTuples payloads per target.
// ---------------------------------------------------------------------------

std::vector<std::string> CentralQsqAnswers(const std::string& program_text,
                                           const std::string& query_text) {
  DatalogContext ctx;
  Parsed p = ParseAll(ctx, program_text, query_text);
  Database db(&ctx);
  auto central = SolveQuery(p.program, db, p.query, Strategy::kQsq);
  DQSQ_CHECK_OK(central.status());
  return AnswerStrings(central->answers, ctx);
}

// Peer a defines q through three relations of peer b, so each fixpoint at
// a derives bindings for three in__ relations owned by b — three flushes
// to one target, packed into one envelope.
const char* kFanOut = R"(
  q@a(X, Y) :- e@b(X, Y).
  q@a(X, Y) :- f@b(X, Y).
  q@a(X, Y) :- g@b(X, Y).
  e@b("1", "2").
  f@b("1", "3").
  g@b("1", "4").
)";

TEST(WireBatchTest, BatchingPreservesAnswersAndNeverAddsMessages) {
  // On the chain a fixpoint flush carries at most one relation per
  // target, so no sections form and every flush is its own message: the
  // counts pinned here are those of the one-message-per-flush wire.
  const std::string chain = bench::DistributedChainProgram(4, 16);
  const std::string query = "path@peer0(v0, Y)";
  const std::vector<std::string> central = CentralQsqAnswers(chain, query);
  ASSERT_FALSE(central.empty());
  auto& registry = MetricsRegistry::Global();
  struct Pinned {
    bool qsq;
    size_t messages;
    size_t tuples;
  };
  for (Pinned pin : {Pinned{false, 20, 1176}, Pinned{true, 34, 145}}) {
    MetricsSnapshot before = registry.Snapshot();
    auto run = Solve(pin.qsq, chain, query, DistOptions{});
    MetricsSnapshot diff = registry.Snapshot().Diff(before);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->answers, central);
    EXPECT_EQ(run->stats.messages_delivered, pin.messages)
        << (pin.qsq ? "dqsq" : "dnaive");
    EXPECT_EQ(run->stats.tuples_shipped, pin.tuples)
        << (pin.qsq ? "dqsq" : "dnaive");
    EXPECT_EQ(diff.Total("dist.net.batched_tuples"), 0u);
  }
}

TEST(WireBatchTest, DqsqFanOutPacksSections) {
  const std::string query = "q@a(\"1\", Y)";
  const std::vector<std::string> central = CentralQsqAnswers(kFanOut, query);
  EXPECT_EQ(central, (std::vector<std::string>{"2", "3", "4"}));
  auto& registry = MetricsRegistry::Global();
  MetricsSnapshot before = registry.Snapshot();
  auto run = Solve(/*qsq=*/true, kFanOut, query, DistOptions{});
  MetricsSnapshot diff = registry.Snapshot().Diff(before);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->answers, central);
  // One message per flush would take 24 messages (DS acks included).
  EXPECT_EQ(run->stats.messages_delivered, 16u);
  EXPECT_EQ(run->stats.tuples_shipped, 7u);
  EXPECT_GT(diff.Total("dist.net.batched_tuples"), 0u);
}

TEST(WireBatchTest, TinyBudgetSplitsOversizedPayloads) {
  const std::string chain = bench::DistributedChainProgram(3, 16);
  const std::string query = "path@peer0(v0, Y)";
  auto& registry = MetricsRegistry::Global();
  auto base = Solve(false, chain, query, DistOptions{});
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->answers, CentralQsqAnswers(chain, query));
  DistOptions opts;
  opts.wire_batch.max_bytes = 24;  // one ~2-ary row past the 16-byte header
  MetricsSnapshot before = registry.Snapshot();
  auto split = Solve(false, chain, query, opts);
  MetricsSnapshot diff = registry.Snapshot().Diff(before);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_EQ(split->answers, base->answers);
  EXPECT_EQ(split->stats.tuples_shipped, base->stats.tuples_shipped);
  EXPECT_GT(diff.Total("dist.net.split_tuples"), 0u);
  EXPECT_GT(split->stats.messages_delivered, base->stats.messages_delivered);
}

}  // namespace
}  // namespace dqsq::dist
