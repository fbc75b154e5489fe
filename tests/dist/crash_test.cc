// Crash-injection harness: peers lose their volatile state mid-run and are
// reconstructed from durable snapshots + write-ahead-log replay under a
// fresh epoch (dist/snapshot.h). The headline property mirrors the fault
// soak of reliable_test.cc: under any (fault plan × crash schedule) pair,
// both distributed engines return the lossless answers and the logical
// traffic counters match the crash-free run exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "dist/dnaive.h"
#include "dist/dqsq.h"
#include "dist/network.h"
#include "dist/peer.h"
#include "dist/reliable.h"
#include "dist/snapshot.h"
#include "tests/test_util.h"

namespace dqsq::dist {
namespace {

using ::dqsq::testing::AnswerStrings;

Message Basic(SymbolId from, SymbolId to) {
  Message m;
  m.kind = MessageKind::kTuples;
  m.from = from;
  m.to = to;
  return m;
}

Message Ack(SymbolId from, SymbolId to, uint64_t ack) {
  Message m;
  m.kind = MessageKind::kTransportAck;
  m.from = from;
  m.to = to;
  m.ack = ack;
  return m;
}

// ---------------------------------------------------------------------------
// Epoch protocol (transport level).
// ---------------------------------------------------------------------------

TEST(EpochTest, EpochsStartAtZeroAndAdvancePerRestore) {
  ReliableTransport transport;
  EXPECT_EQ(transport.EpochOf(1), 0u);
  // On a crash-free run every wire emission is stamped with epoch 0 — the
  // wire stays byte-identical to the pre-crash-support transport.
  Message m = Basic(1, 2);
  transport.StampOutgoing(m, 0);
  EXPECT_EQ(m.epoch, 0u);

  PeerSnapshot snap;
  snap.peer = 3;  // no channel state: a fresh peer restarting is legal
  transport.RestorePeer(snap, /*new_epoch=*/2, /*now=*/5);
  EXPECT_EQ(transport.EpochOf(3), 2u);
  Message n = Basic(3, 2);
  transport.StampOutgoing(n, 6);
  EXPECT_EQ(n.epoch, 2u);
}

TEST(EpochTest, StalenessIsJudgedAgainstTheHighestWitnessedEpoch) {
  ReliableTransport transport;
  // Nothing witnessed yet: no message is stale.
  Message m = Basic(1, 2);
  m.seq = 1;
  m.epoch = 2;
  EXPECT_FALSE(transport.IsStale(m));
  // Delivery teaches the channel epoch 2 (a hello would do the same).
  transport.OnWireDelivery(m, 1);
  Message old = Basic(1, 2);
  old.seq = 1;
  old.epoch = 1;
  EXPECT_TRUE(transport.IsStale(old));   // pre-crash incarnation's copy
  Message fresh = Basic(1, 2);
  fresh.seq = 2;
  fresh.epoch = 2;
  EXPECT_FALSE(transport.IsStale(fresh));
  // The reverse channel is independent.
  Message reverse = Basic(2, 1);
  reverse.seq = 1;
  reverse.epoch = 0;
  EXPECT_FALSE(transport.IsStale(reverse));
}

TEST(EpochTest, HellosAnnounceTheNewEpochAndTheResumePoint) {
  ReliableTransport transport;
  // Build channel state for peer 1: it sends to 2 and receives from 3.
  Message out = Basic(1, 2);
  transport.StampOutgoing(out, 0);
  Message in1 = Basic(3, 1), in2 = Basic(3, 1);
  transport.StampOutgoing(in1, 0);
  transport.StampOutgoing(in2, 0);
  transport.OnWireDelivery(in1, 1);
  transport.OnWireDelivery(in2, 2);

  PeerSnapshot snap;
  transport.ExportPeer(1, &snap);
  ReliableTransport restored;
  restored.RestorePeer(snap, /*new_epoch=*/1, /*now=*/10);
  auto hellos = restored.MakeHellos(1, 10);
  ASSERT_EQ(hellos.size(), 2u);  // one per counterpart, ascending
  EXPECT_EQ(hellos[0].kind, MessageKind::kTransportHello);
  EXPECT_EQ(hellos[0].from, 1u);
  EXPECT_EQ(hellos[0].to, 2u);
  EXPECT_EQ(hellos[0].epoch, 1u);
  EXPECT_EQ(hellos[0].seq, 0u);  // unsequenced control traffic
  EXPECT_EQ(hellos[1].to, 3u);
  EXPECT_EQ(hellos[1].ack, 2u);  // resume point of the (3,1) channel
  // A hello is consumed by the transport, never dispatched to a peer.
  ReliableTransport receiver_side;
  EXPECT_EQ(receiver_side.OnWireDelivery(hellos[0], 11),
            ReliableTransport::Disposition::kControl);
}

// ---------------------------------------------------------------------------
// Restart invariants (death tests).
// ---------------------------------------------------------------------------

TEST(CrashRestartDeathTest, RestoringASnapshotFromALaterIncarnationDies) {
  ReliableTransport transport;
  PeerSnapshot snap;
  snap.peer = 1;
  snap.epoch = 5;
  EXPECT_DEATH(transport.RestorePeer(snap, /*new_epoch=*/5, /*now=*/0),
               "epoch regressed");
}

TEST(CrashRestartDeathTest, RestartingIntoAPastEpochDies) {
  ReliableTransport transport;
  PeerSnapshot snap;
  snap.peer = 1;
  snap.epoch = 0;
  transport.RestorePeer(snap, /*new_epoch=*/3, /*now=*/0);
  // new_epoch exceeds the snapshot's epoch but not the peer's current
  // incarnation: the peer would restart into an epoch it already used.
  EXPECT_DEATH(transport.RestorePeer(snap, /*new_epoch=*/2, /*now=*/1),
               "epoch regressed");
}

TEST(CrashRestartDeathTest, DeliveringToACrashedPeerDies) {
  DatalogContext ctx;
  SymbolId id = ctx.InternPeer("p");
  SymbolId other = ctx.InternPeer("q");
  DatalogPeer peer(id, &ctx, EvalOptions{});
  SimNetwork network(/*seed=*/1);
  network.Register(id, &peer);
  peer.Crash();
  Message m = Basic(other, id);
  EXPECT_DEATH((void)peer.OnMessage(m, network), "crashed peer");
}

// ---------------------------------------------------------------------------
// Regression: a restored pending queue must re-stamp its piggybacked acks.
// ---------------------------------------------------------------------------

TEST(CrashRestartTest, RestoredPendingQueueReStampsThePiggybackedAck) {
  // The pending queue stores messages stamped with a sequence number but
  // no ack (the ack is attached at transmission). Before the fix, a
  // restart replayed the stored bytes onto the wire verbatim, so a queue
  // drained after restart advertised the stale cumulative ack frozen at
  // enqueue time — rolling back the receiver's knowledge of the reverse
  // channel. The restored queue must drain through the normal
  // transmit path, which stamps the CURRENT ack, SACK set and epoch.
  ReliableConfig config;
  config.window = 1;
  ReliableTransport original(config);
  // Reverse traffic first: peer 1 has received seq 1 of channel (2,1).
  Message r1 = Basic(2, 1);
  original.StampOutgoing(r1, 0);
  original.OnWireDelivery(r1, 1);
  // Forward traffic: d1 transmits (carrying ack=1), d2 queues unstamped.
  Message d1 = Basic(1, 2), d2 = Basic(1, 2);
  EXPECT_TRUE(original.StampOutgoing(d1, 2));
  EXPECT_EQ(d1.ack, 1u);
  EXPECT_FALSE(original.StampOutgoing(d2, 2));  // window full: pending

  PeerSnapshot snap;
  original.ExportPeer(1, &snap);
  ASSERT_EQ(snap.senders.size(), 1u);
  ASSERT_EQ(snap.senders[0].pending.size(), 1u);
  EXPECT_EQ(snap.senders[0].pending[0].ack, 0u);  // stale stored stamp

  ReliableTransport restored(config);
  restored.RestorePeer(snap, /*new_epoch=*/1, /*now=*/10);
  // The receiver state moved on after the snapshot: seq 2 of (2,1) lands.
  Message r2 = Basic(2, 1);
  r2.seq = 2;
  restored.OnWireDelivery(r2, 11);
  // An ack for d1 opens the window; the pending entry drains.
  restored.OnWireDelivery(Ack(2, 1, 1), 12);
  auto drained = restored.PollWire(13);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].seq, 2u);
  EXPECT_FALSE(drained[0].retransmit);
  EXPECT_EQ(drained[0].ack, 2u)
      << "drained pending entry must carry the current cumulative ack, "
         "not the stamp frozen at enqueue time";
  EXPECT_EQ(drained[0].epoch, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end property: under every (fault plan × crash schedule) pair both
// engines return the lossless answers and the logical traffic matches.
// ---------------------------------------------------------------------------

// The paper's Figure 3 distributed program (three peers, mutual recursion
// across all of them) — same workload as the fault-injection soak.
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

struct PlanCase {
  const char* name;
  FaultPlan plan;
};

std::vector<PlanCase> FaultMatrix() {
  std::vector<PlanCase> cases;
  cases.push_back({"lossless", FaultPlan{}});
  FaultPlan drop;
  drop.drop = 0.1;
  cases.push_back({"drop=0.1", drop});
  FaultPlan dup;
  dup.duplicate = 0.1;
  cases.push_back({"dup=0.1", dup});
  FaultPlan delay;
  delay.delay = 0.3;
  delay.max_delay_steps = 12;
  cases.push_back({"delay=0.3", delay});
  FaultPlan all;
  all.drop = 0.1;
  all.duplicate = 0.1;
  all.delay = 0.2;
  cases.push_back({"all-three", all});
  return cases;
}

struct CrashCase {
  const char* name;
  CrashPlan crash;
};

std::vector<CrashCase> CrashMatrix() {
  std::vector<CrashCase> cases;
  CrashPlan single;
  single.crash_at_step = {{/*at_step=*/25, /*peer_index=*/0}};
  single.down_for = 16;
  single.checkpoint_every = 1;
  cases.push_back({"single@25", single});
  CrashPlan two;
  two.crash_at_step = {{/*at_step=*/20, /*peer_index=*/1},
                       {/*at_step=*/60, /*peer_index=*/0}};
  two.down_for = 24;
  two.checkpoint_every = 4;  // WAL replay covers up to 3 deliveries
  cases.push_back({"two@20,60", two});
  CrashPlan random;
  random.random_crash = 0.02;
  random.max_random_crashes = 2;
  random.down_for = 16;
  random.checkpoint_every = 2;
  cases.push_back({"random=0.02", random});
  return cases;
}

struct RunOutcome {
  std::vector<std::string> answers;  // rendered while the context is alive
  NetworkStats stats;
  bool quiescent_at_detection = false;
};

StatusOr<RunOutcome> Solve(bool qsq, uint64_t seed, const FaultPlan& plan,
                           const char* program_text = kFigure3,
                           const char* query_text = "r@r(\"1\", Y)") {
  DatalogContext ctx;
  auto program = ParseProgram(program_text, ctx);
  DQSQ_CHECK_OK(program.status());
  auto query = ParseQuery(query_text, ctx);
  DQSQ_CHECK_OK(query.status());
  DistOptions opts;
  opts.seed = seed;
  opts.faults = plan;
  DQSQ_ASSIGN_OR_RETURN(DistResult result,
                        qsq ? DistQsqSolve(ctx, *program, *query, opts)
                            : DistNaiveSolve(ctx, *program, *query, opts));
  RunOutcome outcome;
  outcome.answers = AnswerStrings(result.answers, ctx);
  outcome.stats = result.net_stats;
  outcome.quiescent_at_detection = result.quiescent_at_detection;
  return outcome;
}

TEST(CrashInjectionPropertyTest, SingleCrashRecoversAndMatchesLossless) {
  for (bool qsq : {false, true}) {
    auto lossless = Solve(qsq, /*seed=*/1, FaultPlan{});
    ASSERT_TRUE(lossless.ok()) << lossless.status().ToString();
    FaultPlan plan;
    plan.crash.crash_at_step = {{/*at_step=*/10, /*peer_index=*/0}};
    plan.crash.down_for = 16;
    auto result = Solve(qsq, /*seed=*/1, plan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->answers, lossless->answers);
    EXPECT_TRUE(result->quiescent_at_detection);
    EXPECT_EQ(result->stats.crashes, 1u) << (qsq ? "dqsq" : "dnaive");
    EXPECT_EQ(result->stats.restarts, 1u);
    EXPECT_GT(result->stats.snapshot_bytes, 0u);
    EXPECT_GT(result->stats.wal_records, 0u);
    // Logical traffic is crash-invariant: every payload dropped at the
    // down peer is repaired by the transport and counted exactly once.
    EXPECT_EQ(result->stats.messages_delivered,
              lossless->stats.messages_delivered);
    EXPECT_EQ(result->stats.tuples_shipped, lossless->stats.tuples_shipped);
  }
}

TEST(CrashInjectionPropertyTest, AnswersMatchAcrossSeedsPlansAndSchedules) {
  // The tentpole soak: 20 seeds × 5 fault plans × 3 crash schedules, both
  // engines. Diagnosis answers and the logical message counters must be
  // indistinguishable from the crash-free lossless run, and termination
  // detection must stay sound (no hang, no ack underflow).
  for (bool qsq : {false, true}) {
    auto lossless = Solve(qsq, /*seed=*/1, FaultPlan{});
    ASSERT_TRUE(lossless.ok()) << lossless.status().ToString();
    const auto expected = lossless->answers;
    ASSERT_FALSE(expected.empty());
    NetworkStats agg;
    for (const PlanCase& p : FaultMatrix()) {
      for (const CrashCase& c : CrashMatrix()) {
        for (uint64_t seed = 1; seed <= 20; ++seed) {
          FaultPlan plan = p.plan;
          plan.crash = c.crash;
          auto result = Solve(qsq, seed, plan);
          ASSERT_TRUE(result.ok())
              << (qsq ? "dqsq" : "dnaive") << " plan=" << p.name
              << " crash=" << c.name << " seed=" << seed << ": "
              << result.status().ToString();
          EXPECT_EQ(result->answers, expected)
              << (qsq ? "dqsq" : "dnaive") << " plan=" << p.name
              << " crash=" << c.name << " seed=" << seed;
          EXPECT_TRUE(result->quiescent_at_detection)
              << p.name << "/" << c.name << " seed=" << seed;
          EXPECT_EQ(result->stats.messages_delivered,
                    lossless->stats.messages_delivered)
              << p.name << "/" << c.name << " seed=" << seed;
          EXPECT_EQ(result->stats.tuples_shipped,
                    lossless->stats.tuples_shipped)
              << p.name << "/" << c.name << " seed=" << seed;
          EXPECT_EQ(result->stats.restarts, result->stats.crashes);
          agg.crashes += result->stats.crashes;
          agg.restarts += result->stats.restarts;
          agg.crash_drops += result->stats.crash_drops;
          agg.stale_epoch_drops += result->stats.stale_epoch_drops;
          agg.snapshot_bytes += result->stats.snapshot_bytes;
          agg.wal_records += result->stats.wal_records;
        }
      }
    }
    // The schedule machinery must actually fire across the soak.
    EXPECT_GT(agg.crashes, 0u) << (qsq ? "dqsq" : "dnaive");
    EXPECT_EQ(agg.restarts, agg.crashes);
    EXPECT_GT(agg.crash_drops, 0u);  // some wire traffic hit a down peer
    EXPECT_GT(agg.snapshot_bytes, 0u);
    EXPECT_GT(agg.wal_records, 0u);
  }
}

// Fan-out across three peers: one fixpoint can flush several relations to
// the same peer (under dQSQ, a's bindings for e/f/g at b and b's for h/k
// at c; under dnaive, c's h/k rows to b and b's e/f/g rows to a), so
// kTuples flushes leave as multi-section frames. Figure 3 and the E3
// chains never form a section.
const char* kFanOut = R"(
  q@a(X, Y) :- e@b(X, Y).
  q@a(X, Y) :- f@b(X, Y).
  q@a(X, Y) :- g@b(X, Y).
  e@b(X, Y) :- h@c(X, Y).
  f@b(X, Y) :- h@c(X, Z), k@c(Z, Y).
  g@b(X, Y) :- e@b(X, Z), k@c(Z, Y).
  g@b(X, Y) :- g@b(X, Z), k@c(Z, Y).
  h@c("1", "2").
  h@c("1", "3").
  h@c("2", "4").
  k@c("2", "5").
  k@c("3", "6").
  k@c("5", "7").
  k@c("6", "8").
  k@c("7", "9").
  k@c("8", "10").
)";

TEST(CrashInjectionPropertyTest, MultiSectionFramesSurviveCrashesAndFaults) {
  const char* query = "q@a(\"1\", Y)";
  auto& registry = MetricsRegistry::Global();
  for (bool qsq : {false, true}) {
    const char* engine = qsq ? "dqsq" : "dnaive";
    MetricsSnapshot before = registry.Snapshot();
    auto lossless = Solve(qsq, /*seed=*/1, FaultPlan{}, kFanOut, query);
    ASSERT_TRUE(lossless.ok()) << lossless.status().ToString();
    EXPECT_GT(registry.Snapshot().Diff(before).Total(
                  "dist.net.batched_tuples"),
              0u)
        << engine;
    ASSERT_FALSE(lossless->answers.empty());
    std::vector<PlanCase> plans = FaultMatrix();
    plans.erase(plans.begin());  // the lossless reference itself
    FaultPlan crash;
    crash.crash.crash_at_step = {
        {/*at_step=*/lossless->stats.messages_delivered / 2,
         /*peer_index=*/1}};
    crash.crash.down_for = 16;
    plans.push_back({"single-crash", crash});
    for (const PlanCase& p : plans) {
      uint64_t plan_batched = 0;
      for (uint64_t seed = 1; seed <= 5; ++seed) {
        before = registry.Snapshot();
        auto result = Solve(qsq, seed, p.plan, kFanOut, query);
        const uint64_t batched =
            registry.Snapshot().Diff(before).Total("dist.net.batched_tuples");
        ASSERT_TRUE(result.ok()) << engine << " plan=" << p.name
                                 << " seed=" << seed << ": "
                                 << result.status().ToString();
        EXPECT_EQ(result->answers, lossless->answers)
            << engine << " plan=" << p.name << " seed=" << seed;
        EXPECT_TRUE(result->quiescent_at_detection)
            << engine << " plan=" << p.name << " seed=" << seed;
        // dQSQ's binding fan-out forms its sections inside one fixpoint at
        // a, whatever the interleaving. dnaive packs e/f/g only when their
        // subscriptions reach b before h's rows do, which the scheduler
        // and the faults decide, so it is checked per plan.
        if (qsq) {
          EXPECT_GT(batched, 0u) << p.name << " seed=" << seed;
        }
        plan_batched += batched;
        if (p.plan.crash.active()) {
          EXPECT_EQ(result->stats.crashes, 1u) << engine << " seed=" << seed;
          EXPECT_EQ(result->stats.restarts, 1u) << engine << " seed=" << seed;
        }
      }
      EXPECT_GT(plan_batched, 0u) << engine << " plan=" << p.name;
    }
  }
}

TEST(CrashInjectionPropertyTest, InactiveCrashPlanIsZeroOverhead) {
  // Tuning fields alone (down_for, checkpoint_every) schedule nothing: the
  // run must be indistinguishable from a plain lossless run — no durable
  // writes, no transport engagement, identical traffic.
  auto base = Solve(/*qsq=*/true, /*seed=*/3, FaultPlan{});
  ASSERT_TRUE(base.ok());
  FaultPlan inert;
  inert.crash.down_for = 7;
  inert.crash.checkpoint_every = 3;
  ASSERT_FALSE(inert.active());
  auto inert_run = Solve(/*qsq=*/true, /*seed=*/3, inert);
  ASSERT_TRUE(inert_run.ok());
  EXPECT_EQ(inert_run->answers, base->answers);
  EXPECT_EQ(inert_run->stats.messages_delivered,
            base->stats.messages_delivered);
  EXPECT_EQ(inert_run->stats.tuples_shipped, base->stats.tuples_shipped);
  EXPECT_EQ(inert_run->stats.wire_messages, base->stats.wire_messages);
  EXPECT_EQ(inert_run->stats.crashes, 0u);
  EXPECT_EQ(inert_run->stats.snapshot_bytes, 0u);
  EXPECT_EQ(inert_run->stats.wal_records, 0u);
}

// ---------------------------------------------------------------------------
// Live peer migration (SimNetwork::MigratePeer): a whole peer hands off to
// a fresh object through the same snapshot + WAL-replay path.
// ---------------------------------------------------------------------------

TEST(MigrationTest, LiveMigrationMidEvaluationPreservesAnswers) {
  for (bool qsq : {false, true}) {
    auto lossless = Solve(qsq, /*seed=*/1, FaultPlan{});
    ASSERT_TRUE(lossless.ok());
    FaultPlan plan;
    plan.crash.migrate_at_step = {{/*at_step=*/20, /*peer_index=*/0}};
    plan.crash.checkpoint_every = 1;
    auto migrated = Solve(qsq, /*seed=*/1, plan);
    ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
    EXPECT_EQ(migrated->answers, lossless->answers);
    EXPECT_TRUE(migrated->quiescent_at_detection);
    EXPECT_EQ(migrated->stats.migrations, 1u);
    EXPECT_EQ(migrated->stats.crashes, 0u);   // a hand-off is not a failure
    EXPECT_EQ(migrated->stats.restarts, 0u);  // nor a crash-restart
    // Logical traffic is migration-invariant: the epoch fence plus WAL
    // replay hand the successor exactly the old owner's obligations.
    EXPECT_EQ(migrated->stats.messages_delivered,
              lossless->stats.messages_delivered);
    EXPECT_EQ(migrated->stats.tuples_shipped,
              lossless->stats.tuples_shipped);
  }
}

TEST(MigrationSoakTest, CrashesAroundMigrationAcrossSeeds) {
  // Schedules where the OLD owner dies before its migration, the NEW
  // owner dies right after taking over, and WAL replay is mid-flight
  // (checkpoint_every > 1) — across 20 seeds, both engines.
  struct Schedule {
    const char* name;
    CrashPlan plan;
  };
  std::vector<Schedule> schedules;
  // Every event sits early in the run (a lossless Figure3 run is longer
  // than 25 clock units on every seed) so the schedules always fire.
  {
    // Old owner killed first; the migration then moves the restarted peer.
    CrashPlan p;
    p.crash_at_step = {{/*at_step=*/8, /*peer_index=*/0}};
    p.migrate_at_step = {{/*at_step=*/20, /*peer_index=*/0}};
    p.down_for = 8;
    p.checkpoint_every = 1;
    schedules.push_back({"old-owner-killed", p});
  }
  {
    // New owner killed right after the hand-off.
    CrashPlan p;
    p.migrate_at_step = {{/*at_step=*/12, /*peer_index=*/0}};
    p.crash_at_step = {{/*at_step=*/16, /*peer_index=*/0}};
    p.down_for = 8;
    p.checkpoint_every = 1;
    schedules.push_back({"new-owner-killed", p});
  }
  {
    // Migration lands while the WAL has unreplayed suffix (sparse
    // checkpoints) and a second peer dies around it.
    CrashPlan p;
    p.migrate_at_step = {{/*at_step=*/14, /*peer_index=*/1}};
    p.crash_at_step = {{/*at_step=*/10, /*peer_index=*/0}};
    p.down_for = 16;
    p.checkpoint_every = 4;
    schedules.push_back({"in-flight-wal", p});
  }
  for (bool qsq : {false, true}) {
    auto lossless = Solve(qsq, /*seed=*/1, FaultPlan{});
    ASSERT_TRUE(lossless.ok());
    for (const Schedule& schedule : schedules) {
      for (uint64_t seed = 1; seed <= 20; ++seed) {
        FaultPlan plan;
        plan.crash = schedule.plan;
        auto run = Solve(qsq, seed, plan);
        ASSERT_TRUE(run.ok())
            << (qsq ? "dqsq" : "dnaive") << " " << schedule.name << " seed "
            << seed << ": " << run.status().ToString();
        EXPECT_EQ(run->answers, lossless->answers)
            << (qsq ? "dqsq" : "dnaive") << " " << schedule.name << " seed "
            << seed;
        EXPECT_TRUE(run->quiescent_at_detection);
        EXPECT_EQ(run->stats.migrations, 1u);
        // DS quiescence plus logical invariance survive the combination.
        EXPECT_EQ(run->stats.messages_delivered,
                  lossless->stats.messages_delivered);
        EXPECT_EQ(run->stats.tuples_shipped, lossless->stats.tuples_shipped);
      }
    }
  }
}

}  // namespace
}  // namespace dqsq::dist
