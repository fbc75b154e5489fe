#include "dist/reliable.h"

#include <gtest/gtest.h>

#include "dist/dnaive.h"
#include "dist/dqsq.h"
#include "dist/network.h"
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

TEST(ReliableTransportTest, StampsPerChannelSequenceNumbers) {
  ReliableTransport transport;
  Message a1 = Basic(1, 2), a2 = Basic(1, 2), b1 = Basic(2, 1);
  transport.StampOutgoing(a1, 0);
  transport.StampOutgoing(a2, 0);
  transport.StampOutgoing(b1, 0);
  EXPECT_EQ(a1.seq, 1u);
  EXPECT_EQ(a2.seq, 2u);   // same channel: consecutive
  EXPECT_EQ(b1.seq, 1u);   // reverse channel: independent numbering
  EXPECT_TRUE(transport.HasUnacked());
}

TEST(ReliableTransportTest, DedupSuppressesSecondDelivery) {
  ReliableTransport transport;
  Message m = Basic(1, 2);
  transport.StampOutgoing(m, 0);
  EXPECT_EQ(transport.OnWireDelivery(m, 1),
            ReliableTransport::Disposition::kDeliverFirst);
  EXPECT_EQ(transport.OnWireDelivery(m, 2),
            ReliableTransport::Disposition::kDuplicate);
  EXPECT_TRUE(transport.Seen({1, 2}, 1));
}

TEST(ReliableTransportTest, OutOfOrderDeliveryDedupsAndCatchesUp) {
  ReliableTransport transport;
  Message m1 = Basic(1, 2), m2 = Basic(1, 2), m3 = Basic(1, 2);
  transport.StampOutgoing(m1, 0);
  transport.StampOutgoing(m2, 0);
  transport.StampOutgoing(m3, 0);
  // Delay-reordered wire: 3 arrives first, then 1, then 3 again, then 2.
  EXPECT_EQ(transport.OnWireDelivery(m3, 1),
            ReliableTransport::Disposition::kDeliverFirst);
  EXPECT_EQ(transport.OnWireDelivery(m1, 2),
            ReliableTransport::Disposition::kDeliverFirst);
  EXPECT_EQ(transport.OnWireDelivery(m3, 3),
            ReliableTransport::Disposition::kDuplicate);
  EXPECT_EQ(transport.OnWireDelivery(m2, 4),
            ReliableTransport::Disposition::kDeliverFirst);
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    EXPECT_TRUE(transport.Seen({1, 2}, seq)) << seq;
  }
  EXPECT_TRUE(transport.AllPayloadDelivered());
}

TEST(ReliableTransportTest, RetransmitsAfterTimeoutWithBackoff) {
  ReliableConfig config;
  config.retransmit_timeout = 10;
  config.max_backoff = 4;
  ReliableTransport transport(config);
  Message m = Basic(1, 2);
  transport.StampOutgoing(m, 0);  // due at 10
  EXPECT_TRUE(transport.PollWire(9).empty());
  ASSERT_EQ(transport.NextDue(), std::optional<uint64_t>(10));
  auto first = transport.PollWire(10);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_TRUE(first[0].retransmit);
  EXPECT_EQ(first[0].seq, m.seq);
  // Backoff doubled: next due is 10 + 2*10.
  EXPECT_EQ(transport.NextDue(), std::optional<uint64_t>(30));
  EXPECT_TRUE(transport.PollWire(29).empty());
  EXPECT_EQ(transport.PollWire(30).size(), 1u);
}

TEST(ReliableTransportTest, PiggybackedAckClearsRetransmitQueue) {
  ReliableTransport transport;
  Message data = Basic(1, 2);
  transport.StampOutgoing(data, 0);
  EXPECT_EQ(transport.OnWireDelivery(data, 1),
            ReliableTransport::Disposition::kDeliverFirst);
  // Reverse traffic from 2 to 1 carries the cumulative ack for (1,2).
  Message reply = Basic(2, 1);
  transport.StampOutgoing(reply, 2);
  EXPECT_EQ(reply.ack, 1u);
  EXPECT_EQ(transport.OnWireDelivery(reply, 3),
            ReliableTransport::Disposition::kDeliverFirst);
  // 1's retransmit entry for seq 1 is gone; only 2's reply is unacked
  // (plus the standalone ack 1 owes for it).
  auto due = transport.PollWire(1'000'000);
  size_t retransmits = 0;
  for (const Message& m : due) {
    if (m.retransmit) {
      ++retransmits;
      EXPECT_EQ(m.from, 2u);  // the reply, not the original data message
    } else {
      EXPECT_EQ(m.kind, MessageKind::kTransportAck);
    }
  }
  EXPECT_EQ(retransmits, 1u);
}

TEST(ReliableTransportTest, StandaloneAckFlushesAfterDelayOnSilence) {
  ReliableConfig config;
  config.ack_delay = 4;
  // Push retransmits far out so only the ack is due.
  config.retransmit_timeout = 1000;
  ReliableTransport transport(config);
  Message m = Basic(1, 2);
  transport.StampOutgoing(m, 0);
  EXPECT_EQ(transport.OnWireDelivery(m, 5),
            ReliableTransport::Disposition::kDeliverFirst);
  EXPECT_TRUE(transport.PollWire(8).empty());  // owed since 5, due at 9
  auto acks = transport.PollWire(9);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].kind, MessageKind::kTransportAck);
  EXPECT_EQ(acks[0].from, 2u);
  EXPECT_EQ(acks[0].to, 1u);
  EXPECT_EQ(acks[0].ack, 1u);
  // Delivering the ack empties the sender's queue.
  EXPECT_EQ(transport.OnWireDelivery(acks[0], 10),
            ReliableTransport::Disposition::kControl);
  EXPECT_FALSE(transport.HasUnacked());
  EXPECT_FALSE(transport.NextDue().has_value());
}

TEST(ReliableTransportTest, StandaloneAckRefiresWithBackoffUntilConfirmed) {
  ReliableConfig config;
  config.ack_delay = 4;
  config.retransmit_timeout = 1000;
  ReliableTransport transport(config);
  Message m = Basic(1, 2);
  transport.StampOutgoing(m, 0);
  EXPECT_EQ(transport.OnWireDelivery(m, 1),
            ReliableTransport::Disposition::kDeliverFirst);
  // The first standalone ack is dropped by the wire (never delivered):
  // another flushes after a backed-off silence, so a lost ack never
  // strands the sender until its retransmit timeout — but repeated
  // re-emissions slow down geometrically (uncapped: O(log horizon) acks
  // per owed episode), keeping total standalone-ack production below the
  // wire's drain rate however many channels owe at once. Regression for
  // the many-channel livelock, where every owed channel re-emitting each
  // ack_delay steps outran the wire's drain rate and the discharging acks
  // could never get through the flood.
  auto first = transport.PollWire(5);  // owed since 1, due at 5
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].kind, MessageKind::kTransportAck);
  EXPECT_TRUE(transport.PollWire(12).empty());  // re-armed at 5, due at 13
  auto second = transport.PollWire(13);  // backoff 2: 5 + 4*2
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].kind, MessageKind::kTransportAck);
  EXPECT_TRUE(transport.PollWire(28).empty());  // backoff 4: due at 29
  ASSERT_EQ(transport.PollWire(29).size(), 1u);
  // The interval keeps doubling: re-armed at 29, backoff 8, due at 61.
  EXPECT_EQ(transport.NextDue(), std::optional<uint64_t>(61));
  // A duplicate delivery (the sender's retransmit loop is live) resets the
  // backoff so the discharging ack goes out promptly again.
  Message dup = m;
  EXPECT_EQ(transport.OnWireDelivery(dup, 40),
            ReliableTransport::Disposition::kDuplicate);
  EXPECT_EQ(transport.NextDue(), std::optional<uint64_t>(44));
  auto prompt = transport.PollWire(44);
  ASSERT_EQ(prompt.size(), 1u);
  // Delivering it discharges the debt: no further standalone acks.
  EXPECT_EQ(transport.OnWireDelivery(prompt[0], 45),
            ReliableTransport::Disposition::kControl);
  EXPECT_FALSE(transport.NextDue().has_value());
}

TEST(ReliableTransportTest, LostPiggybackedAckCostsNoSpuriousRetransmit) {
  // Regression for the lost-piggyback-ack bug: stamping a reply used to
  // clear the receiver's owed-ack state before the reply survived the
  // fault plan, so a dropped reply silently lost the ack and the sender
  // only recovered via a spurious retransmit round trip.
  ReliableConfig config;
  config.ack_delay = 4;
  config.retransmit_timeout = 100;
  ReliableTransport transport(config);
  Message data = Basic(1, 2);
  transport.StampOutgoing(data, 0);
  EXPECT_EQ(transport.OnWireDelivery(data, 1),
            ReliableTransport::Disposition::kDeliverFirst);
  // The reply piggybacks the cumulative ack — and is dropped by the wire.
  Message reply = Basic(2, 1);
  transport.StampOutgoing(reply, 2);
  EXPECT_EQ(reply.ack, 1u);
  // The ack stays owed: a standalone ack flushes after ack_delay of
  // silence, long before peer 1's retransmit timeout.
  auto traffic = transport.PollWire(2 + config.ack_delay);
  ASSERT_EQ(traffic.size(), 1u);
  EXPECT_EQ(traffic[0].kind, MessageKind::kTransportAck);
  EXPECT_EQ(traffic[0].to, 1u);
  EXPECT_EQ(traffic[0].ack, 1u);
  EXPECT_EQ(transport.OnWireDelivery(traffic[0], 8),
            ReliableTransport::Disposition::kControl);
  // Pin the retransmit count for this scenario: advancing past the
  // retransmit horizon resends only the dropped reply, never the data
  // message whose piggybacked ack was lost.
  size_t data_retransmits = 0, reply_retransmits = 0;
  for (const Message& out : transport.PollWire(200)) {
    if (!out.retransmit) continue;
    (out.from == 1u ? data_retransmits : reply_retransmits)++;
  }
  EXPECT_EQ(data_retransmits, 0u);
  EXPECT_EQ(reply_retransmits, 1u);
}

TEST(ReliableTransportTest, RetransmitRearmsTheStandaloneAckTimer) {
  // A retransmitted message refreshes its piggybacked ack; that must also
  // re-arm the reverse channel's standalone-ack timer so the superseded
  // kTransportAck does not fire alongside it.
  ReliableConfig config;
  config.ack_delay = 8;
  config.retransmit_timeout = 6;
  ReliableTransport transport(config);
  Message data = Basic(1, 2);
  transport.StampOutgoing(data, 0);
  EXPECT_EQ(transport.OnWireDelivery(data, 1),
            ReliableTransport::Disposition::kDeliverFirst);
  Message reply = Basic(2, 1);
  transport.StampOutgoing(reply, 2);  // carries ack=1; assume it is lost
  // At t=8 the retransmits fire; the reply's copy carries a fresh ack,
  // re-arming the owed-ack timer (owed since 1, originally due at 9).
  bool reply_retransmitted = false;
  for (const Message& out : transport.PollWire(8)) {
    EXPECT_TRUE(out.retransmit);  // no standalone ack due yet
    if (out.from == 2u) {
      reply_retransmitted = true;
      EXPECT_EQ(out.ack, 1u);
    }
  }
  EXPECT_TRUE(reply_retransmitted);
  // Without re-arming, the superseded standalone ack would still fire at
  // 9; re-armed at 8, it is not due before 16 (and the next retransmit
  // backoff lands at 20).
  for (const Message& out : transport.PollWire(15)) {
    EXPECT_NE(out.kind, MessageKind::kTransportAck)
        << "stale standalone ack fired alongside the retransmit copy";
  }
}

TEST(ReliableTransportTest, WindowFullStallsAndDrainsInFifoOrder) {
  ReliableConfig config;
  config.window = 2;
  ReliableTransport transport(config);
  Message m1 = Basic(1, 2), m2 = Basic(1, 2), m3 = Basic(1, 2),
          m4 = Basic(1, 2);
  EXPECT_TRUE(transport.StampOutgoing(m1, 0));
  EXPECT_TRUE(transport.StampOutgoing(m2, 0));
  EXPECT_FALSE(transport.StampOutgoing(m3, 0));  // window full: queued
  EXPECT_FALSE(transport.StampOutgoing(m4, 0));
  EXPECT_EQ(m3.seq, 3u);  // still sequenced in FIFO order
  EXPECT_EQ(m4.seq, 4u);
  EXPECT_EQ(transport.stats().window_stalls, 2u);
  EXPECT_TRUE(transport.HasUnacked());
  EXPECT_FALSE(transport.AllPayloadDelivered());  // queued payload pending
  // Nothing drains while the window is closed.
  EXPECT_TRUE(transport.PollWire(1).empty());
  // Acking seq 1 opens one slot: exactly one queued send drains.
  EXPECT_EQ(transport.OnWireDelivery(m1, 1),
            ReliableTransport::Disposition::kDeliverFirst);
  Message ack;
  ack.kind = MessageKind::kTransportAck;
  ack.from = 2;
  ack.to = 1;
  ack.ack = 1;
  EXPECT_EQ(transport.OnWireDelivery(ack, 2),
            ReliableTransport::Disposition::kControl);
  ASSERT_TRUE(transport.NextDue().has_value());
  EXPECT_LE(*transport.NextDue(), 2u);  // drain is immediately due
  auto drained = transport.PollWire(3);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].seq, 3u);
  EXPECT_FALSE(drained[0].retransmit);
  EXPECT_EQ(transport.stats().window_drained, 1u);
}

TEST(ReliableTransportTest, SackRepairsOnlyTheHole) {
  ReliableConfig config;
  config.retransmit_timeout = 10;
  config.ack_delay = 4;
  ReliableTransport transport(config);
  Message m[6];
  for (int i = 1; i <= 5; ++i) {
    m[i] = Basic(1, 2);
    transport.StampOutgoing(m[i], 0);
  }
  // Seq 2 is lost; 1, 3, 4, 5 arrive.
  EXPECT_EQ(transport.OnWireDelivery(m[1], 1),
            ReliableTransport::Disposition::kDeliverFirst);
  for (int i = 3; i <= 5; ++i) {
    EXPECT_EQ(transport.OnWireDelivery(m[i], i),
              ReliableTransport::Disposition::kDeliverFirst);
  }
  // The standalone ack advertises cum=1 plus the SACK block [3,5].
  auto acks = transport.PollWire(5);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].ack, 1u);
  ASSERT_EQ(acks[0].sack.size(), 1u);
  EXPECT_EQ(acks[0].sack[0], (SackBlock{3, 5}));
  EXPECT_EQ(transport.OnWireDelivery(acks[0], 6),
            ReliableTransport::Disposition::kControl);
  EXPECT_EQ(transport.stats().sacked, 3u);
  // At the retransmit horizon only the hole (seq 2) goes out again — with
  // cumulative-only acks all of 2..5 would have been resent.
  size_t retransmits = 0;
  for (const Message& out : transport.PollWire(20)) {
    if (!out.retransmit) continue;
    ++retransmits;
    EXPECT_EQ(out.seq, 2u);
  }
  EXPECT_EQ(retransmits, 1u);
  // Repairing the hole advances cum over the SACKed range in one step.
  Message hole = m[2];
  EXPECT_EQ(transport.OnWireDelivery(hole, 21),
            ReliableTransport::Disposition::kDeliverFirst);
  EXPECT_TRUE(transport.AllPayloadDelivered());
}

// A replayed ack takes effect but is not counted again: its SACK and
// fast-retransmit events were counted when it first arrived.
TEST(ReliableTransportTest, ReplayedSackAckTakesEffectWithoutCounting) {
  struct Outcome {
    TransportStats stats;
    std::string image;
  };
  auto run = [](bool replaying) {
    ReliableConfig config;
    config.fast_retransmit_dupacks = 1;
    ReliableTransport transport(config);
    Message m[6];
    for (int i = 1; i <= 5; ++i) {
      m[i] = Basic(1, 2);
      transport.StampOutgoing(m[i], 0);
    }
    // Seq 2 is lost: the ack carries cum 1 and the SACK block [3,5].
    transport.OnWireDelivery(m[1], 1);
    for (int i = 3; i <= 5; ++i) transport.OnWireDelivery(m[i], i);
    auto acks = transport.PollWire(5);
    EXPECT_EQ(acks.size(), 1u);
    EXPECT_EQ(acks[0].sack.size(), 1u);
    std::string before = transport.ProtocolImage(1);
    transport.set_replaying(replaying);
    EXPECT_EQ(transport.OnWireDelivery(acks[0], 6),
              ReliableTransport::Disposition::kControl);
    transport.set_replaying(false);
    EXPECT_NE(transport.ProtocolImage(1), before);  // 1, 3, 4, 5 erased
    return Outcome{transport.stats(), transport.ProtocolImage(1)};
  };
  Outcome replayed = run(/*replaying=*/true);
  Outcome live = run(/*replaying=*/false);
  EXPECT_EQ(replayed.image, live.image);
  EXPECT_EQ(replayed.stats.sacked, 0u);
  EXPECT_EQ(replayed.stats.fast_retransmits, 0u);
  EXPECT_EQ(live.stats.sacked, 3u);
  EXPECT_EQ(live.stats.fast_retransmits, 1u);
}

TEST(ReliableTransportTest, ReplayedWindowStallQueuesWithoutCounting) {
  ReliableConfig config;
  config.window = 1;
  ReliableTransport transport(config);
  Message a = Basic(1, 2), b = Basic(1, 2), c = Basic(1, 2);
  transport.set_replaying(true);
  EXPECT_TRUE(transport.StampOutgoing(a, 0));
  EXPECT_FALSE(transport.StampOutgoing(b, 0));  // queued behind the window
  transport.set_replaying(false);
  EXPECT_EQ(transport.stats().window_stalls, 0u);
  EXPECT_FALSE(transport.StampOutgoing(c, 0));
  EXPECT_EQ(transport.stats().window_stalls, 1u);
  EXPECT_EQ(b.seq, 2u);
  EXPECT_EQ(c.seq, 3u);
}

TEST(ReliableTransportTest, SackBlockListIsBounded) {
  ReliableConfig config;
  config.max_sack_blocks = 2;
  config.ack_delay = 1;
  ReliableTransport transport(config);
  Message m[10];
  for (int i = 1; i <= 9; ++i) {
    m[i] = Basic(1, 2);
    transport.StampOutgoing(m[i], 0);
  }
  // Deliver only the even seqs: out-of-order set {2,4,6,8}, four blocks.
  for (int i = 2; i <= 8; i += 2) {
    EXPECT_EQ(transport.OnWireDelivery(m[i], i),
              ReliableTransport::Disposition::kDeliverFirst);
  }
  auto acks = transport.PollWire(10);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].ack, 0u);
  ASSERT_EQ(acks[0].sack.size(), 2u);  // bounded: lowest blocks first
  EXPECT_EQ(acks[0].sack[0], (SackBlock{2, 2}));
  EXPECT_EQ(acks[0].sack[1], (SackBlock{4, 4}));
}

TEST(ReliableTransportTest, FastRetransmitFiresOnDupSackEvidenceBeforeRto) {
  ReliableConfig config;
  config.retransmit_timeout = 100;  // far horizon: only fast retx can fire
  config.ack_delay = 1;
  config.fast_retransmit_dupacks = 3;
  ReliableTransport transport(config);
  Message m[6];
  for (int i = 1; i <= 5; ++i) {
    m[i] = Basic(1, 2);
    transport.StampOutgoing(m[i], 0);
  }
  // Seq 1 is lost. Each later arrival provokes an ack whose SACK blocks
  // cover data above the hole — one piece of dup evidence apiece.
  uint64_t now = 1;
  for (int i = 2; i <= 4; ++i) {
    EXPECT_EQ(transport.OnWireDelivery(m[i], now++),
              ReliableTransport::Disposition::kDeliverFirst);
    auto acks = transport.PollWire(now++);
    ASSERT_EQ(acks.size(), 1u);
    EXPECT_EQ(acks[0].ack, 0u);  // the hole holds cum at 0
    EXPECT_EQ(transport.OnWireDelivery(acks[0], now++),
              ReliableTransport::Disposition::kControl);
  }
  // Third piece of evidence: seq 1 is due immediately, long before its RTO.
  EXPECT_EQ(transport.stats().fast_retransmits, 1u);
  ASSERT_LT(*transport.NextDue(), config.retransmit_timeout);
  auto resent = transport.PollWire(now);
  ASSERT_EQ(resent.size(), 1u);
  EXPECT_TRUE(resent[0].retransmit);
  EXPECT_EQ(resent[0].seq, 1u);
  // One-shot: the early resend does not repeat; the entry falls back to
  // the timeout path (due re-armed at RTO x backoff).
  EXPECT_TRUE(transport.PollWire(now + 2).empty());
  EXPECT_EQ(transport.OnWireDelivery(resent[0], now + 3),
            ReliableTransport::Disposition::kDeliverFirst);
  EXPECT_EQ(transport.stats().fast_retransmits, 1u);
}

TEST(ReliableTransportTest, KarnExcludesRetransmittedEntriesFromRtt) {
  ReliableConfig config;
  config.retransmit_timeout = 10;
  ReliableTransport transport(config);
  Message m = Basic(1, 2);
  transport.StampOutgoing(m, 0);
  ASSERT_EQ(transport.PollWire(10).size(), 1u);  // retransmitted: ambiguous
  EXPECT_EQ(transport.OnWireDelivery(m, 12),
            ReliableTransport::Disposition::kDeliverFirst);
  Message ack;
  ack.kind = MessageKind::kTransportAck;
  ack.from = 2;
  ack.to = 1;
  ack.ack = 1;
  EXPECT_EQ(transport.OnWireDelivery(ack, 13),
            ReliableTransport::Disposition::kControl);
  // Karn's rule: the ack of a retransmitted entry never samples RTT.
  EXPECT_EQ(transport.stats().rtt_samples, 0u);
  // A clean exchange does sample.
  Message m2 = Basic(1, 2);
  transport.StampOutgoing(m2, 13);
  EXPECT_EQ(transport.OnWireDelivery(m2, 15),
            ReliableTransport::Disposition::kDeliverFirst);
  ack.ack = 2;
  EXPECT_EQ(transport.OnWireDelivery(ack, 16),
            ReliableTransport::Disposition::kControl);
  EXPECT_EQ(transport.stats().rtt_samples, 1u);
}

TEST(ReliableTransportTest, AdaptiveRtoTracksMeasuredRttAndBackoffIsCapped) {
  ReliableConfig config;
  config.retransmit_timeout = 10;
  config.max_backoff = 4;
  config.rto_min = 4;
  ReliableTransport transport(config);
  // Feed three clean exchanges with RTT 40 each: SRTT converges to 40 and
  // the next send's timeout reflects it instead of the initial 10.
  Message ack;
  ack.kind = MessageKind::kTransportAck;
  ack.from = 2;
  ack.to = 1;
  for (uint64_t i = 0; i < 3; ++i) {
    uint64_t t = 100 * i;
    Message m = Basic(1, 2);
    transport.StampOutgoing(m, t);
    EXPECT_EQ(transport.OnWireDelivery(m, t + 39),
              ReliableTransport::Disposition::kDeliverFirst);
    ack.ack = i + 1;
    EXPECT_EQ(transport.OnWireDelivery(ack, t + 40),
              ReliableTransport::Disposition::kControl);
  }
  EXPECT_EQ(transport.stats().rtt_samples, 3u);
  const uint64_t rto = transport.stats().last_rto;
  EXPECT_GE(rto, 40u);  // at least the smoothed RTT
  Message probe = Basic(1, 2);
  transport.StampOutgoing(probe, 1000);
  ASSERT_EQ(transport.NextDue(), std::optional<uint64_t>(1000 + rto));
  // Backoff doubles per retransmit but is capped at max_backoff × RTO.
  uint64_t now = 1000 + rto;
  for (uint64_t expected : {2u, 4u, 4u, 4u}) {
    auto out = transport.PollWire(now);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].retransmit);
    ASSERT_EQ(transport.NextDue(), std::optional<uint64_t>(now + rto * expected))
        << "backoff multiplier should be " << expected;
    now += rto * expected;
  }
}

// ---------------------------------------------------------------------------
// End-to-end property: under every fault plan, both distributed engines
// return the lossless answers and termination detection stays sound.
// ---------------------------------------------------------------------------

// The paper's Figure 3 distributed program (three peers, mutual recursion
// across all of them).
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

struct RunOutcome {
  std::vector<std::string> answers;  // rendered while the context is alive
  NetworkStats stats;
  bool quiescent_at_detection = false;
};

StatusOr<RunOutcome> Solve(bool qsq, uint64_t seed, const FaultPlan& plan) {
  DatalogContext ctx;
  auto program = ParseProgram(kFigure3, ctx);
  DQSQ_CHECK_OK(program.status());
  auto query = ParseQuery("r@r(\"1\", Y)", ctx);
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

TEST(FaultInjectionPropertyTest, AnswersMatchLosslessAcrossSeedsAndPlans) {
  for (bool qsq : {false, true}) {
    auto lossless = Solve(qsq, /*seed=*/1, FaultPlan{});
    ASSERT_TRUE(lossless.ok()) << lossless.status().ToString();
    const auto expected = lossless->answers;
    ASSERT_FALSE(expected.empty());
    for (const PlanCase& c : FaultMatrix()) {
      for (uint64_t seed = 1; seed <= 20; ++seed) {
        auto result = Solve(qsq, seed, c.plan);
        ASSERT_TRUE(result.ok())
            << (qsq ? "dqsq" : "dnaive") << " plan=" << c.name << " seed="
            << seed << ": " << result.status().ToString();
        EXPECT_EQ(result->answers, expected)
            << (qsq ? "dqsq" : "dnaive") << " plan=" << c.name
            << " seed=" << seed;
        EXPECT_TRUE(result->quiescent_at_detection)
            << c.name << " seed=" << seed;
        if (!c.plan.active()) {
          EXPECT_EQ(result->stats.dropped, 0u);
          EXPECT_EQ(result->stats.retransmits, 0u);
          EXPECT_EQ(result->stats.spurious, 0u);
          EXPECT_EQ(result->stats.transport_acks, 0u);
        }
      }
    }
  }
}

TEST(FaultInjectionPropertyTest, AdversarialSoakExercisesTheWholeShim) {
  // High drop + maximal reorder — the plan that used to trigger
  // retransmit storms under cumulative-only acks — with a window small
  // enough to stall. Aggregated over seeds, every fault leg and every
  // transport mechanism (SACK, window, retransmit, dedup) fires, and the
  // logical traffic still matches the lossless run exactly.
  auto lossless = Solve(/*qsq=*/true, /*seed=*/1, FaultPlan{});
  ASSERT_TRUE(lossless.ok());
  NetworkStats agg;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    FaultPlan adversarial;
    adversarial.drop = 0.25;
    adversarial.duplicate = 0.1;
    adversarial.delay = 0.5;
    adversarial.max_delay_steps = 32;
    adversarial.reliable.window = 2;
    auto result = Solve(/*qsq=*/true, seed, adversarial);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->answers, lossless->answers) << "seed=" << seed;
    EXPECT_TRUE(result->quiescent_at_detection) << "seed=" << seed;
    EXPECT_EQ(result->stats.messages_delivered,
              lossless->stats.messages_delivered)
        << "first-delivery count must match lossless, seed=" << seed;
    EXPECT_EQ(result->stats.tuples_shipped, lossless->stats.tuples_shipped)
        << "seed=" << seed;
    agg.dropped += result->stats.dropped;
    agg.duplicated += result->stats.duplicated;
    agg.delayed += result->stats.delayed;
    agg.retransmits += result->stats.retransmits;
    agg.spurious += result->stats.spurious;
    agg.sacked += result->stats.sacked;
    agg.fast_retransmits += result->stats.fast_retransmits;
    agg.window_stalls += result->stats.window_stalls;
    agg.window_drained += result->stats.window_drained;
    agg.rtt_samples += result->stats.rtt_samples;
    agg.wire_messages += result->stats.wire_messages;
  }
  EXPECT_GT(agg.dropped, 0u);
  EXPECT_GT(agg.duplicated, 0u);
  EXPECT_GT(agg.delayed, 0u);
  EXPECT_GT(agg.retransmits, 0u);   // every drop must be repaired
  EXPECT_GT(agg.spurious, 0u);      // duplicates must be suppressed
  EXPECT_GT(agg.sacked, 0u);        // selective acks must clear entries
  // Dup-SACK evidence must trigger early resends under this much loss,
  // and every fast retransmit is also counted as a retransmit.
  EXPECT_GT(agg.fast_retransmits, 0u);
  EXPECT_LE(agg.fast_retransmits, agg.retransmits);
  EXPECT_GT(agg.window_stalls, 0u);  // the 2-wide window must backpressure
  EXPECT_EQ(agg.window_stalls, agg.window_drained);  // every stall drains
  EXPECT_GT(agg.rtt_samples, 0u);   // the RTO estimator must engage
  // The wire saw strictly more copies than the peers consumed.
  EXPECT_GT(agg.wire_messages, 10 * lossless->stats.messages_delivered);
}

TEST(FaultInjectionPropertyTest, SackReducesRetransmitsVsCumulativeOnly) {
  // Same seeds and fault plan, SACK+adaptive-RTO vs the cumulative-only
  // configuration: aggregated retransmits must drop (the E3 lossy bench
  // pins the ≥30% figure; this guards the direction at test speed).
  FaultPlan plan;
  plan.drop = 0.15;
  plan.duplicate = 0.05;
  plan.delay = 0.4;
  plan.max_delay_steps = 24;
  FaultPlan cumulative = plan;
  cumulative.reliable.max_sack_blocks = 0;
  cumulative.reliable.adaptive_rto = false;
  cumulative.reliable.window = 0;
  size_t sack_retransmits = 0, cum_retransmits = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    auto with_sack = Solve(/*qsq=*/true, seed, plan);
    auto without = Solve(/*qsq=*/true, seed, cumulative);
    ASSERT_TRUE(with_sack.ok()) << with_sack.status().ToString();
    ASSERT_TRUE(without.ok()) << without.status().ToString();
    EXPECT_EQ(with_sack->answers, without->answers) << "seed=" << seed;
    sack_retransmits += with_sack->stats.retransmits;
    cum_retransmits += without->stats.retransmits;
  }
  EXPECT_LT(sack_retransmits, cum_retransmits);
}

TEST(FaultInjectionPropertyTest, LosslessPlanLeavesTrafficByteIdentical) {
  // Zero-overhead default: an all-zero plan must not change message or
  // tuple counts relative to a network built without any plan at all.
  auto base = Solve(/*qsq=*/true, /*seed=*/3, FaultPlan{});
  ASSERT_TRUE(base.ok());
  FaultPlan zero;
  zero.max_delay_steps = 32;  // inert while probabilities are 0
  auto zeroed = Solve(/*qsq=*/true, /*seed=*/3, zero);
  ASSERT_TRUE(zeroed.ok());
  EXPECT_EQ(base->stats.messages_delivered, zeroed->stats.messages_delivered);
  EXPECT_EQ(base->stats.tuples_shipped, zeroed->stats.tuples_shipped);
  EXPECT_EQ(base->stats.control_messages, zeroed->stats.control_messages);
}

}  // namespace
}  // namespace dqsq::dist
