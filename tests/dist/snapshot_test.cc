#include "dist/snapshot.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dist/reliable.h"
#include "dist/wire_codec.h"

namespace dqsq::dist {
namespace {

TEST(SnapshotCodecTest, PrimitivesRoundTripLittleEndian) {
  SnapshotWriter w;
  w.U8(0xAB);
  w.U32(0x01020304);
  w.U64(0x1122334455667788ULL);
  w.Bool(true);
  w.Bool(false);
  w.Str("hello");
  w.Str("");  // empty strings are representable
  const std::string bytes = w.bytes();
  // Spot-check the wire layout: little-endian, no alignment padding.
  EXPECT_EQ(static_cast<uint8_t>(bytes[0]), 0xAB);
  EXPECT_EQ(static_cast<uint8_t>(bytes[1]), 0x04);  // U32 low byte first
  EXPECT_EQ(static_cast<uint8_t>(bytes[4]), 0x01);
  EXPECT_EQ(static_cast<uint8_t>(bytes[5]), 0x88);  // U64 low byte first

  SnapshotReader r(bytes);
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0x01020304u);
  EXPECT_EQ(r.U64(), 0x1122334455667788ULL);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotCodecTest, StrViewReadsInPlaceAndTracksPosition) {
  SnapshotWriter w;
  w.Str("hello");
  w.U8(7);
  const std::string bytes = w.bytes();
  SnapshotReader r(bytes);
  const std::string_view view = r.StrView();
  EXPECT_EQ(view, "hello");
  EXPECT_EQ(view.data(), bytes.data() + 8);  // after the U64 length
  EXPECT_EQ(r.position(), 13u);
  EXPECT_EQ(r.U8(), 7);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SnapshotCodecDeathTest, TruncatedReadAborts) {
  SnapshotWriter w;
  w.U64(42);
  std::string bytes = w.bytes();
  bytes.resize(3);  // cut the U64 short
  SnapshotReader r(bytes);
  EXPECT_DEATH((void)r.U64(), "truncated");
}

TEST(SnapshotCodecDeathTest, StringLengthNearOverflowAborts) {
  // pos + length would wrap around; the length is checked against the
  // bytes left instead.
  SnapshotWriter w;
  w.U64(UINT64_MAX - 2);
  w.Str("abc");
  SnapshotReader r(w.bytes());
  EXPECT_DEATH((void)r.Str(), "truncated");
}

TEST(SnapshotCodecTest, PatternRoundTripsNestedApplications) {
  const Pattern p = Pattern::App(
      7, {Pattern::Var(0), Pattern::Const(3),
          Pattern::App(9, {Pattern::Var(1), Pattern::Const(4)})});
  SnapshotWriter w;
  EncodePattern(p, kRawIds, w);
  SnapshotReader r(w.bytes());
  const Pattern back = DecodePattern(r, kRawIds);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back, p);
}

TEST(SnapshotCodecTest, RuleEncodingIsByteStable) {
  // Rule has no operator==; byte-stability (encode ∘ decode ∘ encode is
  // the identity) is the serialization contract and implies field
  // equality for everything the codec carries.
  Rule rule;
  rule.head.rel = RelId{1, 10};
  rule.head.args = {Pattern::Var(0), Pattern::Var(1)};
  Atom body;
  body.rel = RelId{2, 11};
  body.args = {Pattern::Var(0), Pattern::Const(5)};
  rule.body.push_back(body);
  Atom neg;
  neg.rel = RelId{3, 10};
  neg.args = {Pattern::Var(1)};
  rule.negative.push_back(neg);
  rule.diseqs.push_back(Diseq{Pattern::Var(0), Pattern::Var(1)});
  rule.num_vars = 2;
  rule.var_names =
      std::make_shared<const std::vector<std::string>>(
          std::vector<std::string>{"X", "Y"});

  SnapshotWriter w1;
  EncodeRule(rule, kRawIds, w1);
  SnapshotReader r(w1.bytes());
  const Rule back = DecodeRule(r, kRawIds);
  EXPECT_TRUE(r.AtEnd());
  SnapshotWriter w2;
  EncodeRule(back, kRawIds, w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());
  EXPECT_EQ(back.head.rel, rule.head.rel);
  EXPECT_EQ(back.body.size(), 1u);
  EXPECT_EQ(back.negative.size(), 1u);
  EXPECT_EQ(back.diseqs.size(), 1u);
  EXPECT_EQ(back.num_vars, 2u);
  EXPECT_EQ(VarNameList(back.var_names), VarNameList(rule.var_names));
}

TEST(SnapshotCodecTest, MessageEncodingCarriesTheFullEnvelope) {
  Message m;
  m.kind = MessageKind::kTuples;
  m.from = 4;
  m.to = 9;
  m.rel = RelId{6, 9};
  m.tuples = {{1, 2}, {3, 4, 5}, {}};
  m.subscriber = 12;
  m.adornment = {true, false, true};
  m.seq = 17;
  m.ack = 8;
  m.sack = {{10, 12}, {15, 15}};
  m.retransmit = true;
  m.epoch = 3;

  SnapshotWriter w1;
  EncodeMessage(m, kRawIds, w1);
  SnapshotReader r(w1.bytes());
  const Message back = DecodeMessage(r, kRawIds);
  EXPECT_TRUE(r.AtEnd());
  SnapshotWriter w2;
  EncodeMessage(back, kRawIds, w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());
  EXPECT_EQ(back.kind, m.kind);
  EXPECT_EQ(back.from, m.from);
  EXPECT_EQ(back.to, m.to);
  EXPECT_EQ(back.tuples, m.tuples);
  EXPECT_EQ(back.adornment, m.adornment);
  EXPECT_EQ(back.seq, m.seq);
  EXPECT_EQ(back.ack, m.ack);
  EXPECT_EQ(back.sack, m.sack);
  EXPECT_TRUE(back.retransmit);
  EXPECT_EQ(back.epoch, 3u);
}

Message Payload(SymbolId from, SymbolId to, uint64_t seq) {
  Message m;
  m.kind = MessageKind::kTuples;
  m.from = from;
  m.to = to;
  m.seq = seq;
  return m;
}

PeerSnapshot MakeSnapshot() {
  PeerSnapshot snap;
  snap.peer = 1;
  snap.epoch = 2;
  // Channel to peer 2: empty (everything acknowledged, only next_seq
  // survives). Channel to peer 3: mid-window (unacked, nothing queued).
  // Channel to peer 4: window-stalled (unacked full + pending queue).
  snap.senders.push_back(ChannelSenderState{2, 5, {}, {}});
  snap.senders.push_back(
      ChannelSenderState{3, 2, {Payload(1, 3, 1), Payload(1, 3, 2)}, {}});
  snap.senders.push_back(ChannelSenderState{
      4, 3, {Payload(1, 4, 1)}, {Payload(1, 4, 2), Payload(1, 4, 3)}});
  snap.receivers.push_back(ChannelReceiverState{2, 4, {6, 7, 9}});
  snap.receivers.push_back(ChannelReceiverState{3, 0, {}});
  snap.peer_state = std::string("opaque\0blob", 11);
  return snap;
}

TEST(PeerSnapshotTest, SerializationIsByteStable) {
  const PeerSnapshot snap = MakeSnapshot();
  const std::string bytes = SerializePeerSnapshot(snap);
  const PeerSnapshot back = DeserializePeerSnapshot(bytes);
  // serialize ∘ deserialize ∘ serialize is the identity.
  EXPECT_EQ(SerializePeerSnapshot(back), bytes);

  EXPECT_EQ(back.peer, 1u);
  EXPECT_EQ(back.epoch, 2u);
  ASSERT_EQ(back.senders.size(), 3u);
  EXPECT_EQ(back.senders[0].to, 2u);
  EXPECT_EQ(back.senders[0].next_seq, 5u);
  EXPECT_TRUE(back.senders[0].unacked.empty());
  EXPECT_TRUE(back.senders[0].pending.empty());
  EXPECT_EQ(back.senders[1].unacked.size(), 2u);
  EXPECT_EQ(back.senders[2].unacked.size(), 1u);
  ASSERT_EQ(back.senders[2].pending.size(), 2u);
  EXPECT_EQ(back.senders[2].pending[0].seq, 2u);  // FIFO order preserved
  EXPECT_EQ(back.senders[2].pending[1].seq, 3u);
  ASSERT_EQ(back.receivers.size(), 2u);
  EXPECT_EQ(back.receivers[0].from, 2u);
  EXPECT_EQ(back.receivers[0].cum, 4u);
  EXPECT_EQ(back.receivers[0].out_of_order, (std::vector<uint64_t>{6, 7, 9}));
  EXPECT_EQ(back.receivers[1].cum, 0u);
  EXPECT_EQ(back.peer_state, snap.peer_state);  // embedded NUL survives
}

TEST(PeerSnapshotDeathTest, TrailingBytesAbort) {
  std::string bytes = SerializePeerSnapshot(MakeSnapshot());
  bytes.push_back('\0');
  EXPECT_DEATH((void)DeserializePeerSnapshot(bytes), "trailing");
}

// ---------------------------------------------------------------------------
// Transport export/restore: the snapshot restores protocol state exactly.
// ---------------------------------------------------------------------------

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

TEST(TransportSnapshotTest, EmptyChannelRestoresNextSeq) {
  // Fully acknowledged channel: only next_seq matters — a restarted sender
  // must not reuse sequence numbers the receiver has already seen.
  ReliableTransport original;
  Message m1 = Basic(1, 2), m2 = Basic(1, 2);
  original.StampOutgoing(m1, 0);
  original.StampOutgoing(m2, 0);
  original.OnWireDelivery(m1, 1);
  original.OnWireDelivery(m2, 2);
  original.OnWireDelivery(Ack(2, 1, 2), 3);

  PeerSnapshot snap;
  original.ExportPeer(1, &snap);
  ASSERT_EQ(snap.senders.size(), 1u);
  EXPECT_EQ(snap.senders[0].next_seq, 2u);
  EXPECT_TRUE(snap.senders[0].unacked.empty());
  EXPECT_TRUE(snap.senders[0].pending.empty());

  ReliableTransport restored;
  restored.RestorePeer(snap, /*new_epoch=*/1, /*now=*/10);
  EXPECT_EQ(restored.EpochOf(1), 1u);
  Message m3 = Basic(1, 2);
  restored.StampOutgoing(m3, 10);
  EXPECT_EQ(m3.seq, 3u);  // numbering continues past the snapshot
}

TEST(TransportSnapshotTest, MidWindowChannelRetransmitsTheUnackedTail) {
  // Unacked in-window entries survive the snapshot and are immediately due
  // for retransmission after restore (their wire copies may be lost).
  ReliableTransport original;
  Message m1 = Basic(1, 2), m2 = Basic(1, 2), m3 = Basic(1, 2);
  original.StampOutgoing(m1, 0);
  original.StampOutgoing(m2, 0);
  original.StampOutgoing(m3, 0);
  original.OnWireDelivery(m1, 1);
  original.OnWireDelivery(Ack(2, 1, 1), 2);  // 2 and 3 remain unacked

  PeerSnapshot snap;
  original.ExportPeer(1, &snap);
  ASSERT_EQ(snap.senders.size(), 1u);
  ASSERT_EQ(snap.senders[0].unacked.size(), 2u);
  EXPECT_EQ(snap.senders[0].unacked[0].seq, 2u);
  EXPECT_EQ(snap.senders[0].unacked[1].seq, 3u);

  ReliableTransport restored;
  restored.RestorePeer(snap, /*new_epoch=*/1, /*now=*/50);
  // The timing-free protocol image of the restored state matches the
  // original exactly — same invariant RestartPeer CHECKs after WAL replay.
  EXPECT_EQ(restored.ProtocolImage(1), original.ProtocolImage(1));
  auto due = restored.PollWire(50);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_TRUE(due[0].retransmit);
  EXPECT_EQ(due[0].seq, 2u);
  EXPECT_EQ(due[0].epoch, 1u);  // re-stamped with the new incarnation
  EXPECT_EQ(due[1].seq, 3u);
}

TEST(TransportSnapshotTest, WindowStalledChannelKeepsItsPendingQueue) {
  ReliableConfig config;
  config.window = 1;
  ReliableTransport original(config);
  Message m1 = Basic(1, 2), m2 = Basic(1, 2), m3 = Basic(1, 2);
  EXPECT_TRUE(original.StampOutgoing(m1, 0));
  EXPECT_FALSE(original.StampOutgoing(m2, 0));  // queued behind the window
  EXPECT_FALSE(original.StampOutgoing(m3, 0));

  PeerSnapshot snap;
  original.ExportPeer(1, &snap);
  ASSERT_EQ(snap.senders.size(), 1u);
  EXPECT_EQ(snap.senders[0].unacked.size(), 1u);
  ASSERT_EQ(snap.senders[0].pending.size(), 2u);
  EXPECT_EQ(snap.senders[0].pending[0].seq, 2u);
  EXPECT_EQ(snap.senders[0].pending[1].seq, 3u);

  ReliableTransport restored(config);
  restored.RestorePeer(snap, /*new_epoch=*/1, /*now=*/10);
  EXPECT_EQ(restored.ProtocolImage(1), original.ProtocolImage(1));
  EXPECT_TRUE(restored.HasUnacked());
  EXPECT_FALSE(restored.AllPayloadDelivered());  // queued payload pending
  // Acking seq 1 opens the window: the restored queue drains in FIFO
  // order, one slot at a time, exactly as it would have pre-crash.
  restored.OnWireDelivery(Ack(2, 1, 1), 11);
  auto drained = restored.PollWire(12);
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].seq, 2u);
  EXPECT_FALSE(drained[0].retransmit);
}

TEST(TransportSnapshotTest, ReceiverStateRestoresCumAndOutOfOrderExactly) {
  ReliableConfig config;
  config.ack_delay = 4;
  config.retransmit_timeout = 1000;
  ReliableTransport original(config);
  Message m[6];
  for (int i = 1; i <= 5; ++i) {
    m[i] = Basic(1, 2);
    original.StampOutgoing(m[i], 0);
  }
  // Seqs 1, 3, 5 arrive; 2 and 4 are holes.
  original.OnWireDelivery(m[1], 1);
  original.OnWireDelivery(m[3], 2);
  original.OnWireDelivery(m[5], 3);

  PeerSnapshot snap;
  original.ExportPeer(2, &snap);  // peer 2 is the receiver
  EXPECT_TRUE(snap.senders.empty());
  ASSERT_EQ(snap.receivers.size(), 1u);
  EXPECT_EQ(snap.receivers[0].from, 1u);
  EXPECT_EQ(snap.receivers[0].cum, 1u);
  EXPECT_EQ(snap.receivers[0].out_of_order, (std::vector<uint64_t>{3, 5}));

  ReliableTransport restored(config);
  restored.RestorePeer(snap, /*new_epoch=*/1, /*now=*/100);
  EXPECT_TRUE(restored.Seen({1, 2}, 1));
  EXPECT_FALSE(restored.Seen({1, 2}, 2));
  EXPECT_TRUE(restored.Seen({1, 2}, 3));
  EXPECT_FALSE(restored.Seen({1, 2}, 4));
  EXPECT_TRUE(restored.Seen({1, 2}, 5));
  // A restored receiver immediately owes an ack re-advertising the resume
  // point: cum=1 plus SACK blocks for the out-of-order islands.
  auto acks = restored.PollWire(100 + config.ack_delay);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].kind, MessageKind::kTransportAck);
  EXPECT_EQ(acks[0].ack, 1u);
  EXPECT_EQ(acks[0].sack, (std::vector<SackBlock>{{3, 3}, {5, 5}}));
  EXPECT_EQ(acks[0].epoch, 1u);  // stamped with the restored incarnation
}

TEST(TransportSnapshotTest, ExportIsScopedToTheRequestedPeer) {
  ReliableTransport transport;
  Message a = Basic(1, 2), b = Basic(3, 4);
  transport.StampOutgoing(a, 0);
  transport.StampOutgoing(b, 0);
  transport.OnWireDelivery(a, 1);
  transport.OnWireDelivery(b, 2);

  PeerSnapshot one;
  transport.ExportPeer(1, &one);
  ASSERT_EQ(one.senders.size(), 1u);
  EXPECT_EQ(one.senders[0].to, 2u);
  // Stamping (1,2) touched the reverse channel's receiver state for ack
  // piggybacking; the empty entry is exported so the restored image
  // matches the original channel map exactly.
  ASSERT_EQ(one.receivers.size(), 1u);
  EXPECT_EQ(one.receivers[0].from, 2u);
  EXPECT_EQ(one.receivers[0].cum, 0u);

  PeerSnapshot four;
  transport.ExportPeer(4, &four);
  EXPECT_TRUE(four.senders.empty());
  ASSERT_EQ(four.receivers.size(), 1u);
  EXPECT_EQ(four.receivers[0].from, 3u);
}

// ---------------------------------------------------------------------------
// Durable store.
// ---------------------------------------------------------------------------

TEST(InMemoryDurableStoreTest, BlobsAndLogsAreIndependentNamespaces) {
  InMemoryDurableStore store;
  EXPECT_FALSE(store.Get("snap/1").has_value());
  EXPECT_TRUE(store.ReadLog("wal/1").empty());
  EXPECT_EQ(store.bytes_written(), 0u);

  store.Put("snap/1", "aaaa");
  store.Put("snap/1", "bb");  // overwrite
  ASSERT_TRUE(store.Get("snap/1").has_value());
  EXPECT_EQ(*store.Get("snap/1"), "bb");

  store.Append("wal/1", "r1");
  store.Append("wal/1", "r2");
  store.Append("wal/2", "x");
  EXPECT_EQ(store.ReadLog("wal/1"),
            (std::vector<std::string>{"r1", "r2"}));  // append order
  EXPECT_EQ(store.ReadLog("wal/2").size(), 1u);

  store.TruncateLog("wal/1");
  EXPECT_TRUE(store.ReadLog("wal/1").empty());
  EXPECT_EQ(store.ReadLog("wal/2").size(), 1u);  // other logs untouched
  EXPECT_FALSE(store.Get("wal/1").has_value());  // logs are not blobs

  // Write volume counts every byte handed to Put/Append (4+2+2+2+1).
  EXPECT_EQ(store.bytes_written(), 11u);
}

TEST(InMemoryDurableStoreTest, EraseRemovesOnlyThatBlob) {
  InMemoryDurableStore store;
  store.Put("snap/1", "a");
  store.Put("snap/2", "b");
  store.Append("snap/1", "r1");
  store.Erase("snap/1");
  store.Erase("snap/3");  // absent: no-op
  EXPECT_FALSE(store.Get("snap/1").has_value());
  ASSERT_TRUE(store.Get("snap/2").has_value());
  EXPECT_EQ(store.ReadLog("snap/1").size(), 1u);  // logs are not blobs
}

}  // namespace
}  // namespace dqsq::dist
