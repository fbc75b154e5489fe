#include "dist/wire_codec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"

namespace dqsq::dist {
namespace {

// ---- Random message generation -------------------------------------------
// Names are drawn from small pools so cross-context re-interning gets
// exercised (the same name appears under different ids in different
// contexts). Predicate names carry their arity so InternPredicate stays
// consistent within a context.

SymbolId RandomName(Rng& rng, DatalogContext& ctx, const char* prefix) {
  return ctx.symbols().Intern(prefix + std::to_string(rng.NextBelow(6)));
}

TermId RandomTerm(Rng& rng, DatalogContext& ctx, int depth) {
  if (depth <= 0 || rng.NextBool(0.6)) {
    return ctx.arena().MakeConstant(RandomName(rng, ctx, "c"));
  }
  std::vector<TermId> args;
  size_t n = 1 + rng.NextBelow(3);
  for (size_t i = 0; i < n; ++i) {
    args.push_back(RandomTerm(rng, ctx, depth - 1));
  }
  return ctx.arena().MakeApp(RandomName(rng, ctx, "f"), args);
}

RelId RandomRel(Rng& rng, DatalogContext& ctx) {
  uint32_t arity = 1 + static_cast<uint32_t>(rng.NextBelow(3));
  std::string pred =
      "r" + std::to_string(arity) + "_" + std::to_string(rng.NextBelow(4));
  return RelId{ctx.InternPredicate(pred, arity), RandomName(rng, ctx, "p")};
}

Pattern RandomPattern(Rng& rng, DatalogContext& ctx, int depth) {
  switch (depth > 0 ? rng.NextBelow(3) : rng.NextBelow(2)) {
    case 0:
      return Pattern::Var(static_cast<uint32_t>(rng.NextBelow(4)));
    case 1:
      return Pattern::Const(RandomName(rng, ctx, "c"));
    default: {
      std::vector<Pattern> args;
      size_t n = 1 + rng.NextBelow(2);
      for (size_t i = 0; i < n; ++i) {
        args.push_back(RandomPattern(rng, ctx, depth - 1));
      }
      return Pattern::App(RandomName(rng, ctx, "f"), std::move(args));
    }
  }
}

Atom RandomAtom(Rng& rng, DatalogContext& ctx) {
  Atom atom;
  atom.rel = RandomRel(rng, ctx);
  uint32_t arity = ctx.PredicateArity(atom.rel.pred);
  for (uint32_t i = 0; i < arity; ++i) {
    atom.args.push_back(RandomPattern(rng, ctx, 2));
  }
  return atom;
}

Rule RandomRule(Rng& rng, DatalogContext& ctx) {
  Rule rule;
  rule.head = RandomAtom(rng, ctx);
  size_t body = 1 + rng.NextBelow(2);
  for (size_t i = 0; i < body; ++i) rule.body.push_back(RandomAtom(rng, ctx));
  if (rng.NextBool(0.3)) {
    Diseq d;
    d.lhs = RandomPattern(rng, ctx, 1);
    d.rhs = RandomPattern(rng, ctx, 1);
    rule.diseqs.push_back(std::move(d));
  }
  rule.num_vars = 4;
  std::vector<std::string> names;
  for (uint32_t i = 0; i < rule.num_vars; ++i) {
    names.push_back("V" + std::to_string(i));
  }
  rule.var_names =
      std::make_shared<const std::vector<std::string>>(std::move(names));
  return rule;
}

Message RandomMessage(Rng& rng, DatalogContext& ctx) {
  static const MessageKind kKinds[] = {
      MessageKind::kTuples, MessageKind::kActivate, MessageKind::kSubquery,
      MessageKind::kInstall, MessageKind::kAck};
  Message m;
  m.kind = kKinds[rng.NextBelow(5)];
  m.from = RandomName(rng, ctx, "p");
  m.to = RandomName(rng, ctx, "p");
  if (m.kind == MessageKind::kTuples || m.kind == MessageKind::kActivate ||
      m.kind == MessageKind::kSubquery) {
    m.rel = RandomRel(rng, ctx);
  }
  if (m.kind == MessageKind::kTuples) {
    uint32_t arity = ctx.PredicateArity(m.rel.pred);
    size_t n = rng.NextBelow(4);
    for (size_t i = 0; i < n; ++i) {
      Tuple t;
      for (uint32_t j = 0; j < arity; ++j) {
        t.push_back(RandomTerm(rng, ctx, 2));
      }
      m.tuples.push_back(std::move(t));
    }
  }
  if (m.kind == MessageKind::kActivate) {
    m.subscriber = RandomName(rng, ctx, "p");
  }
  if (m.kind == MessageKind::kSubquery) {
    uint32_t arity = ctx.PredicateArity(m.rel.pred);
    for (uint32_t i = 0; i < arity; ++i) {
      m.adornment.push_back(rng.NextBool(0.5));
    }
  }
  if (m.kind == MessageKind::kInstall) {
    size_t n = 1 + rng.NextBelow(2);
    for (size_t i = 0; i < n; ++i) m.rules.push_back(RandomRule(rng, ctx));
  }
  // Transport envelope.
  m.seq = rng.NextBelow(1000);
  m.ack = rng.NextBelow(1000);
  if (rng.NextBool(0.3)) {
    m.sack.push_back(SackBlock{rng.NextBelow(100), 100 + rng.NextBelow(100)});
  }
  m.retransmit = rng.NextBool(0.2);
  m.epoch = rng.NextBelow(5);
  return m;
}

/// Interns a seed-dependent set of names so the receiving context's id
/// assignment differs from the sender's — the situation the symbolic
/// codec exists for.
void ScrambleInterning(Rng& rng, DatalogContext& ctx) {
  size_t n = rng.NextBelow(20);
  for (size_t i = 0; i < n; ++i) {
    ctx.symbols().Intern("scramble" + std::to_string(rng.NextBelow(50)));
    RandomName(rng, ctx, "c");
    RandomName(rng, ctx, "p");
  }
}

std::string Encode(const Message& m, const DatalogContext* ctx) {
  SnapshotWriter w;
  EncodeMessage(m, ctx, w);
  return w.Take();
}

std::string Encode(const Message& m, const DatalogContext& ctx) {
  return Encode(m, &ctx);
}

Message Decode(std::string_view bytes, DatalogContext* ctx) {
  SnapshotReader r(bytes);
  Message m = DecodeMessage(r, ctx);
  EXPECT_TRUE(r.AtEnd());
  return m;
}

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(c) & 0xf]);
  }
  return out;
}

// The cross-process bytes are a contract between processes that may run
// different builds: one fixed message of every payload-carrying kind is
// pinned to its committed encoding.
TEST(WireCodecTest, EncodingIsPinned) {
  DatalogContext ctx;
  auto sym = [&](const char* name) { return ctx.symbols().Intern(name); };
  const SymbolId p = sym("p");
  const SymbolId q = sym("q");
  const RelId edge{ctx.InternPredicate("edge", 2), q};
  const RelId mark{ctx.InternPredicate("mark", 1), q};
  const TermId a = ctx.arena().MakeConstant(sym("a"));
  const TermId b = ctx.arena().MakeConstant(sym("b"));
  const TermId g = ctx.arena().MakeApp(sym("g"), std::vector<TermId>{b});
  const TermId fab = ctx.arena().MakeApp(sym("f"), std::vector<TermId>{a, g});

  Message tuples;
  tuples.kind = MessageKind::kTuples;
  tuples.from = p;
  tuples.to = q;
  tuples.rel = edge;
  tuples.tuples = {{a, fab}};
  tuples.sections = {TupleSection{mark, {{b}, {g}}},
                     TupleSection{edge, {{fab, a}}}};
  tuples.seq = 7;
  EXPECT_EQ(Hex(Encode(tuples, ctx)),
            "0001000000000000007001000000000000007104000000000000006564676502"
            "0000000100000000000000710100000002000000000100000000000000610101"
            "0000000000000066020000000001000000000000006101010000000000000067"
            "0100000000010000000000000062000000000000000007000000000000000000"
            "000000000000000000000400000000000000000200000004000000000000006d"
            "61726b0100000001000000000000007102000000010000000001000000000000"
            "0062010000000101000000000000006701000000000100000000000000620400"
            "0000000000006564676502000000010000000000000071010000000200000001"
            "0100000000000000660200000000010000000000000061010100000000000000"
            "67010000000001000000000000006200010000000000000061");

  Message activate;
  activate.kind = MessageKind::kActivate;
  activate.from = q;
  activate.to = p;
  activate.rel = mark;
  activate.subscriber = q;
  EXPECT_EQ(Hex(Encode(activate, ctx)),
            "0101000000000000007101000000000000007004000000000000006d61726b01"
            "0000000100000000000000710000000001000000000000007100000000000000"
            "000000000000000000000000000000000000000000000000000000000000");

  Message subquery;
  subquery.kind = MessageKind::kSubquery;
  subquery.from = p;
  subquery.to = q;
  subquery.rel = edge;
  subquery.adornment = {true, false};
  EXPECT_EQ(Hex(Encode(subquery, ctx)),
            "0201000000000000007001000000000000007104000000000000006564676502"
            "0000000100000000000000710000000002000000010000000000000000000000"
            "0000000000000000000000000000000000000000000000");

  Rule rule;
  rule.head.rel = edge;
  rule.head.args = {Pattern::Var(0), Pattern::Var(1)};
  Atom body;
  body.rel = edge;
  body.args = {Pattern::Var(0),
               Pattern::App(sym("f"), {Pattern::Const(sym("a")),
                                       Pattern::Var(1)})};
  rule.body.push_back(body);
  Atom neg;
  neg.rel = mark;
  neg.args = {Pattern::Var(1)};
  rule.negative.push_back(neg);
  rule.diseqs.push_back(Diseq{Pattern::Var(0), Pattern::Const(sym("b"))});
  rule.num_vars = 2;
  rule.var_names = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"X", "Y"});
  Message install;
  install.kind = MessageKind::kInstall;
  install.from = p;
  install.to = q;
  install.rules = {rule};
  EXPECT_EQ(Hex(Encode(install, ctx)),
            "0301000000000000007001000000000000007100000000000000000100000004"
            "0000000000000065646765020000000100000000000000710200000000000000"
            "0000010000000100000004000000000000006564676502000000010000000000"
            "0000710200000000000000000201000000000000006602000000010100000000"
            "0000006100010000000100000004000000000000006d61726b01000000010000"
            "0000000000710100000000010000000100000000000000000101000000000000"
            "0062020000000200000001000000000000005801000000000000005900000000"
            "00000000000000000000000000000000000000000000000000");

  Message ack;
  ack.kind = MessageKind::kTransportAck;
  ack.from = q;
  ack.to = p;
  ack.ack = 5;
  ack.sack = {{7, 9}, {12, 12}};
  ack.retransmit = true;
  ack.epoch = 3;
  EXPECT_EQ(Hex(Encode(ack, ctx)),
            "0501000000000000007101000000000000007000000000000000000000000000"
            "0000000000000005000000000000000200000007000000000000000900000000"
            "0000000c000000000000000c00000000000000010300000000000000");
}

// The round-trip property: decoding into a context with a different
// interning order and re-encoding reproduces the original bytes (the
// encoding is name-based, so it is independent of local ids). The same
// messages written with raw ids read back unchanged in the writing
// process, as the write-ahead log and checkpoints do.
TEST(WireCodecTest, SymbolicRoundTripAcrossContexts20Seeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    DatalogContext sender;
    DatalogContext receiver;
    ScrambleInterning(rng, receiver);
    for (int i = 0; i < 10; ++i) {
      Message original = RandomMessage(rng, sender);
      std::string bytes = Encode(original, sender);
      Message decoded = Decode(bytes, &receiver);
      EXPECT_EQ(Encode(decoded, receiver), bytes)
          << "seed " << seed << " message " << i;
      // Spot-check the names survived the id translation.
      EXPECT_EQ(receiver.symbols().Name(decoded.from),
                sender.symbols().Name(original.from));
      EXPECT_EQ(receiver.symbols().Name(decoded.to),
                sender.symbols().Name(original.to));
      EXPECT_EQ(decoded.tuples.size(), original.tuples.size());
      EXPECT_EQ(decoded.seq, original.seq);
      EXPECT_EQ(decoded.epoch, original.epoch);

      std::string id_bytes = Encode(original, kRawIds);
      Message same = Decode(id_bytes, kRawIds);
      EXPECT_EQ(Encode(same, kRawIds), id_bytes)
          << "seed " << seed << " message " << i;
      EXPECT_EQ(same.from, original.from);
      EXPECT_EQ(same.to, original.to);
      EXPECT_EQ(same.rel, original.rel);
      EXPECT_EQ(same.tuples, original.tuples);
      EXPECT_EQ(same.subscriber, original.subscriber);
      EXPECT_EQ(same.adornment, original.adornment);
      EXPECT_EQ(same.rules.size(), original.rules.size());
      EXPECT_EQ(same.sack, original.sack);
      EXPECT_EQ(same.seq, original.seq);
      EXPECT_EQ(same.epoch, original.epoch);
    }
  }
}

TEST(WireCodecTest, TermRoundTripPreservesRendering) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    DatalogContext sender;
    DatalogContext receiver;
    ScrambleInterning(rng, receiver);
    TermId term = RandomTerm(rng, sender, 3);
    SnapshotWriter w;
    EncodeTerm(term, &sender, w);
    SnapshotReader r(w.bytes());
    TermId decoded = DecodeTerm(r, &receiver);
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(receiver.arena().ToString(decoded, receiver.symbols()),
              sender.arena().ToString(term, sender.symbols()));
  }
}

// ---- Decoder bounds ------------------------------------------------------

TEST(WireCodecDeathTest, DeepNestingStopsAtTheTermDepthLimit) {
  // f(f(...f(X)...)) 100,000 deep, built by hand: the decoder must stop at
  // kMaxTermDepth instead of recursing until the stack runs out.
  constexpr int kDepth = 100000;
  SnapshotWriter pattern;
  for (int i = 0; i < kDepth; ++i) {
    pattern.U8(static_cast<uint8_t>(Pattern::Kind::kApp));
    pattern.U32(0);  // function symbol id
    pattern.Count(1);
  }
  pattern.U8(static_cast<uint8_t>(Pattern::Kind::kVar));
  pattern.U32(0);
  SnapshotReader pattern_reader(pattern.bytes());
  EXPECT_DEATH((void)DecodePattern(pattern_reader, kRawIds),
               "nested deeper than 1000");

  SnapshotWriter term;
  for (int i = 0; i < kDepth; ++i) {
    term.U8(1);  // function application
    term.Str("f");
    term.Count(1);
  }
  term.U8(0);
  term.Str("a");
  DatalogContext ctx;
  SnapshotReader term_reader(term.bytes());
  EXPECT_DEATH((void)DecodeTerm(term_reader, &ctx), "nested deeper than 1000");
}

TEST(WireCodecDeathTest, CountBeyondTheBytesLeftIsTruncation) {
  // A count of 2^32-1 with 4 bytes behind it: rejected before any reserve.
  SnapshotWriter w;
  w.U32(UINT32_MAX);
  w.U32(0);
  SnapshotReader r(w.bytes());
  EXPECT_DEATH((void)DecodeTuple(r, kRawIds), "truncated");
}

// ---- Framing -------------------------------------------------------------

TEST(FrameDecoderTest, ReassemblesArbitraryChunking20Seeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    DatalogContext ctx;
    std::vector<std::string> payloads;
    std::string stream;
    size_t n = 1 + rng.NextBelow(8);
    for (size_t i = 0; i < n; ++i) {
      payloads.push_back(Encode(RandomMessage(rng, ctx), ctx));
      stream += EncodeFrame(FrameType::kPeerMessage, payloads.back());
    }
    FrameDecoder decoder;
    std::vector<Frame> frames;
    size_t pos = 0;
    while (pos < stream.size()) {
      size_t chunk = 1 + rng.NextBelow(97);  // tiny, unaligned chunks
      chunk = std::min(chunk, stream.size() - pos);
      decoder.Feed(std::string_view(stream).substr(pos, chunk));
      pos += chunk;
      for (;;) {
        auto next = decoder.Next();
        ASSERT_TRUE(next.ok()) << next.status().ToString();
        if (!next->has_value()) break;
        frames.push_back(std::move(**next));
      }
    }
    ASSERT_EQ(frames.size(), payloads.size()) << "seed " << seed;
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].type, FrameType::kPeerMessage);
      EXPECT_EQ(frames[i].payload, payloads[i]);
    }
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(FrameDecoderTest, TruncatedFrameWaitsForMoreBytes) {
  std::string frame = EncodeFrame(FrameType::kHello, "hello payload");
  FrameDecoder decoder;
  decoder.Feed(std::string_view(frame).substr(0, frame.size() - 1));
  auto next = decoder.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->has_value());  // incomplete, not an error
  decoder.Feed(std::string_view(frame).substr(frame.size() - 1));
  next = decoder.Next();
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next->has_value());
  EXPECT_EQ((*next)->payload, "hello payload");
}

TEST(FrameDecoderTest, GarbagePrefixPoisonsTheStream) {
  FrameDecoder decoder;
  decoder.Feed("this is not a frame header at all");
  auto next = decoder.Next();
  EXPECT_FALSE(next.ok());
  // Poisoned: even after feeding a valid frame the error persists (a byte
  // stream that lost sync cannot be trusted again).
  decoder.Feed(EncodeFrame(FrameType::kHello, "ok"));
  EXPECT_FALSE(decoder.Next().ok());
}

TEST(FrameDecoderTest, ChecksumMismatchIsAnError) {
  std::string frame = EncodeFrame(FrameType::kStart, "some payload bytes");
  frame[frame.size() - 1] ^= 0x5a;  // corrupt the payload, not the header
  FrameDecoder decoder;
  decoder.Feed(frame);
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("checksum"), std::string::npos);
}

TEST(FrameDecoderTest, OversizedLengthIsAnErrorNotAnAllocation) {
  std::string frame = EncodeFrame(FrameType::kHello, "x");
  // Patch the length field (bytes 5..8) to an absurd value.
  for (int i = 5; i < 9; ++i) frame[i] = static_cast<char>(0xff);
  FrameDecoder decoder;
  decoder.Feed(frame);
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("length"), std::string::npos);
}

TEST(FrameDecoderTest, UnknownFrameTypeIsAnError) {
  std::string frame = EncodeFrame(FrameType::kHello, "x");
  frame[4] = static_cast<char>(0x7f);
  FrameDecoder decoder;
  decoder.Feed(frame);
  EXPECT_FALSE(decoder.Next().ok());
}

}  // namespace
}  // namespace dqsq::dist
