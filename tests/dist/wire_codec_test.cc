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

// The round-trip property: decoding into a context with a different
// interning order and re-encoding reproduces the original bytes (the
// encoding is name-based, so it is independent of local ids).
TEST(WireCodecTest, SymbolicRoundTripAcrossContexts20Seeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    DatalogContext sender;
    DatalogContext receiver;
    ScrambleInterning(rng, receiver);
    for (int i = 0; i < 10; ++i) {
      Message original = RandomMessage(rng, sender);
      std::string bytes = EncodeWireMessage(original, sender);
      Message decoded = DecodeWireMessage(bytes, receiver);
      EXPECT_EQ(EncodeWireMessage(decoded, receiver), bytes)
          << "seed " << seed << " message " << i;
      // Spot-check the names survived the id translation.
      EXPECT_EQ(receiver.symbols().Name(decoded.from),
                sender.symbols().Name(original.from));
      EXPECT_EQ(receiver.symbols().Name(decoded.to),
                sender.symbols().Name(original.to));
      EXPECT_EQ(decoded.tuples.size(), original.tuples.size());
      EXPECT_EQ(decoded.seq, original.seq);
      EXPECT_EQ(decoded.epoch, original.epoch);
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
    EncodeWireTerm(term, sender, w);
    SnapshotReader r(w.bytes());
    TermId decoded = DecodeWireTerm(r, receiver);
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(receiver.arena().ToString(decoded, receiver.symbols()),
              sender.arena().ToString(term, sender.symbols()));
  }
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
      payloads.push_back(EncodeWireMessage(RandomMessage(rng, ctx), ctx));
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
