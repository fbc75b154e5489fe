#include "dist/wire_codec.h"

#include <cstring>

#include "common/logging.h"

namespace dqsq::dist {

namespace {

// ---- Identifier leaves: the only place the two modes differ.

void EncodeSymbol(SymbolId id, const DatalogContext* ctx, SnapshotWriter& w) {
  if (ctx == nullptr) {
    w.U32(id);
  } else {
    w.Str(ctx->symbols().Name(id));
  }
}

SymbolId DecodeSymbol(SnapshotReader& r, DatalogContext* ctx) {
  return ctx == nullptr ? r.U32() : ctx->symbols().Intern(r.Str());
}

void CheckDepth(uint32_t depth) {
  DQSQ_CHECK_LE(depth, kMaxTermDepth)
      << "corrupt message: term nested deeper than " << kMaxTermDepth;
}

TermId DecodeTermAt(SnapshotReader& r, DatalogContext* ctx, uint32_t depth) {
  if (ctx == nullptr) return r.U32();
  CheckDepth(depth);
  const bool app = r.U8() != 0;
  const SymbolId symbol = DecodeSymbol(r, ctx);
  if (!app) return ctx->arena().MakeConstant(symbol);
  const std::vector<TermId> args =
      r.Seq([&] { return DecodeTermAt(r, ctx, depth + 1); });
  return ctx->arena().MakeApp(symbol, args);
}

// ---- The layout.

Pattern DecodePatternAt(SnapshotReader& r, DatalogContext* ctx,
                        uint32_t depth) {
  CheckDepth(depth);
  switch (static_cast<Pattern::Kind>(r.U8())) {
    case Pattern::Kind::kVar:
      return Pattern::Var(r.U32());
    case Pattern::Kind::kConst:
      return Pattern::Const(DecodeSymbol(r, ctx));
    case Pattern::Kind::kApp: {
      const SymbolId fn = DecodeSymbol(r, ctx);
      return Pattern::App(
          fn, r.Seq([&] { return DecodePatternAt(r, ctx, depth + 1); }));
    }
  }
  DQSQ_CHECK(false) << "corrupt pattern kind";
  return Pattern::Const(0);
}

void EncodeAtom(const Atom& atom, const DatalogContext* ctx,
                SnapshotWriter& w) {
  EncodeRel(atom.rel, ctx, w);
  w.Count(atom.args.size());
  for (const Pattern& p : atom.args) EncodePattern(p, ctx, w);
}

Atom DecodeAtom(SnapshotReader& r, DatalogContext* ctx) {
  Atom atom;
  atom.rel = DecodeRel(r, ctx);
  atom.args = r.Seq([&] { return DecodePattern(r, ctx); });
  return atom;
}

void EncodeTuples(const std::vector<Tuple>& tuples, const DatalogContext* ctx,
                  SnapshotWriter& w) {
  w.Count(tuples.size());
  for (const Tuple& t : tuples) EncodeTuple(t, ctx, w);
}

/// True for kinds whose `rel` field is meaningful (the default-constructed
/// RelId of acks/hellos need not name an interned predicate).
bool HasRel(MessageKind kind) {
  return kind == MessageKind::kTuples || kind == MessageKind::kActivate ||
         kind == MessageKind::kSubquery;
}

}  // namespace

void EncodeRel(const RelId& rel, const DatalogContext* ctx,
               SnapshotWriter& w) {
  if (ctx == nullptr) {
    w.U32(rel.pred);
  } else {
    w.Str(ctx->PredicateName(rel.pred));
    w.U32(ctx->PredicateArity(rel.pred));
  }
  EncodeSymbol(rel.peer, ctx, w);
}

RelId DecodeRel(SnapshotReader& r, DatalogContext* ctx) {
  RelId rel;
  if (ctx == nullptr) {
    rel.pred = r.U32();
  } else {
    std::string pred = r.Str();
    rel.pred = ctx->InternPredicate(pred, r.U32());
  }
  rel.peer = DecodeSymbol(r, ctx);
  return rel;
}

void EncodeTerm(TermId term, const DatalogContext* ctx, SnapshotWriter& w) {
  if (ctx == nullptr) {
    w.U32(term);
    return;
  }
  const TermArena& arena = ctx->arena();
  const bool app = arena.IsApp(term);
  w.U8(app ? 1 : 0);
  EncodeSymbol(arena.Symbol(term), ctx, w);
  if (!app) return;
  auto args = arena.Args(term);
  w.Count(args.size());
  for (TermId a : args) EncodeTerm(a, ctx, w);
}

TermId DecodeTerm(SnapshotReader& r, DatalogContext* ctx) {
  return DecodeTermAt(r, ctx, 1);
}

void EncodeTuple(const Tuple& t, const DatalogContext* ctx,
                 SnapshotWriter& w) {
  w.Count(t.size());
  for (TermId term : t) EncodeTerm(term, ctx, w);
}

Tuple DecodeTuple(SnapshotReader& r, DatalogContext* ctx) {
  return r.Seq([&] { return DecodeTerm(r, ctx); });
}

void EncodeAdornment(const std::vector<bool>& adornment, SnapshotWriter& w) {
  w.Count(adornment.size());
  for (bool b : adornment) w.Bool(b);
}

std::vector<bool> DecodeAdornment(SnapshotReader& r) {
  return r.Seq([&] { return r.Bool(); });
}

void EncodePattern(const Pattern& p, const DatalogContext* ctx,
                   SnapshotWriter& w) {
  w.U8(static_cast<uint8_t>(p.kind()));
  switch (p.kind()) {
    case Pattern::Kind::kVar:
      w.U32(p.var());
      return;
    case Pattern::Kind::kConst:
      EncodeSymbol(p.symbol(), ctx, w);
      return;
    case Pattern::Kind::kApp:
      EncodeSymbol(p.symbol(), ctx, w);
      w.Count(p.args().size());
      for (const Pattern& a : p.args()) EncodePattern(a, ctx, w);
      return;
  }
  DQSQ_CHECK(false) << "unencodable pattern kind";
}

Pattern DecodePattern(SnapshotReader& r, DatalogContext* ctx) {
  return DecodePatternAt(r, ctx, 1);
}

void EncodeRule(const Rule& rule, const DatalogContext* ctx,
                SnapshotWriter& w) {
  EncodeAtom(rule.head, ctx, w);
  w.Count(rule.body.size());
  for (const Atom& a : rule.body) EncodeAtom(a, ctx, w);
  w.Count(rule.negative.size());
  for (const Atom& a : rule.negative) EncodeAtom(a, ctx, w);
  w.Count(rule.diseqs.size());
  for (const Diseq& d : rule.diseqs) {
    EncodePattern(d.lhs, ctx, w);
    EncodePattern(d.rhs, ctx, w);
  }
  w.U32(rule.num_vars);
  const std::vector<std::string>& names = VarNameList(rule.var_names);
  w.Count(names.size());
  for (const std::string& name : names) w.Str(name);
}

Rule DecodeRule(SnapshotReader& r, DatalogContext* ctx) {
  Rule rule;
  rule.head = DecodeAtom(r, ctx);
  rule.body = r.Seq([&] { return DecodeAtom(r, ctx); });
  rule.negative = r.Seq([&] { return DecodeAtom(r, ctx); });
  rule.diseqs = r.Seq([&] {
    Diseq d;
    d.lhs = DecodePattern(r, ctx);
    d.rhs = DecodePattern(r, ctx);
    return d;
  });
  rule.num_vars = r.U32();
  rule.var_names = std::make_shared<const std::vector<std::string>>(
      r.Seq([&] { return r.Str(); }));
  return rule;
}

void EncodeMessage(const Message& m, const DatalogContext* ctx,
                   SnapshotWriter& w) {
  w.U8(static_cast<uint8_t>(m.kind));
  EncodeSymbol(m.from, ctx, w);
  EncodeSymbol(m.to, ctx, w);
  if (HasRel(m.kind)) EncodeRel(m.rel, ctx, w);
  EncodeTuples(m.tuples, ctx, w);
  if (m.kind == MessageKind::kActivate) EncodeSymbol(m.subscriber, ctx, w);
  EncodeAdornment(m.adornment, w);
  w.Count(m.rules.size());
  for (const Rule& rule : m.rules) EncodeRule(rule, ctx, w);
  // Transport envelope, verbatim: sequence numbers and epochs are
  // channel-local protocol state, not arena identifiers.
  w.U64(m.seq);
  w.U64(m.ack);
  w.Count(m.sack.size());
  for (const SackBlock& s : m.sack) {
    w.U64(s.first);
    w.U64(s.last);
  }
  // Flags byte: bit0 = retransmit, bit1 = reserved (never set, ignored on
  // decode), bit2 = extra kTuples sections follow.
  uint8_t flags = 0;
  if (m.retransmit) flags |= 1;
  if (!m.sections.empty()) flags |= 4;
  w.U8(flags);
  w.U64(m.epoch);
  if (!m.sections.empty()) {
    w.Count(m.sections.size());
    for (const TupleSection& s : m.sections) {
      EncodeRel(s.rel, ctx, w);
      EncodeTuples(s.tuples, ctx, w);
    }
  }
}

Message DecodeMessage(SnapshotReader& r, DatalogContext* ctx) {
  auto read_tuples = [&] {
    return r.Seq([&] { return DecodeTuple(r, ctx); });
  };
  Message m;
  m.kind = static_cast<MessageKind>(r.U8());
  m.from = DecodeSymbol(r, ctx);
  m.to = DecodeSymbol(r, ctx);
  if (HasRel(m.kind)) m.rel = DecodeRel(r, ctx);
  m.tuples = read_tuples();
  if (m.kind == MessageKind::kActivate) m.subscriber = DecodeSymbol(r, ctx);
  m.adornment = DecodeAdornment(r);
  m.rules = r.Seq([&] { return DecodeRule(r, ctx); });
  m.seq = r.U64();
  m.ack = r.U64();
  m.sack = r.Seq([&] {
    SackBlock s;
    s.first = r.U64();
    s.last = r.U64();
    return s;
  });
  const uint8_t flags = r.U8();
  m.retransmit = (flags & 1) != 0;
  m.epoch = r.U64();
  if ((flags & 4) != 0) {
    m.sections = r.Seq([&] {
      TupleSection s;
      s.rel = DecodeRel(r, ctx);
      s.tuples = read_tuples();
      return s;
    });
  }
  return m;
}

// ---- Framing -------------------------------------------------------------

uint32_t WireChecksum(std::string_view payload) {
  uint32_t h = 2166136261u;
  for (char c : payload) {
    h ^= static_cast<uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

namespace {

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

bool ValidFrameType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kHello) &&
         t <= static_cast<uint8_t>(FrameType::kShutdown);
}

}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  DQSQ_CHECK_LE(payload.size(), kMaxFramePayload) << "oversized frame";
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(out, kFrameMagic);
  out.push_back(static_cast<char>(type));
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, WireChecksum(payload));
  out.append(payload);
  return out;
}

void FrameDecoder::Feed(std::string_view bytes) {
  // Compact lazily: drop the consumed prefix once it dominates the buffer,
  // keeping Feed amortized O(bytes).
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(bytes);
}

StatusOr<std::optional<Frame>> FrameDecoder::Next() {
  if (poisoned_.has_value()) return *poisoned_;
  auto poison = [this](Status status) {
    poisoned_ = status;
    return status;
  };
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return std::optional<Frame>();
  const char* header = buffer_.data() + consumed_;
  if (GetU32(header) != kFrameMagic) {
    return poison(InvalidArgumentError(
        "wire framing error: bad magic (stream out of sync)"));
  }
  const uint8_t type = static_cast<uint8_t>(header[4]);
  if (!ValidFrameType(type)) {
    return poison(InvalidArgumentError("wire framing error: unknown type " +
                                       std::to_string(type)));
  }
  const uint32_t len = GetU32(header + 5);
  if (len > kMaxFramePayload) {
    return poison(InvalidArgumentError(
        "wire framing error: payload length " + std::to_string(len) +
        " exceeds bound (stream out of sync)"));
  }
  if (available < kFrameHeaderBytes + len) return std::optional<Frame>();
  const uint32_t checksum = GetU32(header + 9);
  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.assign(buffer_, consumed_ + kFrameHeaderBytes, len);
  if (WireChecksum(frame.payload) != checksum) {
    return poison(
        InvalidArgumentError("wire framing error: payload checksum mismatch"));
  }
  consumed_ += kFrameHeaderBytes + len;
  return std::optional<Frame>(std::move(frame));
}

}  // namespace dqsq::dist
