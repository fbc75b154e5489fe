#include "dist/wire_codec.h"

#include <cstring>

#include "common/logging.h"

namespace dqsq::dist {

namespace {

// ---- Symbolic building blocks. Every identifier travels as a name and is
// re-interned by the decoder, so the two contexts never need to agree on
// ids — only on the program text they were grown from.

void EncodeSymbol(SymbolId id, const DatalogContext& ctx, SnapshotWriter& w) {
  w.Str(ctx.symbols().Name(id));
}

SymbolId DecodeSymbol(SnapshotReader& r, DatalogContext& ctx) {
  return ctx.symbols().Intern(r.Str());
}

void EncodeRel(const RelId& rel, const DatalogContext& ctx,
               SnapshotWriter& w) {
  w.Str(ctx.PredicateName(rel.pred));
  w.U32(ctx.PredicateArity(rel.pred));
  EncodeSymbol(rel.peer, ctx, w);
}

RelId DecodeRel(SnapshotReader& r, DatalogContext& ctx) {
  std::string pred = r.Str();
  uint32_t arity = r.U32();
  RelId rel;
  rel.pred = ctx.InternPredicate(pred, arity);
  rel.peer = DecodeSymbol(r, ctx);
  return rel;
}

void EncodeWirePattern(const Pattern& p, const DatalogContext& ctx,
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
      w.U32(static_cast<uint32_t>(p.args().size()));
      for (const Pattern& a : p.args()) EncodeWirePattern(a, ctx, w);
      return;
  }
  DQSQ_CHECK(false) << "unencodable pattern kind";
}

Pattern DecodeWirePattern(SnapshotReader& r, DatalogContext& ctx) {
  switch (static_cast<Pattern::Kind>(r.U8())) {
    case Pattern::Kind::kVar:
      return Pattern::Var(r.U32());
    case Pattern::Kind::kConst:
      return Pattern::Const(DecodeSymbol(r, ctx));
    case Pattern::Kind::kApp: {
      SymbolId fn = DecodeSymbol(r, ctx);
      uint32_t n = r.U32();
      std::vector<Pattern> args;
      args.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        args.push_back(DecodeWirePattern(r, ctx));
      }
      return Pattern::App(fn, std::move(args));
    }
  }
  DQSQ_CHECK(false) << "corrupt pattern kind on the wire";
  return Pattern::Const(0);
}

void EncodeWireAtom(const Atom& atom, const DatalogContext& ctx,
                    SnapshotWriter& w) {
  EncodeRel(atom.rel, ctx, w);
  w.U32(static_cast<uint32_t>(atom.args.size()));
  for (const Pattern& p : atom.args) EncodeWirePattern(p, ctx, w);
}

Atom DecodeWireAtom(SnapshotReader& r, DatalogContext& ctx) {
  Atom atom;
  atom.rel = DecodeRel(r, ctx);
  uint32_t n = r.U32();
  atom.args.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    atom.args.push_back(DecodeWirePattern(r, ctx));
  }
  return atom;
}

void EncodeWireRule(const Rule& rule, const DatalogContext& ctx,
                    SnapshotWriter& w) {
  EncodeWireAtom(rule.head, ctx, w);
  w.U32(static_cast<uint32_t>(rule.body.size()));
  for (const Atom& a : rule.body) EncodeWireAtom(a, ctx, w);
  w.U32(static_cast<uint32_t>(rule.negative.size()));
  for (const Atom& a : rule.negative) EncodeWireAtom(a, ctx, w);
  w.U32(static_cast<uint32_t>(rule.diseqs.size()));
  for (const Diseq& d : rule.diseqs) {
    EncodeWirePattern(d.lhs, ctx, w);
    EncodeWirePattern(d.rhs, ctx, w);
  }
  w.U32(rule.num_vars);
  const std::vector<std::string>& names = VarNameList(rule.var_names);
  w.U32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) w.Str(name);
}

Rule DecodeWireRule(SnapshotReader& r, DatalogContext& ctx) {
  Rule rule;
  rule.head = DecodeWireAtom(r, ctx);
  uint32_t n = r.U32();
  rule.body.reserve(n);
  for (uint32_t i = 0; i < n; ++i) rule.body.push_back(DecodeWireAtom(r, ctx));
  n = r.U32();
  rule.negative.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    rule.negative.push_back(DecodeWireAtom(r, ctx));
  }
  n = r.U32();
  rule.diseqs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Diseq d;
    d.lhs = DecodeWirePattern(r, ctx);
    d.rhs = DecodeWirePattern(r, ctx);
    rule.diseqs.push_back(std::move(d));
  }
  rule.num_vars = r.U32();
  n = r.U32();
  std::vector<std::string> names;
  names.reserve(n);
  for (uint32_t i = 0; i < n; ++i) names.push_back(r.Str());
  rule.var_names =
      std::make_shared<const std::vector<std::string>>(std::move(names));
  return rule;
}

/// True for kinds whose `rel` field is meaningful (the default-constructed
/// RelId of acks/hellos need not name an interned predicate).
bool HasRel(MessageKind kind) {
  return kind == MessageKind::kTuples || kind == MessageKind::kActivate ||
         kind == MessageKind::kSubquery;
}

}  // namespace

void EncodeWireTerm(TermId term, const DatalogContext& ctx,
                    SnapshotWriter& w) {
  const TermArena& arena = ctx.arena();
  if (arena.IsApp(term)) {
    w.U8(1);
    EncodeSymbol(arena.Symbol(term), ctx, w);
    auto args = arena.Args(term);
    w.U32(static_cast<uint32_t>(args.size()));
    for (TermId a : args) EncodeWireTerm(a, ctx, w);
  } else {
    w.U8(0);
    EncodeSymbol(arena.Symbol(term), ctx, w);
  }
}

TermId DecodeWireTerm(SnapshotReader& r, DatalogContext& ctx) {
  if (r.U8() == 0) {
    return ctx.arena().MakeConstant(DecodeSymbol(r, ctx));
  }
  SymbolId fn = DecodeSymbol(r, ctx);
  uint32_t n = r.U32();
  std::vector<TermId> args;
  args.reserve(n);
  for (uint32_t i = 0; i < n; ++i) args.push_back(DecodeWireTerm(r, ctx));
  return ctx.arena().MakeApp(fn, args);
}

std::string EncodeWireMessage(const Message& m, const DatalogContext& ctx) {
  SnapshotWriter w;
  w.U8(static_cast<uint8_t>(m.kind));
  EncodeSymbol(m.from, ctx, w);
  EncodeSymbol(m.to, ctx, w);
  if (HasRel(m.kind)) EncodeRel(m.rel, ctx, w);
  w.U32(static_cast<uint32_t>(m.tuples.size()));
  for (const Tuple& t : m.tuples) {
    w.U32(static_cast<uint32_t>(t.size()));
    for (TermId term : t) EncodeWireTerm(term, ctx, w);
  }
  if (m.kind == MessageKind::kActivate) EncodeSymbol(m.subscriber, ctx, w);
  w.U32(static_cast<uint32_t>(m.adornment.size()));
  for (bool b : m.adornment) w.Bool(b);
  w.U32(static_cast<uint32_t>(m.rules.size()));
  for (const Rule& rule : m.rules) EncodeWireRule(rule, ctx, w);
  // Transport envelope, verbatim: sequence numbers and epochs are
  // channel-local protocol state, not arena identifiers.
  w.U64(m.seq);
  w.U64(m.ack);
  w.U32(static_cast<uint32_t>(m.sack.size()));
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
    w.U32(static_cast<uint32_t>(m.sections.size()));
    for (const TupleSection& s : m.sections) {
      EncodeRel(s.rel, ctx, w);
      w.U32(static_cast<uint32_t>(s.tuples.size()));
      for (const Tuple& t : s.tuples) {
        w.U32(static_cast<uint32_t>(t.size()));
        for (TermId term : t) EncodeWireTerm(term, ctx, w);
      }
    }
  }
  return w.Take();
}

Message DecodeWireMessage(std::string_view payload, DatalogContext& ctx) {
  SnapshotReader r(payload);
  Message m;
  m.kind = static_cast<MessageKind>(r.U8());
  m.from = DecodeSymbol(r, ctx);
  m.to = DecodeSymbol(r, ctx);
  if (HasRel(m.kind)) m.rel = DecodeRel(r, ctx);
  uint32_t n = r.U32();
  m.tuples.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t arity = r.U32();
    Tuple t;
    t.reserve(arity);
    for (uint32_t j = 0; j < arity; ++j) {
      t.push_back(DecodeWireTerm(r, ctx));
    }
    m.tuples.push_back(std::move(t));
  }
  if (m.kind == MessageKind::kActivate) m.subscriber = DecodeSymbol(r, ctx);
  n = r.U32();
  m.adornment.reserve(n);
  for (uint32_t i = 0; i < n; ++i) m.adornment.push_back(r.Bool());
  n = r.U32();
  m.rules.reserve(n);
  for (uint32_t i = 0; i < n; ++i) m.rules.push_back(DecodeWireRule(r, ctx));
  m.seq = r.U64();
  m.ack = r.U64();
  n = r.U32();
  m.sack.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SackBlock s;
    s.first = r.U64();
    s.last = r.U64();
    m.sack.push_back(s);
  }
  uint8_t flags = r.U8();
  m.retransmit = (flags & 1) != 0;
  m.epoch = r.U64();
  if ((flags & 4) != 0) {
    uint32_t sections = r.U32();
    m.sections.reserve(sections);
    for (uint32_t i = 0; i < sections; ++i) {
      TupleSection s;
      s.rel = DecodeRel(r, ctx);
      uint32_t rows = r.U32();
      s.tuples.reserve(rows);
      for (uint32_t j = 0; j < rows; ++j) {
        uint32_t arity = r.U32();
        Tuple t;
        t.reserve(arity);
        for (uint32_t k = 0; k < arity; ++k) {
          t.push_back(DecodeWireTerm(r, ctx));
        }
        s.tuples.push_back(std::move(t));
      }
      m.sections.push_back(std::move(s));
    }
  }
  DQSQ_CHECK(r.AtEnd()) << "trailing bytes after wire message";
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
