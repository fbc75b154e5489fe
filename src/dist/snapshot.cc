#include "dist/snapshot.h"

#include <utility>

#include "common/logging.h"

namespace dqsq::dist {

void SnapshotWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
}

void SnapshotWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
}

void SnapshotWriter::Str(std::string_view s) {
  U64(s.size());
  out_.append(s.data(), s.size());
}

uint8_t SnapshotReader::U8() {
  DQSQ_CHECK_LT(pos_, in_.size()) << "truncated snapshot";
  return static_cast<uint8_t>(in_[pos_++]);
}

uint32_t SnapshotReader::U32() {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(U8()) << (8 * i);
  return v;
}

uint64_t SnapshotReader::U64() {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(U8()) << (8 * i);
  return v;
}

std::string SnapshotReader::Str() {
  uint64_t n = U64();
  DQSQ_CHECK_LE(pos_ + n, in_.size()) << "truncated snapshot";
  std::string s(in_.substr(pos_, n));
  pos_ += n;
  return s;
}

void EncodePattern(const Pattern& p, SnapshotWriter& w) {
  w.U8(static_cast<uint8_t>(p.kind()));
  switch (p.kind()) {
    case Pattern::Kind::kVar:
      w.U32(p.var());
      break;
    case Pattern::Kind::kConst:
      w.U32(p.symbol());
      break;
    case Pattern::Kind::kApp:
      w.U32(p.symbol());
      w.U64(p.args().size());
      for (const Pattern& a : p.args()) EncodePattern(a, w);
      break;
  }
}

Pattern DecodePattern(SnapshotReader& r) {
  auto kind = static_cast<Pattern::Kind>(r.U8());
  switch (kind) {
    case Pattern::Kind::kVar:
      return Pattern::Var(r.U32());
    case Pattern::Kind::kConst:
      return Pattern::Const(r.U32());
    case Pattern::Kind::kApp: {
      SymbolId fn = r.U32();
      uint64_t n = r.U64();
      std::vector<Pattern> args;
      args.reserve(n);
      for (uint64_t i = 0; i < n; ++i) args.push_back(DecodePattern(r));
      return Pattern::App(fn, std::move(args));
    }
  }
  DQSQ_CHECK(false) << "corrupt pattern kind in snapshot";
  return Pattern::Const(0);
}

namespace {

void EncodeAtom(const Atom& atom, SnapshotWriter& w) {
  w.U32(atom.rel.pred);
  w.U32(atom.rel.peer);
  w.U64(atom.args.size());
  for (const Pattern& p : atom.args) EncodePattern(p, w);
}

Atom DecodeAtom(SnapshotReader& r) {
  Atom atom;
  atom.rel.pred = r.U32();
  atom.rel.peer = r.U32();
  uint64_t n = r.U64();
  atom.args.reserve(n);
  for (uint64_t i = 0; i < n; ++i) atom.args.push_back(DecodePattern(r));
  return atom;
}

void EncodeTuple(const Tuple& t, SnapshotWriter& w) {
  w.U64(t.size());
  for (TermId id : t) w.U32(id);
}

Tuple DecodeTuple(SnapshotReader& r) {
  uint64_t n = r.U64();
  Tuple t;
  t.reserve(n);
  for (uint64_t i = 0; i < n; ++i) t.push_back(r.U32());
  return t;
}

}  // namespace

void EncodeRule(const Rule& rule, SnapshotWriter& w) {
  EncodeAtom(rule.head, w);
  w.U64(rule.body.size());
  for (const Atom& a : rule.body) EncodeAtom(a, w);
  w.U64(rule.negative.size());
  for (const Atom& a : rule.negative) EncodeAtom(a, w);
  w.U64(rule.diseqs.size());
  for (const Diseq& d : rule.diseqs) {
    EncodePattern(d.lhs, w);
    EncodePattern(d.rhs, w);
  }
  w.U32(rule.num_vars);
  const std::vector<std::string>& names = VarNameList(rule.var_names);
  w.U64(names.size());
  for (const std::string& name : names) w.Str(name);
}

Rule DecodeRule(SnapshotReader& r) {
  Rule rule;
  rule.head = DecodeAtom(r);
  uint64_t n = r.U64();
  rule.body.reserve(n);
  for (uint64_t i = 0; i < n; ++i) rule.body.push_back(DecodeAtom(r));
  n = r.U64();
  rule.negative.reserve(n);
  for (uint64_t i = 0; i < n; ++i) rule.negative.push_back(DecodeAtom(r));
  n = r.U64();
  rule.diseqs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Diseq d;
    d.lhs = DecodePattern(r);
    d.rhs = DecodePattern(r);
    rule.diseqs.push_back(std::move(d));
  }
  rule.num_vars = r.U32();
  n = r.U64();
  std::vector<std::string> names;
  names.reserve(n);
  for (uint64_t i = 0; i < n; ++i) names.push_back(r.Str());
  rule.var_names =
      std::make_shared<const std::vector<std::string>>(std::move(names));
  return rule;
}

void EncodeMessage(const Message& m, SnapshotWriter& w) {
  w.U8(static_cast<uint8_t>(m.kind));
  w.U32(m.from);
  w.U32(m.to);
  w.U32(m.rel.pred);
  w.U32(m.rel.peer);
  w.U64(m.tuples.size());
  for (const Tuple& t : m.tuples) EncodeTuple(t, w);
  w.U32(m.subscriber);
  w.U64(m.adornment.size());
  for (bool b : m.adornment) w.Bool(b);
  w.U64(m.rules.size());
  for (const Rule& rule : m.rules) EncodeRule(rule, w);
  w.U64(m.seq);
  w.U64(m.ack);
  w.U64(m.sack.size());
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
    w.U64(m.sections.size());
    for (const TupleSection& s : m.sections) {
      w.U32(s.rel.pred);
      w.U32(s.rel.peer);
      w.U64(s.tuples.size());
      for (const Tuple& t : s.tuples) EncodeTuple(t, w);
    }
  }
}

Message DecodeMessage(SnapshotReader& r) {
  Message m;
  m.kind = static_cast<MessageKind>(r.U8());
  m.from = r.U32();
  m.to = r.U32();
  m.rel.pred = r.U32();
  m.rel.peer = r.U32();
  uint64_t n = r.U64();
  m.tuples.reserve(n);
  for (uint64_t i = 0; i < n; ++i) m.tuples.push_back(DecodeTuple(r));
  m.subscriber = r.U32();
  n = r.U64();
  m.adornment.reserve(n);
  for (uint64_t i = 0; i < n; ++i) m.adornment.push_back(r.Bool());
  n = r.U64();
  m.rules.reserve(n);
  for (uint64_t i = 0; i < n; ++i) m.rules.push_back(DecodeRule(r));
  m.seq = r.U64();
  m.ack = r.U64();
  n = r.U64();
  m.sack.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SackBlock s;
    s.first = r.U64();
    s.last = r.U64();
    m.sack.push_back(s);
  }
  uint8_t flags = r.U8();
  m.retransmit = (flags & 1) != 0;
  m.epoch = r.U64();
  if ((flags & 4) != 0) {
    uint64_t sections = r.U64();
    m.sections.reserve(sections);
    for (uint64_t i = 0; i < sections; ++i) {
      TupleSection s;
      s.rel.pred = r.U32();
      s.rel.peer = r.U32();
      uint64_t rows = r.U64();
      s.tuples.reserve(rows);
      for (uint64_t j = 0; j < rows; ++j) s.tuples.push_back(DecodeTuple(r));
      m.sections.push_back(std::move(s));
    }
  }
  return m;
}

std::string SerializePeerSnapshot(const PeerSnapshot& snap) {
  SnapshotWriter w;
  w.U32(snap.peer);
  w.U64(snap.epoch);
  w.U64(snap.senders.size());
  for (const ChannelSenderState& s : snap.senders) {
    w.U32(s.to);
    w.U64(s.next_seq);
    w.U64(s.unacked.size());
    for (const Message& m : s.unacked) EncodeMessage(m, w);
    w.U64(s.pending.size());
    for (const Message& m : s.pending) EncodeMessage(m, w);
  }
  w.U64(snap.receivers.size());
  for (const ChannelReceiverState& r : snap.receivers) {
    w.U32(r.from);
    w.U64(r.cum);
    w.U64(r.out_of_order.size());
    for (uint64_t seq : r.out_of_order) w.U64(seq);
  }
  w.Str(snap.peer_state);
  return w.Take();
}

PeerSnapshot DeserializePeerSnapshot(std::string_view bytes) {
  SnapshotReader r(bytes);
  PeerSnapshot snap;
  snap.peer = r.U32();
  snap.epoch = r.U64();
  uint64_t n = r.U64();
  snap.senders.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ChannelSenderState s;
    s.to = r.U32();
    s.next_seq = r.U64();
    uint64_t k = r.U64();
    s.unacked.reserve(k);
    for (uint64_t j = 0; j < k; ++j) s.unacked.push_back(DecodeMessage(r));
    k = r.U64();
    s.pending.reserve(k);
    for (uint64_t j = 0; j < k; ++j) s.pending.push_back(DecodeMessage(r));
    snap.senders.push_back(std::move(s));
  }
  n = r.U64();
  snap.receivers.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ChannelReceiverState recv;
    recv.from = r.U32();
    recv.cum = r.U64();
    uint64_t k = r.U64();
    recv.out_of_order.reserve(k);
    for (uint64_t j = 0; j < k; ++j) recv.out_of_order.push_back(r.U64());
    snap.receivers.push_back(std::move(recv));
  }
  snap.peer_state = r.Str();
  DQSQ_CHECK(r.AtEnd()) << "trailing bytes after snapshot";
  return snap;
}

const std::vector<std::string> InMemoryDurableStore::kEmptyLog;

void InMemoryDurableStore::Put(const std::string& key, std::string value) {
  bytes_written_ += value.size();
  blobs_[key] = std::move(value);
}

std::optional<std::string> InMemoryDurableStore::Get(
    const std::string& key) const {
  auto it = blobs_.find(key);
  if (it == blobs_.end()) return std::nullopt;
  return it->second;
}

void InMemoryDurableStore::Append(const std::string& key,
                                  std::string record) {
  bytes_written_ += record.size();
  logs_[key].push_back(std::move(record));
}

const std::vector<std::string>& InMemoryDurableStore::ReadLog(
    const std::string& key) const {
  auto it = logs_.find(key);
  if (it == logs_.end()) return kEmptyLog;
  return it->second;
}

void InMemoryDurableStore::TruncateLog(const std::string& key) {
  logs_.erase(key);
}

}  // namespace dqsq::dist
