#include "dist/snapshot.h"

#include <utility>

#include "common/logging.h"
#include "dist/wire_codec.h"

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

void SnapshotWriter::Count(size_t n) {
  DQSQ_CHECK_LE(n, UINT32_MAX) << "sequence too long to encode";
  U32(static_cast<uint32_t>(n));
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
  DQSQ_CHECK_LE(n, in_.size() - pos_) << "truncated snapshot";
  std::string s(in_.substr(pos_, n));
  pos_ += n;
  return s;
}

std::string_view SnapshotReader::StrView() {
  uint64_t n = U64();
  DQSQ_CHECK_LE(n, in_.size() - pos_) << "truncated snapshot";
  std::string_view s = in_.substr(pos_, n);
  pos_ += n;
  return s;
}

uint32_t SnapshotReader::Count() {
  uint32_t n = U32();
  DQSQ_CHECK_LE(n, in_.size() - pos_) << "truncated snapshot";
  return n;
}

std::string SerializePeerSnapshot(const PeerSnapshot& snap) {
  SnapshotWriter w;
  w.U32(snap.peer);
  w.U64(snap.epoch);
  w.Count(snap.senders.size());
  for (const ChannelSenderState& s : snap.senders) {
    w.U32(s.to);
    w.U64(s.next_seq);
    w.Count(s.unacked.size());
    for (const Message& m : s.unacked) EncodeMessage(m, kRawIds, w);
    w.Count(s.pending.size());
    for (const Message& m : s.pending) EncodeMessage(m, kRawIds, w);
  }
  w.Count(snap.receivers.size());
  for (const ChannelReceiverState& r : snap.receivers) {
    w.U32(r.from);
    w.U64(r.cum);
    w.Count(r.out_of_order.size());
    for (uint64_t seq : r.out_of_order) w.U64(seq);
  }
  w.Str(snap.peer_state);
  return w.Take();
}

PeerSnapshot DeserializePeerSnapshot(std::string_view bytes) {
  SnapshotReader r(bytes);
  auto read_messages = [&] {
    return r.Seq([&] { return DecodeMessage(r, kRawIds); });
  };
  PeerSnapshot snap;
  snap.peer = r.U32();
  snap.epoch = r.U64();
  snap.senders = r.Seq([&] {
    ChannelSenderState s;
    s.to = r.U32();
    s.next_seq = r.U64();
    s.unacked = read_messages();
    s.pending = read_messages();
    return s;
  });
  snap.receivers = r.Seq([&] {
    ChannelReceiverState recv;
    recv.from = r.U32();
    recv.cum = r.U64();
    recv.out_of_order = r.Seq([&] { return r.U64(); });
    return recv;
  });
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

void InMemoryDurableStore::Erase(const std::string& key) {
  blobs_.erase(key);
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
