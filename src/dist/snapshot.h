// Durable peer state for crash-restart recovery (cf. the rollback-recovery
// protocols surveyed by Elnozahy et al., PAPERS.md): a PeerSnapshot is a
// consistent cut of everything one peer would lose in a crash — its
// transport channel state (per-channel next_seq / cumulative ack /
// out-of-order set, plus the payloads still unacknowledged or queued
// behind the flow-control window), its Dijkstra–Scholten engagement and
// its materialized relations (the opaque `peer_state` blob produced by
// PeerNode::SaveState).
//
// SimNetwork persists snapshots through the DurableStore interface on
// configurable write-ahead points: every wire delivery to a restartable
// peer is appended to that peer's write-ahead log BEFORE it is processed
// (pessimistic message logging), and a full snapshot is taken — truncating
// the log — every CrashPlan::checkpoint_every deliveries. Recovery is
// snapshot restore + deterministic replay of the logged deliveries; the
// replayed sends regenerate byte-identical wire messages (same sequence
// numbers, same payloads), which is CHECKed at restart.
//
// The serialization is a little-endian byte codec with no alignment or
// versioning. Messages — write-ahead log records and the unacked/pending
// queues below — use the shared message layout of dist/wire_codec.h with
// raw ids (kRawIds). Snapshots live only as long as the simulation
// process, so byte-stability within a build (serialize∘deserialize∘
// serialize is the identity) is the contract, not cross-version
// compatibility.
#ifndef DQSQ_DIST_SNAPSHOT_H_
#define DQSQ_DIST_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dist/message.h"

namespace dqsq::dist {

/// Append-only little-endian encoder for snapshot blobs.
class SnapshotWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  void Str(std::string_view s);
  /// Element count of a following sequence, as a U32.
  void Count(size_t n);

  /// Makes room for `n` bytes in all, so a caller that knows the encoded
  /// size writes it with one allocation.
  void Reserve(size_t n) { out_.reserve(n); }

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Cursor-based decoder; aborts (DQSQ_CHECK) on truncated input, so a
/// corrupt snapshot fails loudly instead of restoring garbage state.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view in) : in_(in) {}

  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  bool Bool() { return U8() != 0; }
  std::string Str();
  /// Reads what Str reads, as a view into the input.
  std::string_view StrView();
  /// Reads a Count. Every counted element takes at least one byte, so a
  /// count beyond the bytes left is truncation; it aborts before the
  /// caller can reserve space for it.
  uint32_t Count();

  /// Reads a Count, then that many elements, each with `read_one`.
  template <typename ReadOne>
  auto Seq(ReadOne read_one) {
    std::vector<decltype(read_one())> out;
    const uint32_t n = Count();
    out.reserve(n);
    for (uint32_t i = 0; i < n; ++i) out.push_back(read_one());
    return out;
  }

  bool AtEnd() const { return pos_ == in_.size(); }
  /// Bytes read so far.
  size_t position() const { return pos_; }

 private:
  std::string_view in_;
  size_t pos_ = 0;
};

/// Sender half of one directed transport channel owned by the snapshotted
/// peer. Only protocol state is persisted: retransmit timers, backoff and
/// RTT-estimator state are timing hygiene and are rebuilt fresh after a
/// restart (exactly as a real transport re-estimates after reboot).
struct ChannelSenderState {
  SymbolId to = 0;
  uint64_t next_seq = 0;
  std::vector<Message> unacked;  // stamped, in-window, unacknowledged
  std::vector<Message> pending;  // stamped, queued behind the window (FIFO)
};

/// Receiver half of one directed transport channel into the peer.
struct ChannelReceiverState {
  SymbolId from = 0;
  uint64_t cum = 0;                     // all seqs <= cum delivered
  std::vector<uint64_t> out_of_order;   // delivered seqs > cum, ascending
};

struct PeerSnapshot {
  SymbolId peer = 0;
  uint64_t epoch = 0;  // incarnation the snapshot was taken in
  std::vector<ChannelSenderState> senders;      // ascending by `to`
  std::vector<ChannelReceiverState> receivers;  // ascending by `from`
  std::string peer_state;  // opaque PeerNode::SaveState() blob
};

std::string SerializePeerSnapshot(const PeerSnapshot& snap);
PeerSnapshot DeserializePeerSnapshot(std::string_view bytes);

/// Minimal durable-store interface the network checkpoints through: a
/// keyed blob store plus per-key append-only logs (the write-ahead logs).
class DurableStore {
 public:
  virtual ~DurableStore() = default;

  virtual void Put(const std::string& key, std::string value) = 0;
  virtual std::optional<std::string> Get(const std::string& key) const = 0;
  /// Removes the blob under `key`, if any.
  virtual void Erase(const std::string& key) = 0;

  virtual void Append(const std::string& key, std::string record) = 0;
  virtual const std::vector<std::string>& ReadLog(
      const std::string& key) const = 0;
  virtual void TruncateLog(const std::string& key) = 0;

  /// Total bytes handed to Put/Append — the durability write volume.
  virtual size_t bytes_written() const = 0;
};

/// In-process store modeling a local disk: state written here survives a
/// simulated peer crash (which wipes only the peer's volatile state).
class InMemoryDurableStore : public DurableStore {
 public:
  void Put(const std::string& key, std::string value) override;
  std::optional<std::string> Get(const std::string& key) const override;
  void Erase(const std::string& key) override;
  void Append(const std::string& key, std::string record) override;
  const std::vector<std::string>& ReadLog(
      const std::string& key) const override;
  void TruncateLog(const std::string& key) override;
  size_t bytes_written() const override { return bytes_written_; }

 private:
  std::map<std::string, std::string> blobs_;
  std::map<std::string, std::vector<std::string>> logs_;
  size_t bytes_written_ = 0;
  static const std::vector<std::string> kEmptyLog;
};

}  // namespace dqsq::dist

#endif  // DQSQ_DIST_SNAPSHOT_H_
