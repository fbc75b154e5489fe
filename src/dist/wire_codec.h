// The one byte layout of dDatalog peer messages, and the framing that
// carries it over TCP.
//
//  * A *message codec*: one layout for Message, Rule, Atom, Pattern, term
//    and tuple, written once. Only the identifiers (symbols, relations,
//    ground terms) are written two ways, chosen by the context argument:
//     - a DatalogContext: every identifier travels as a name — peers,
//       predicates (with arity), constants and function terms
//       (recursively) — and the decoder re-interns it into the receiving
//       context. SocketNetwork uses this for bytes that cross processes:
//       two processes that parsed different fragments of the same program
//       exchange messages that mean the same thing, whatever their
//       interning order.
//     - kRawIds: raw SymbolId / PredicateId / TermId values, meaningful
//       only inside the context that interned them. Bytes the writing
//       process reads back itself use this: SimNetwork's write-ahead log,
//       the unacked/pending queues of a PeerSnapshot,
//       ReliableTransport::ProtocolImage and DatalogPeer::SaveState.
//
//  * Length-prefixed *framing* over a byte stream (TCP). Each frame is
//      magic(4) | type(1) | payload_len(4) | fnv1a(payload)(4) | payload
//    little-endian. FrameDecoder consumes an arbitrary chunking of the
//    stream and yields complete frames; a bad magic, an oversized length
//    or a checksum mismatch is reported as a Status error (the connection
//    is poisoned — a byte stream that lost sync cannot be resynchronized).
//
// Trust model: frames are integrity-checked (length bound + checksum)
// before the payload decoder runs, so framing survives line noise and
// truncated peers. The decoder bounds what a payload can make it do —
// term and pattern nesting stop at kMaxTermDepth and no count may exceed
// the bytes left — but it assumes a well-formed payload from a
// cooperating peer and CHECK-fails on structural garbage.
#ifndef DQSQ_DIST_WIRE_CODEC_H_
#define DQSQ_DIST_WIRE_CODEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/relation.h"
#include "dist/message.h"
#include "dist/snapshot.h"

namespace dqsq::dist {

// ---- Message codec -------------------------------------------------------

/// The context argument that writes and reads raw ids instead of names.
inline constexpr DatalogContext* kRawIds = nullptr;

/// Encoders write identifiers by name through `ctx`, or as raw ids when
/// `ctx` is kRawIds; decoders read them back the same way, interning names
/// into `ctx`. Each decoder leaves the reader just past what it read; the
/// caller checks for trailing bytes.
void EncodeMessage(const Message& m, const DatalogContext* ctx,
                   SnapshotWriter& w);
Message DecodeMessage(SnapshotReader& r, DatalogContext* ctx);
void EncodeRule(const Rule& rule, const DatalogContext* ctx,
                SnapshotWriter& w);
Rule DecodeRule(SnapshotReader& r, DatalogContext* ctx);
void EncodePattern(const Pattern& p, const DatalogContext* ctx,
                   SnapshotWriter& w);
Pattern DecodePattern(SnapshotReader& r, DatalogContext* ctx);
void EncodeTerm(TermId term, const DatalogContext* ctx, SnapshotWriter& w);
TermId DecodeTerm(SnapshotReader& r, DatalogContext* ctx);
void EncodeTuple(const Tuple& t, const DatalogContext* ctx,
                 SnapshotWriter& w);
Tuple DecodeTuple(SnapshotReader& r, DatalogContext* ctx);
void EncodeRel(const RelId& rel, const DatalogContext* ctx,
               SnapshotWriter& w);
RelId DecodeRel(SnapshotReader& r, DatalogContext* ctx);
void EncodeAdornment(const std::vector<bool>& adornment, SnapshotWriter& w);
std::vector<bool> DecodeAdornment(SnapshotReader& r);

// ---- Framing -------------------------------------------------------------

/// Frame type tags. kPeerMessage carries a by-name EncodeMessage payload;
/// the rest form the cluster control plane (dist/cluster_main.cc): bootstrap
/// hellos, the supervisor's start/report/shutdown requests and their
/// replies. Payload schemas for control frames are owned by cluster_main.
enum class FrameType : uint8_t {
  kHello = 1,          // peer process -> supervisor: name, listen address
  kStart = 2,          // supervisor -> peer: address book + peer assignment
  kPeerMessage = 3,    // a framed dDatalog Message
  kReportRequest = 4,  // supervisor -> peer: send answers/stats/metrics
  kReportReply = 5,    // peer -> supervisor
  kShutdown = 6,       // supervisor -> peer: exit cleanly
};

inline constexpr uint32_t kFrameMagic = 0x46'57'51'44;  // "DQWF" on the wire
inline constexpr size_t kFrameHeaderBytes = 13;
/// Hard payload bound: a length beyond this is stream desync, not data.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// FNV-1a over the payload (framing checksum; not cryptographic).
uint32_t WireChecksum(std::string_view payload);

/// One complete frame: header + payload, ready to write to a stream.
std::string EncodeFrame(FrameType type, std::string_view payload);

struct Frame {
  FrameType type;
  std::string payload;
};

/// Incremental frame parser. Feed() raw bytes in any chunking; Next()
/// yields frames in order, std::nullopt when more bytes are needed, or a
/// Status error on a corrupt stream (bad magic / oversized length /
/// checksum mismatch / unknown type). After an error the decoder is
/// poisoned: every further Next() returns the same error and the caller
/// must drop the connection.
class FrameDecoder {
 public:
  void Feed(std::string_view bytes);

  StatusOr<std::optional<Frame>> Next();

  /// Bytes buffered but not yet consumed by Next().
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already parsed
  std::optional<Status> poisoned_;
};

}  // namespace dqsq::dist

#endif  // DQSQ_DIST_WIRE_CODEC_H_
