// Messages exchanged by dDatalog peers over the simulated asynchronous
// network. Four kinds: tuple batches (data flow), relation activation
// requests with a subscription (distributed naive evaluation, paper §3.1),
// subquery requests carrying a call pattern (dQSQ demand propagation,
// §3.2), rule installations (the shipped "remainder" rules of rule (†)),
// plus acknowledgments for Dijkstra-Scholten termination detection.
#ifndef DQSQ_DIST_MESSAGE_H_
#define DQSQ_DIST_MESSAGE_H_

#include <vector>

#include "datalog/ast.h"
#include "datalog/relation.h"

namespace dqsq::dist {

/// One selective-acknowledgment block: the inclusive sequence range
/// [first, last] of the reverse channel has been received out of order
/// (beyond the cumulative ack). Bounded per message by
/// ReliableConfig::max_sack_blocks.
struct SackBlock {
  uint64_t first = 0;
  uint64_t last = 0;
  friend bool operator==(const SackBlock&, const SackBlock&) = default;
};

enum class MessageKind {
  kTuples,        // data for `rel` (owned by the receiver or a replica there)
  kActivate,      // activate `rel`; stream its tuples to `subscriber`
  kSubquery,      // demand for the call pattern (rel, adornment)
  kInstall,       // install `rules` at the receiver (their bodies are local)
  kAck,            // termination-detection acknowledgment
  kTransportAck,   // reliable-delivery cumulative ack; never reaches peers
  kTransportHello,  // epoch re-handshake after a crash-restart; never
                    // reaches peers (announces the sender's new epoch and
                    // carries its receiver-side resume point as an ack)
};

/// One extra kTuples payload: a relation plus its rows. A message whose
/// `sections` is non-empty carries several relations' flushes in one wire
/// frame (dist.net.batched_tuples); the primary rel/tuples fields hold the
/// first flush.
struct TupleSection {
  RelId rel;
  std::vector<Tuple> tuples;
  friend bool operator==(const TupleSection&, const TupleSection&) = default;
};

struct Message {
  MessageKind kind;
  SymbolId from = 0;
  SymbolId to = 0;

  RelId rel;                     // kTuples / kActivate / kSubquery
  std::vector<Tuple> tuples;     // kTuples
  SymbolId subscriber = 0;       // kActivate
  std::vector<bool> adornment;   // kSubquery
  std::vector<Rule> rules;       // kInstall
  // Additional kTuples payloads packed into this frame (DatalogPeer's
  // outbox). Empty when the flush fed a single relation of the target.
  std::vector<TupleSection> sections;

  // Reliable-delivery envelope, stamped by the transport shim when the
  // network runs with fault injection; all zero on a loss-free network.
  uint64_t seq = 0;          // 1-based per-(from,to)-channel sequence number
  uint64_t ack = 0;          // piggybacked cumulative ack: every message of
                             // the reverse (to,from) channel with seq <= ack
                             // has been received (0 = nothing acked yet)
  std::vector<SackBlock> sack;  // selective acks: reverse-channel ranges
                                // received beyond `ack` (bounded list)
  bool retransmit = false;   // wire copy resent after a timeout
  // Sender incarnation number, stamped on every wire emission when the
  // network runs with crash-restart support (0 otherwise). A restarted
  // peer begins a new epoch via kTransportHello; receivers discard
  // stale-epoch wire copies (hygiene — correctness rests on the durable
  // snapshot + write-ahead log, see dist/snapshot.h).
  uint64_t epoch = 0;
};

}  // namespace dqsq::dist

#endif  // DQSQ_DIST_MESSAGE_H_
