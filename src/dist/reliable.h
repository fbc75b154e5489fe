// Reliable-delivery shim between dDatalog peers and the raw simulated
// network. The raw wire may drop, duplicate or delay-reorder messages (a
// FaultPlan, see dist/network.h); this layer restores the exactly-once,
// per-channel-FIFO-modulo-reordering delivery the distributed fixpoint
// (§3.1) and Dijkstra–Scholten termination detection assume:
//
//  * every outgoing message is stamped with a 1-based per-(from,to)-channel
//    sequence number and recorded in a sender-side retransmit queue;
//  * a per-channel flow-control window bounds the unacknowledged entries a
//    sender keeps in flight; excess sends queue sender-side (already
//    sequenced, preserving FIFO) and drain through PollWire as acks open
//    the window — bounding transport memory and modeling backpressure;
//  * the receiver deduplicates — only the FIRST delivery of a sequence
//    number is handed to the peer, so Dijkstra–Scholten acks exactly the
//    messages that were logically sent;
//  * acknowledgments are cumulative plus a bounded list of selective-ack
//    (SACK) blocks covering the receiver's out-of-order set; the sender
//    erases exactly the acked entries, so one lost message retransmits one
//    message, not every later in-flight one;
//  * unacknowledged entries are retransmitted after an adaptive
//    (Jacobson/Karels SRTT/RTTVAR over the virtual clock, Karn's rule for
//    samples) timeout with exponential backoff;
//  * acknowledgments are piggybacked on reverse-channel traffic; a channel
//    with no reverse traffic flushes a standalone kTransportAck after a
//    short delay. Sending an ack (piggybacked or standalone) only re-arms
//    that delay — the owed state is cleared when a message carrying the
//    ack is known to have been DELIVERED, so a dropped carrier costs one
//    extra standalone ack, never a spurious retransmit round trip. The
//    standalone-ack delay doubles per emission until data arrives on the
//    channel: neither wire rewrites queued copies, so this backoff alone
//    keeps many owed channels from flooding the wire with acks (see
//    ReceiverState::ack_backoff).
//
// The transport is a single object owned by SimNetwork (the simulator sees
// both endpoints), but the protocol state is strictly per directed channel,
// exactly as a per-process implementation would keep it.
#ifndef DQSQ_DIST_RELIABLE_H_
#define DQSQ_DIST_RELIABLE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dist/message.h"
#include "dist/snapshot.h"

namespace dqsq::dist {

struct ReliableConfig {
  // Retransmission timeout (virtual-time steps, i.e. network deliveries)
  // used before the first RTT sample; also the fixed RTO when
  // adaptive_rto is off.
  uint64_t retransmit_timeout = 16;
  // Backoff doubles per retransmit of the same entry; 0 = uncapped (the
  // default), a nonzero value caps the multiplier on the current RTO.
  // Uncapped matters for stability, not just tuning: the virtual wire
  // drains one delivery per step however many channels exist, so any
  // capped (i.e. eventually constant-rate) per-entry retransmit schedule
  // is outrun once enough entries are in flight at once — reachable when
  // many channels carry traffic together. Karn's rule keeps the RTO
  // estimator blind during such an episode (retransmitted entries never
  // sample), so the backoff is the only mechanism that can slow the
  // sender down. Uncapped doubling emits O(log horizon) copies
  // per entry, which converges for any channel count; forward progress
  // restores promptness, because any ack that erases an entry resets its
  // channel's surviving backoffs (TCP-style timer restart).
  uint64_t max_backoff = 0;
  // An owed acknowledgment is flushed as a standalone kTransportAck after
  // this many steps without (confirmed-delivered) traffic carrying it.
  uint64_t ack_delay = 4;
  // Flow-control window: maximum unacknowledged entries per channel.
  // Further sends queue sender-side until acks open the window.
  // 0 = unbounded (the pre-window behavior).
  size_t window = 32;
  // Maximum SACK blocks advertised per ack. 0 disables SACK entirely
  // (cumulative-only acks, the pre-SACK behavior).
  size_t max_sack_blocks = 4;
  // Fast retransmit: an entry still unacknowledged after this many acks
  // whose SACK blocks cover LATER sequence numbers (the receiver has data
  // above the hole, so the wire copy is almost certainly lost) is
  // retransmitted immediately instead of waiting out its RTO. One fast
  // retransmit per entry; afterwards the normal timeout path takes over.
  // 0 disables (pure timeout-driven recovery, the prior behavior).
  size_t fast_retransmit_dupacks = 3;
  // Jacobson/Karels RTO estimation over the virtual clock. When off, the
  // fixed retransmit_timeout is used.
  bool adaptive_rto = true;
  // Clamp on the adaptive RTO before backoff is applied.
  uint64_t rto_min = 16;
  uint64_t rto_max = 1024;
};

/// Transport-internal counters: the base of NetworkStats, which SimNetwork
/// copies them into and publishes as dist.net.* metrics (docs/METRICS.md).
struct TransportStats {
  size_t sacked = 0;            // unacked entries erased by SACK blocks
  size_t fast_retransmits = 0;  // entries resent early on dup-SACK evidence
  size_t window_stalls = 0;     // sends deferred because the window was full
  size_t window_drained = 0;  // deferred sends released as the window opened
  size_t rtt_samples = 0;     // RTT measurements taken (Karn-eligible only)
  uint64_t last_rto = 0;      // most recent adaptive RTO (0 = no sample yet)
};

class ReliableTransport {
 public:
  using ChannelKey = std::pair<SymbolId, SymbolId>;  // (from, to)

  enum class Disposition {
    kDeliverFirst,  // first delivery: hand the message to the peer
    kDuplicate,     // already delivered: suppress (spurious retransmit)
    kControl,       // transport-internal (kTransportAck / kTransportHello):
                    // consume silently
  };

  explicit ReliableTransport(ReliableConfig config = {}) : config_(config) {}

  /// Sender side: stamps `m` with the next sequence number of its channel
  /// and either admits it to the window (piggybacking the owed cumulative
  /// ack + SACK blocks and recording a retransmit entry) or queues it
  /// sender-side when the window is full. Returns true iff the caller
  /// should put `m` on the wire now; a queued message is emitted by a
  /// later PollWire once acks open the window.
  bool StampOutgoing(Message& m, uint64_t now);

  /// Receiver side: applies the (piggybacked or standalone) cumulative ack
  /// and SACK blocks, then deduplicates. Call for every wire delivery
  /// before dispatching.
  Disposition OnWireDelivery(const Message& m, uint64_t now);

  /// Wire traffic the transport owes at `now`: copies of unacknowledged
  /// messages whose timeout expired (`retransmit == true`), queued sends
  /// admitted by a newly opened window, and standalone kTransportAcks for
  /// channels whose owed ack outlived `ack_delay`. The caller puts them on
  /// the wire (where faults may hit them again).
  std::vector<Message> PollWire(uint64_t now);

  /// Earliest virtual time at which PollWire() will produce traffic, or
  /// nullopt when no retransmit, window-opening drain, or ack is pending.
  std::optional<uint64_t> NextDue() const;

  /// True iff the receiver of `channel` has already seen `seq`.
  bool Seen(const ChannelKey& channel, uint64_t seq) const;

  /// True iff some sent message was never acknowledged (its wire copy may
  /// be lost and a retransmit pending) or waits in a window-stalled queue.
  bool HasUnacked() const;

  /// True iff every unacknowledged entry has in fact been delivered (only
  /// its ack is outstanding) — no payload is missing anywhere. A
  /// window-stalled queued send is undelivered payload by definition.
  bool AllPayloadDelivered() const;

  const TransportStats& stats() const { return stats_; }

  // ---- Crash-restart support (see dist/snapshot.h) -----------------------

  /// Current incarnation of `peer` (0 = never restarted).
  uint64_t EpochOf(SymbolId peer) const;

  /// True iff `m` carries an epoch older than the highest its channel has
  /// witnessed — a wire copy emitted by a previous incarnation of the
  /// sender. Stale copies are dropped by the network before delivery
  /// (hygiene: deduplication would absorb them anyway).
  bool IsStale(const Message& m) const;

  /// Freezes (down) or unfreezes a crashed peer's channel state: down
  /// channels neither retransmit, drain their pending queue, nor flush
  /// standalone acks. The frozen state is NOT wiped — it is the simulator's
  /// god's-eye reference (Seen / AllPayloadDelivered stay accurate while
  /// the peer is down) and the oracle the restored state is CHECKed
  /// against (ProtocolImage).
  void SetPeerDown(SymbolId peer, bool down);

  /// Exports `peer`'s channel state (every sender channel it owns and
  /// every receiver channel into it, ascending by counterpart) plus its
  /// epoch into `snap`. Does not touch `snap->peer_state`.
  void ExportPeer(SymbolId peer, PeerSnapshot* snap) const;

  /// Discards `peer`'s channel state and reinstates `snap` under the new
  /// incarnation `new_epoch`. CHECK-fails on a regressed epoch (new_epoch
  /// must exceed both the peer's current epoch and the snapshot's).
  /// Restored unacked entries are due for immediate retransmission and
  /// Karn-poisoned (their RTT is ambiguous across the crash); the RTT
  /// estimator restarts fresh; restored receivers immediately owe an ack
  /// (re-advertising the resume point).
  void RestorePeer(const PeerSnapshot& snap, uint64_t new_epoch,
                   uint64_t now);

  /// Epoch re-handshake: one kTransportHello from the (just restarted)
  /// `peer` to every counterpart it shares channel state with, announcing
  /// the new epoch and carrying the restored receiver-side resume point as
  /// a cumulative ack + SACK blocks. Sent unreliably — a lost hello
  /// self-heals because every wire emission re-stamps the current epoch.
  std::vector<Message> MakeHellos(SymbolId peer, uint64_t now);

  /// Canonical timing-free serialization of `peer`'s protocol state: per
  /// sender channel the counterpart, next_seq and the merged outstanding
  /// set (unacked ∪ pending, by seq, ack/sack/retransmit/epoch stamps
  /// scrubbed); per receiver channel the counterpart, cum and out-of-order
  /// set. Restart compares the image of the frozen pre-crash state against
  /// the snapshot+WAL reconstruction — a mismatch means replay diverged
  /// (nondeterminism) and aborts loudly.
  std::string ProtocolImage(SymbolId peer) const;

  /// Replay mode: suppresses RTT sampling (replayed deliveries carry no
  /// timing information) and the SACK, fast-retransmit and window-stall
  /// counts, which were counted when the events first happened. Replayed
  /// acks and stalls still change the protocol state.
  void set_replaying(bool replaying) { replaying_ = replaying; }

 private:
  struct Unacked {
    Message copy;
    uint64_t due;            // next retransmit time
    uint64_t backoff;        // current multiplier on the RTO
    uint64_t sent_at;        // first transmission time (RTT measurement)
    uint64_t transmissions;  // Karn's rule: sample RTT only when == 1
    // Fast-retransmit state: acks seen whose SACK blocks cover sequence
    // numbers above this entry while it stayed unacknowledged, and whether
    // the one-shot early retransmit already fired.
    uint64_t dup_evidence = 0;
    bool fast_retx_done = false;
  };
  struct SenderState {
    uint64_t next_seq = 0;
    std::map<uint64_t, Unacked> unacked;  // seq -> entry, bounded by window
    std::deque<Message> pending;          // stamped, waiting for the window
    // Jacobson/Karels estimator state (virtual-clock steps).
    bool has_rtt = false;
    uint64_t srtt = 0;
    uint64_t rttvar = 0;
  };
  struct ReceiverState {
    uint64_t cum = 0;                  // all seqs <= cum received
    std::set<uint64_t> out_of_order;   // received seqs > cum
    bool ack_owed = false;
    uint64_t owed_since = 0;
    // Backoff multiplier on ack_delay for the NEXT standalone ack, doubled
    // per standalone emission (uncapped — sender retransmits are the
    // liveness fallback and reset it) and reset to 1 by any data delivery
    // on the channel. Without it every owed channel emits a standalone ack
    // each ack_delay steps forever; past ~ack_delay owed channels that
    // constant production outruns the wire, the acks that would discharge
    // the debts queue behind the flood they created, and the network
    // livelocks (observed when many channels owe acks at once).
    uint64_t ack_backoff = 1;

    bool Saw(uint64_t seq) const {
      return seq <= cum || out_of_order.contains(seq);
    }
  };

  /// Current per-channel RTO: SRTT + 4·RTTVAR clamped to
  /// [rto_min, rto_max], or retransmit_timeout before any sample.
  uint64_t Rto(const SenderState& sender) const;
  /// Folds one Karn-eligible RTT measurement into the channel estimator.
  void SampleRtt(SenderState& sender, uint64_t rtt);
  /// Fills `m.ack`/`m.sack` from the reverse-channel receiver state and
  /// re-arms (never clears) the standalone-ack timer.
  void AttachAck(const ChannelKey& reverse, Message& m, uint64_t now);
  /// Admits `m` to the window: attaches the ack and records the entry.
  void Transmit(const ChannelKey& channel, SenderState& sender, Message& m,
                uint64_t now);
  /// Erases acked entries (cumulative + SACK), sampling RTTs per Karn.
  /// Also erases covered window-stalled pending entries — a live receiver
  /// can never ack an untransmitted sequence number, so this only fires
  /// during write-ahead-log replay, where an ack can replay before the
  /// window drain that originally transmitted its target.
  void ApplyAck(SenderState& sender, const Message& m, uint64_t now);
  /// Bounded SACK block list covering the receiver's out-of-order set.
  std::vector<SackBlock> EncodeSack(const ReceiverState& receiver) const;

  ReliableConfig config_;
  TransportStats stats_;
  std::map<ChannelKey, SenderState> senders_;
  std::map<ChannelKey, ReceiverState> receivers_;
  // Crash-restart state. epochs_: current incarnation per peer (absent =
  // 0, the only value on a crash-free run — epoch stamps then stay 0 and
  // the wire is byte-identical to the pre-crash-support transport).
  // known_epoch_: highest epoch witnessed per directed channel, learned
  // from every delivery (IsStale reference). down_: crashed peers whose
  // frozen channels PollWire/NextDue skip.
  std::map<SymbolId, uint64_t> epochs_;
  std::map<ChannelKey, uint64_t> known_epoch_;
  std::set<SymbolId> down_;
  bool replaying_ = false;
};

}  // namespace dqsq::dist

#endif  // DQSQ_DIST_RELIABLE_H_
