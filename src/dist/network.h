// Simulated asynchronous peer-to-peer network. Channels are FIFO per
// ordered peer pair (the paper's per-peer alarm-order assumption is the
// same property); the cross-channel delivery order is chosen by a seeded
// RNG, modeling arbitrary asynchrony deterministically. Message and tuple
// accounting feeds the communication experiments (E3).
//
// A FaultPlan turns the loss-free wire into a faulty one: per-message drop,
// duplication and delay-reorder probabilities, drawn from a dedicated RNG
// so the scheduler's trajectory is untouched when every probability is 0.
// An active plan engages the ReliableTransport shim (dist/reliable.h)
// between the peers and the raw wire, restoring exactly-once delivery; the
// loss-free default bypasses the shim entirely (zero overhead).
#ifndef DQSQ_DIST_NETWORK_H_
#define DQSQ_DIST_NETWORK_H_

#include <array>
#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "dist/message.h"
#include "dist/reliable.h"
#include "dist/snapshot.h"

namespace dqsq::dist {

class PeerNode;

/// The peer-facing transport surface: peers and drivers hand messages to
/// Send() and receive deliveries through PeerNode::OnMessage. Implemented
/// by the in-process SimNetwork below (virtual clock, seeded interleaving,
/// fault injection) and by SocketNetwork (dist/socket_network.h: TCP
/// between OS processes on the steady clock). Everything above the wire —
/// the Datalog peers, both demand protocols, Dijkstra-Scholten termination
/// — is written against this interface and runs unchanged on either one.
class Network {
 public:
  virtual ~Network() = default;

  /// Enqueues `message` for asynchronous delivery to `message.to`.
  /// Delivery is exactly-once and FIFO per directed (from, to) channel;
  /// cross-channel order is arbitrary.
  virtual void Send(Message message) = 0;
};

/// One scheduled peer crash: at virtual time `at_step` the `peer_index`-th
/// restartable peer (ascending SymbolId order) loses its volatile state.
struct CrashEvent {
  uint64_t at_step = 0;
  size_t peer_index = 0;
};

/// Modeled wire size of a message (header + payload terms + transport
/// envelope; see the definition in network.cc and docs/METRICS.md). Shared
/// with the peers' wire batcher, which packs kTuples sections up to a byte
/// budget priced by this same convention.
size_t ApproxWireBytes(const Message& m);

/// kTuples framing: at the end of each fixpoint flush a peer packs its
/// kTuples payloads per target into one message (extra payloads ride as
/// Message::sections) and splits payloads larger than `max_bytes` across
/// messages. This is the only way tuples reach the wire.
struct WireBatchOptions {
  size_t max_bytes = 4096;  // ApproxWireBytes budget per packed message
};

/// Crash-restart schedule layered on a FaultPlan. A crashed peer's
/// volatile state (transport channels, Dijkstra–Scholten engagement,
/// materialized relations) is wiped and reconstructed `down_for` steps
/// later from its last durable snapshot plus write-ahead-log replay
/// (dist/snapshot.h); while down, wire deliveries to it are lost.
struct CrashPlan {
  std::vector<CrashEvent> crash_at_step;  // deterministic schedule
  double random_crash = 0.0;       // per-step crash probability (seeded)
  size_t max_random_crashes = 0;   // cap on random crashes
  uint64_t down_for = 32;          // steps between crash and restart
  // A full snapshot is taken (truncating the write-ahead log) every this
  // many logged deliveries. 1 = checkpoint on every delivery.
  size_t checkpoint_every = 1;
  // Live migrations: at `at_step` the `peer_index`-th restartable peer is
  // fenced (epoch bump), its state handed to a replacement object built by
  // the migration factory, and the replacement recovered from snapshot +
  // WAL replay — all within one Step, so evaluation continues unchanged.
  // Requires SimNetwork::SetMigrationFactory.
  std::vector<CrashEvent> migrate_at_step;

  bool active() const {
    return !crash_at_step.empty() || !migrate_at_step.empty() ||
           (random_crash > 0.0 && max_random_crashes > 0);
  }
};

/// Per-message fault probabilities applied to every wire enqueue
/// (including retransmits and transport acks). All-zero means a perfect
/// wire and no reliability shim.
struct FaultPlan {
  double drop = 0.0;       // message vanishes in transit
  double duplicate = 0.0;  // a second wire copy is enqueued
  double delay = 0.0;      // message held back 1..max_delay_steps deliveries
                           // (breaks per-channel FIFO: reordering)
  uint32_t max_delay_steps = 8;
  ReliableConfig reliable;  // shim tuning, used when the plan is active
  CrashPlan crash;          // peer crash-restart schedule

  bool active() const {
    return drop > 0.0 || duplicate > 0.0 || delay > 0.0 || crash.active();
  }
};

// The shim's own counters (sacked, fast_retransmits, window_stalls,
// window_drained, rtt_samples, last_rto) are the TransportStats base,
// copied from the shim after each call Send and Step make into it.
struct NetworkStats : TransportStats {
  // First-delivery (logical) series: what the peers actually consumed.
  // Duplicate and retransmit copies the transport deduplicates, and
  // transport-internal acks, are excluded — on a lossy wire these counters
  // match the lossless run of the same workload.
  size_t messages_delivered = 0;
  size_t bytes = 0;              // ApproxWireBytes over first deliveries
  size_t tuples_shipped = 0;     // sum of kTuples payload sizes
  size_t control_messages = 0;   // activate/subquery/install/ack
  size_t rules_shipped = 0;      // total rules in kInstall messages
  // Wire-level series: every copy the wire delivered, including duplicates,
  // retransmits and transport acks. Equal to the logical series on a
  // perfect wire without the shim.
  size_t wire_messages = 0;
  size_t wire_bytes = 0;         // ApproxWireBytes over all wire deliveries
  // Fault-injection and reliable-delivery accounting (0 on a perfect wire).
  size_t dropped = 0;            // messages destroyed by the fault plan
  size_t duplicated = 0;         // extra wire copies injected
  size_t delayed = 0;            // messages delay-reordered
  size_t retransmits = 0;        // timeout-driven resends by the shim
  size_t spurious = 0;           // deliveries suppressed by receiver dedup
  size_t transport_acks = 0;     // standalone kTransportAck messages sent
  // Crash-restart accounting (0 unless the plan schedules crashes).
  size_t crashes = 0;            // peers that lost their volatile state
  size_t restarts = 0;           // recoveries from snapshot + WAL replay
  size_t stale_epoch_drops = 0;  // wire copies from a dead incarnation
  size_t crash_drops = 0;        // wire deliveries lost at a down peer
  size_t snapshot_bytes = 0;     // serialized checkpoint volume
  size_t wal_records = 0;        // write-ahead-logged deliveries
  size_t migrations = 0;         // live peer hand-offs (dist.net.migrations)
};

class SimNetwork : public Network {
 public:
  /// `force_reliable` engages the shim even under an inactive plan (used to
  /// measure the shim's own overhead on a perfect wire).
  explicit SimNetwork(uint64_t seed, const FaultPlan& faults = {},
                      bool force_reliable = false);
  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Registers a peer; the network does not own it.
  void Register(SymbolId id, PeerNode* peer);

  /// Enqueues a message on the (from, to) FIFO channel. Both endpoints
  /// must be registered: an unregistered sender would corrupt
  /// Dijkstra-Scholten ack routing at the receiver. With the reliable
  /// shim engaged, a send that exceeds the channel's flow-control window
  /// is queued sender-side and reaches the wire once acks open the window.
  void Send(Message message) override;

  /// Delivers one message from a randomly chosen non-empty channel.
  /// Returns false if no traffic exists or is pending; may return true
  /// without a delivery when only delayed/retransmit traffic is pending
  /// (the virtual clock advances to its due time). Publishes stats() to
  /// the registry on return.
  StatusOr<bool> Step();

  /// Delivers messages until quiescence (no in-flight messages — the
  /// "god's view" fixpoint of §3.1) or until `max_steps` deliveries.
  Status RunToQuiescence(size_t max_steps = 10'000'000);

  /// True iff Step() has nothing left to do: channels and the delay queue
  /// are empty and the shim owes no retransmits or acks.
  bool Quiescent() const;

  /// True iff no undelivered payload exists anywhere: every in-flight or
  /// retransmit-pending message is transport residue (a duplicate the
  /// receiver already saw, or an ack). On a perfect wire this is
  /// Quiescent(). This is the invariant Dijkstra-Scholten guarantees at
  /// the instant of detection.
  bool LogicallyQuiescent() const;

  bool reliable() const { return transport_ != nullptr; }
  bool crash_enabled() const { return crash_enabled_; }
  const NetworkStats& stats() const { return stats_; }
  size_t num_peers() const { return peers_.size(); }

  /// Force-restarts every currently down peer (snapshot + WAL replay +
  /// re-handshake), without waiting out its down_for window. Called after
  /// termination detection so answer extraction reads restored databases;
  /// also useful in tests. Publishes stats() to the registry, as Step does.
  void RestoreDownPeers();

  /// Installs the factory that builds a fresh (blank) peer object for a
  /// live migration. The returned object replaces the registered peer; the
  /// caller keeps ownership of both (SimNetwork never owned peers).
  void SetMigrationFactory(std::function<PeerNode*(SymbolId)> factory) {
    migration_factory_ = std::move(factory);
  }

  /// Live peer hand-off: fences `peer` under a bumped epoch (the old
  /// owner's volatile state is wiped so it can never answer again), swaps
  /// in a replacement object from the migration factory, and recovers it
  /// through the ordinary snapshot + WAL-replay path — including the
  /// determinism CHECK and the re-handshake hellos. Works on a currently
  /// down peer too (the replacement simply restores instead of it).
  void MigratePeer(SymbolId peer);

  /// The store checkpoints and write-ahead logs are persisted to.
  const DurableStore& durable_store() const { return store_; }

  /// Names peers in metric labels (dist.net.channel_messages{from=,to=}).
  /// Defaults to "peer<id>". Set before the first Send/Step: channel
  /// counters are registered once and keep their labels.
  void SetPeerNamer(std::function<std::string(SymbolId)> namer) {
    namer_ = std::move(namer);
  }

 private:
  using ChannelKey = std::pair<SymbolId, SymbolId>;

  // The {peer=} crash-path counters (kCrashCounters in network.cc).
  enum CrashMetric { kCrashes, kRestarts, kMigrations, kSnapshotBytes, kNum };

  StatusOr<bool> DeliverNext();  // Step() minus the publish
  std::string PeerLabel(SymbolId id) const;
  /// Wire-level accounting: every delivered copy, pre-deduplication.
  /// Returns the copy's ApproxWireBytes.
  size_t RecordWireDelivery(const Message& message,
                            const ChannelKey& channel_key);
  /// Copies the shim's TransportStats counters into stats_.
  void MirrorTransportStats();
  void PublishMetrics();
  Counter& CrashCounter(SymbolId peer, CrashMetric metric);

  /// Applies the fault plan and puts `m` on the wire (or drops it).
  void EnqueueWire(Message m);
  /// Delay-reorder leg of fault injection; appends to a channel otherwise.
  void DeliverOrDelay(Message m);
  /// Appends to the (from,to) channel, maintaining the non-empty index.
  void PushToChannel(Message m);
  /// Moves delayed messages whose release time has come onto channels.
  void ReleaseDelayed();
  /// Enqueues the shim's due retransmits and standalone acks.
  void PumpTransport();

  // ---- Crash-restart machinery (dist/snapshot.h) ------------------------

  /// Checkpoints every restartable peer once, before the first delivery,
  /// so a crash at any step has a snapshot to recover from.
  void EnsureInitialCheckpoints();
  /// Fires due restarts, then due deterministic crash events, then at most
  /// one seeded random crash.
  void ProcessCrashSchedule();
  /// Wipes `peer`'s volatile state (PeerNode::Crash) and freezes its
  /// transport channels; deliveries to it are lost until restart.
  void CrashPeer(SymbolId peer);
  /// Restores `peer` from its last snapshot under a fresh epoch, replays
  /// its write-ahead log, CHECKs the reconstruction against the frozen
  /// pre-crash protocol image, re-checkpoints, and sends hellos.
  void RestartPeer(SymbolId peer);
  /// The shared recovery tail of RestartPeer and MigratePeer: snapshot
  /// restore + epoch bump + WAL replay + determinism CHECK against
  /// `frozen_image` + re-checkpoint + hellos.
  void RecoverPeer(SymbolId peer, const std::string& frozen_image);
  /// Serializes `peer`'s full state to the store and truncates its WAL.
  void CheckpointPeer(SymbolId peer);
  /// Appends one delivered message to `peer`'s write-ahead log.
  void WalAppend(SymbolId peer, const Message& message);
  /// Checkpoints `peer` when its WAL reached CrashPlan::checkpoint_every.
  void MaybeCheckpoint(SymbolId peer);

  Rng rng_;        // scheduler: cross-channel interleaving only
  Rng fault_rng_;  // fault draws; never consulted when the plan is inactive
  FaultPlan faults_;
  std::unique_ptr<ReliableTransport> transport_;  // engaged iff plan active
  ManualClock clock_;  // virtual time: one tick per Step()
  std::map<SymbolId, PeerNode*> peers_;
  std::map<ChannelKey, std::deque<Message>> channels_;
  // Non-empty channels, sorted by key — maintained incrementally so Step()
  // picks in O(1) instead of rescanning every channel (the scan was
  // quadratic-ish on E3 chains). Deque pointers are stable (map values).
  std::vector<std::pair<ChannelKey, std::deque<Message>*>> nonempty_;
  std::multimap<uint64_t, Message> delayed_;  // release time -> message
  NetworkStats stats_;
  StatsPublisher<NetworkStats> counters_;
  StatsPublisher<NetworkStats> wire_counters_;  // published iff shim engaged
  std::function<std::string(SymbolId)> namer_;
  // Handles of counters without a stats field, resolved on first use: per
  // channel, per delivered message kind, per peer for the crash path.
  std::map<ChannelKey, Counter*> channel_counters_;
  std::array<Counter*, static_cast<size_t>(MessageKind::kTransportHello) + 1>
      delivered_counters_{};
  std::map<SymbolId, std::array<Counter*, kNum>> crash_counters_;
  // Crash-restart state: the durable store, the restartable peers in
  // ascending id order (CrashEvent::peer_index indexes this), down peers
  // with their restart times, per-peer WAL lengths since the last
  // checkpoint, fired deterministic events, and the replay flag that
  // suppresses wire traffic while a restarted peer re-executes logged
  // deliveries.
  bool crash_enabled_ = false;
  InMemoryDurableStore store_;
  std::vector<SymbolId> restartable_;
  bool initial_checkpoints_done_ = false;
  std::map<SymbolId, uint64_t> down_;  // peer -> restart due time
  std::map<SymbolId, size_t> wal_len_;
  std::set<size_t> fired_;
  std::set<size_t> migrate_fired_;
  size_t random_crashes_fired_ = 0;
  bool replaying_ = false;
  std::function<PeerNode*(SymbolId)> migration_factory_;
};

/// Interface implemented by dDatalog peers (and test doubles).
class PeerNode {
 public:
  virtual ~PeerNode() = default;
  /// Handles one delivered message; may Send on `network`.
  virtual Status OnMessage(const Message& message, Network& network) = 0;

  // Crash-restart hooks (dist/snapshot.h). The default implementation
  // opts out: only peers that can serialize their full volatile state may
  // be crashed by a CrashPlan.
  virtual bool Restartable() const { return false; }
  /// Serializes the peer's volatile state (an opaque blob stored as
  /// PeerSnapshot::peer_state).
  virtual std::string SaveState() const { return {}; }
  /// Reinstates a SaveState() blob after a crash.
  virtual void RestoreState(const std::string& state) { (void)state; }
  /// Wipes the peer's volatile state (the crash itself). A crashed peer
  /// must not process messages until RestoreState.
  virtual void Crash() {}
};

}  // namespace dqsq::dist

#endif  // DQSQ_DIST_NETWORK_H_
