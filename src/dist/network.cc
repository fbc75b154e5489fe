#include "dist/network.h"

#include <algorithm>

#include "common/logging.h"
#include "dist/wire_codec.h"

namespace dqsq::dist {

namespace {

// Indexed by MessageKind.
constexpr const char* kKindNames[] = {"tuples", "activate", "subquery",
                                      "install", "ack", "transport_ack",
                                      "transport_hello"};
static_assert(std::size(kKindNames) ==
              static_cast<size_t>(MessageKind::kTransportHello) + 1);

// NetworkStats fields published as dist.net.* counters. The crash-path
// ones are split per peer in the registry and counted by held handles.
constexpr StatCounter<NetworkStats> kNetworkCounters[] = {
    {"dist.net.bytes", "bytes", &NetworkStats::bytes},
    {"dist.net.tuples_shipped", "rows", &NetworkStats::tuples_shipped},
    {"dist.net.rules_shipped", "rules", &NetworkStats::rules_shipped},
    {"dist.net.dropped", "messages", &NetworkStats::dropped},
    {"dist.net.duplicated", "messages", &NetworkStats::duplicated},
    {"dist.net.delayed", "messages", &NetworkStats::delayed},
    {"dist.net.retransmits", "messages", &NetworkStats::retransmits},
    {"dist.net.spurious", "messages", &NetworkStats::spurious},
    {"dist.net.transport_acks", "messages", &NetworkStats::transport_acks},
    {"dist.net.sacked", "messages", &NetworkStats::sacked},
    {"dist.net.fast_retransmits", "messages", &NetworkStats::fast_retransmits},
    {"dist.net.window_stalls", "messages", &NetworkStats::window_stalls},
    {"dist.net.window_drained", "messages", &NetworkStats::window_drained},
    {"dist.net.rto_samples", "samples", &NetworkStats::rtt_samples},
    {"dist.net.stale_epoch_drops", "messages",
     &NetworkStats::stale_epoch_drops},
    {"dist.net.crash_drops", "messages", &NetworkStats::crash_drops},
    {"dist.net.wal_records", "records", &NetworkStats::wal_records},
};

// Published only while the shim is engaged: without it wire == logical.
constexpr StatCounter<NetworkStats> kShimWireCounters[] = {
    {"dist.net.wire_messages", "messages", &NetworkStats::wire_messages},
    {"dist.net.wire_bytes", "bytes", &NetworkStats::wire_bytes},
};

constexpr CounterSpec kCrashCounters[] = {
    {"dist.net.crashes", "crashes"},
    {"dist.net.restarts", "restarts"},
    {"dist.net.migrations", "migrations"},
    {"dist.net.snapshot_bytes", "bytes"},
};

}  // namespace

// Approximate wire size: a fixed header plus payload terms at four bytes
// each and rules at sixteen bytes per atom. Messages stamped by the
// reliable shim additionally pay a transport envelope — seq + cumulative
// ack (8 bytes each) plus flags/SACK count (4), and 16 bytes per SACK
// block (two 8-byte bounds) — so lossy runs price the traffic the
// transport itself adds. The network is simulated, so this is a modeling
// convention (documented in docs/METRICS.md), not a codec.
size_t ApproxWireBytes(const Message& m) {
  size_t bytes = 16;
  for (const Tuple& t : m.tuples) bytes += 4 * t.size();
  bytes += (m.adornment.size() + 7) / 8;
  for (const Rule& r : m.rules) bytes += 16 * (1 + r.body.size());
  // Extra kTuples sections packed into one frame: an 8-byte section
  // header (relation id) plus the rows.
  for (const TupleSection& s : m.sections) {
    bytes += 8;
    for (const Tuple& t : s.tuples) bytes += 4 * t.size();
  }
  if (m.seq > 0 || m.kind == MessageKind::kTransportAck ||
      m.kind == MessageKind::kTransportHello) {
    bytes += 20 + 16 * m.sack.size();
  }
  // The epoch field is only ever non-zero after a crash-restart, so
  // crash-free runs price the wire exactly as before crash support.
  if (m.epoch > 0) bytes += 8;
  return bytes;
}

SimNetwork::SimNetwork(uint64_t seed, const FaultPlan& faults,
                       bool force_reliable)
    : rng_(seed),
      fault_rng_(seed ^ 0x5eed5eed5eed5eedULL),
      faults_(faults),
      counters_(kNetworkCounters),
      wire_counters_(kShimWireCounters) {
  if (faults_.active() || force_reliable) {
    transport_ = std::make_unique<ReliableTransport>(faults_.reliable);
  }
  crash_enabled_ = faults_.crash.active();
}

void SimNetwork::Register(SymbolId id, PeerNode* peer) {
  DQSQ_CHECK(peers_.emplace(id, peer).second) << "duplicate peer id " << id;
}

void SimNetwork::Send(Message message) {
  DQSQ_CHECK(peers_.contains(message.to))
      << "send to unregistered peer " << message.to;
  DQSQ_CHECK(peers_.contains(message.from))
      << "send from unregistered peer " << message.from;
  if (replaying_) {
    // Write-ahead-log replay: the restarting peer re-executes its logged
    // deliveries, re-issuing the sends it made after the snapshot. The
    // transport re-stamps them — deterministic replay regenerates the
    // exact pre-crash sequence numbers, rebuilding the retransmit queue —
    // but nothing reaches the wire: receivers already saw the original
    // copies (or will, via the frozen copies' retransmits).
    transport_->StampOutgoing(message, clock_.now());
    return;
  }
  if (transport_ != nullptr && !transport_->StampOutgoing(message, clock_.now())) {
    // Window full: the transport queued the message sender-side; PollWire
    // emits it once acks open the window.
    MirrorTransportStats();
    return;
  }
  EnqueueWire(std::move(message));
}

void SimNetwork::EnqueueWire(Message m) {
  if (!faults_.active()) {
    PushToChannel(std::move(m));
    return;
  }
  if (fault_rng_.NextBool(faults_.drop)) {
    ++stats_.dropped;
    return;
  }
  if (fault_rng_.NextBool(faults_.duplicate)) {
    ++stats_.duplicated;
    DeliverOrDelay(m);  // the extra copy takes its own delay draw
  }
  DeliverOrDelay(std::move(m));
}

void SimNetwork::DeliverOrDelay(Message m) {
  if (faults_.delay > 0.0 && fault_rng_.NextBool(faults_.delay)) {
    ++stats_.delayed;
    uint32_t window = std::max<uint32_t>(faults_.max_delay_steps, 1);
    delayed_.emplace(clock_.now() + 1 + fault_rng_.NextBelow(window), std::move(m));
    return;
  }
  PushToChannel(std::move(m));
}

void SimNetwork::PushToChannel(Message m) {
  ChannelKey key{m.from, m.to};
  auto [it, inserted] = channels_.try_emplace(key);
  std::deque<Message>& channel = it->second;
  if (channel.empty()) {
    auto pos = std::lower_bound(
        nonempty_.begin(), nonempty_.end(), key,
        [](const auto& entry, const ChannelKey& k) { return entry.first < k; });
    nonempty_.insert(pos, {key, &channel});
  }
  channel.push_back(std::move(m));
}

void SimNetwork::ReleaseDelayed() {
  while (!delayed_.empty() && delayed_.begin()->first <= clock_.now()) {
    Message m = std::move(delayed_.begin()->second);
    delayed_.erase(delayed_.begin());
    PushToChannel(std::move(m));
  }
}

void SimNetwork::PumpTransport() {
  for (Message& m : transport_->PollWire(clock_.now())) {
    if (m.kind == MessageKind::kTransportAck) {
      ++stats_.transport_acks;
    } else if (m.retransmit) {
      ++stats_.retransmits;
    }
    // else: a window-stalled original send draining as the window opened;
    // counted by the shim as window_drained.
    EnqueueWire(std::move(m));
  }
  MirrorTransportStats();
}

StatusOr<bool> SimNetwork::Step() {
  StatusOr<bool> progressed = DeliverNext();
  PublishMetrics();
  return progressed;
}

StatusOr<bool> SimNetwork::DeliverNext() {
  clock_.Advance();
  if (crash_enabled_) {
    EnsureInitialCheckpoints();
    ProcessCrashSchedule();
  }
  if (!delayed_.empty()) ReleaseDelayed();
  if (transport_ != nullptr) PumpTransport();
  if (nonempty_.empty()) {
    // Nothing on the wire. Timeouts run on virtual time, so fast-forward
    // the clock to the next delayed release, shim deadline, or peer
    // restart, if any.
    uint64_t next = 0;
    bool pending = false;
    auto consider = [&next, &pending](uint64_t t) {
      next = pending ? std::min(next, t) : t;
      pending = true;
    };
    if (!delayed_.empty()) consider(delayed_.begin()->first);
    if (transport_ != nullptr) {
      if (auto due = transport_->NextDue(); due.has_value()) consider(*due);
    }
    for (const auto& [peer, at] : down_) consider(at);
    if (!pending) return false;
    clock_.AdvanceTo(next);
    if (crash_enabled_) ProcessCrashSchedule();
    ReleaseDelayed();
    if (transport_ != nullptr) PumpTransport();
    // The injected traffic may itself have been dropped by the fault plan;
    // report progress and let the caller's step budget bound the retries.
    if (nonempty_.empty()) return true;
  }

  size_t pick = rng_.NextBelow(nonempty_.size());
  auto [key, channel] = nonempty_[pick];
  Message message = std::move(channel->front());
  channel->pop_front();
  if (channel->empty()) nonempty_.erase(nonempty_.begin() + pick);

  const size_t bytes = RecordWireDelivery(message, key);

  // A down peer loses everything the wire hands it: the copies are
  // retransmitted (or superseded by the recovery handshake) after restart.
  if (down_.contains(message.to)) {
    ++stats_.crash_drops;
    return true;
  }
  // Wire copies stamped by a previous incarnation of the sender are
  // discarded (the restarted sender re-emits everything that matters
  // under its new epoch).
  if (transport_ != nullptr && transport_->IsStale(message)) {
    ++stats_.stale_epoch_drops;
    return true;
  }
  // Pessimistic message logging: persist the delivery BEFORE any of its
  // effects, so a later crash can replay it deterministically.
  if (crash_enabled_ && peers_.at(message.to)->Restartable()) {
    WalAppend(message.to, message);
  }

  if (transport_ != nullptr) {
    ReliableTransport::Disposition disposition =
        transport_->OnWireDelivery(message, clock_.now());
    MirrorTransportStats();
    switch (disposition) {
      case ReliableTransport::Disposition::kControl:
        MaybeCheckpoint(message.to);
        return true;
      case ReliableTransport::Disposition::kDuplicate:
        ++stats_.spurious;
        MaybeCheckpoint(message.to);
        return true;
      case ReliableTransport::Disposition::kDeliverFirst:
        break;  // exactly-once: the peer sees only first deliveries
    }
  }

  // Logical (first-delivery) accounting: only messages a peer consumes.
  ++stats_.messages_delivered;
  stats_.bytes += bytes;
  Counter*& delivered = delivered_counters_[static_cast<size_t>(message.kind)];
  if (delivered == nullptr) {
    delivered = &MetricsRegistry::Global().GetCounter(
        "dist.net.messages_delivered",
        {{"kind", kKindNames[static_cast<size_t>(message.kind)]}}, "messages");
  }
  delivered->Increment();
  if (message.kind == MessageKind::kTuples) {
    stats_.tuples_shipped += message.tuples.size();
    for (const TupleSection& s : message.sections) {
      stats_.tuples_shipped += s.tuples.size();
    }
  } else {
    ++stats_.control_messages;
    if (message.kind == MessageKind::kInstall) {
      stats_.rules_shipped += message.rules.size();
    }
  }

  PeerNode* peer = peers_.at(message.to);
  DQSQ_RETURN_IF_ERROR(peer->OnMessage(message, *this));
  MaybeCheckpoint(message.to);
  return true;
}

std::string SimNetwork::PeerLabel(SymbolId id) const {
  if (namer_) return namer_(id);
  return "peer" + std::to_string(id);
}

size_t SimNetwork::RecordWireDelivery(const Message& message,
                                      const ChannelKey& channel_key) {
  const size_t bytes = ApproxWireBytes(message);
  ++stats_.wire_messages;
  stats_.wire_bytes += bytes;
  Counter*& channel = channel_counters_[channel_key];
  if (channel == nullptr) {
    channel = &MetricsRegistry::Global().GetCounter(
        "dist.net.channel_messages",
        {{"from", PeerLabel(channel_key.first)},
         {"to", PeerLabel(channel_key.second)}},
        "messages");
  }
  channel->Increment();
  return bytes;
}

void SimNetwork::MirrorTransportStats() {
  const TransportStats& t = transport_->stats();
  if (t.rtt_samples != stats_.rtt_samples) {
    static Gauge& rto_last =
        MetricsRegistry::Global().GetGauge("dist.net.rto_last", {}, "steps");
    rto_last.Set(static_cast<int64_t>(t.last_rto));
  }
  static_cast<TransportStats&>(stats_) = t;
}

void SimNetwork::PublishMetrics() {
  counters_.Publish(stats_);
  if (transport_ != nullptr) wire_counters_.Publish(stats_);
}

Counter& SimNetwork::CrashCounter(SymbolId peer, CrashMetric metric) {
  Counter*& slot = crash_counters_[peer][metric];
  if (slot == nullptr) {
    slot = &MetricsRegistry::Global().GetCounter(
        kCrashCounters[metric].name, {{"peer", PeerLabel(peer)}},
        kCrashCounters[metric].unit);
  }
  return *slot;
}

Status SimNetwork::RunToQuiescence(size_t max_steps) {
  for (size_t i = 0; i < max_steps; ++i) {
    DQSQ_ASSIGN_OR_RETURN(bool delivered, Step());
    if (!delivered) return Status::Ok();
  }
  // The budget may be exhausted by exactly the delivery that reached
  // quiescence; only a network with work left is an error.
  if (Quiescent()) return Status::Ok();
  return ResourceExhaustedError("network did not quiesce within budget");
}

bool SimNetwork::Quiescent() const {
  // A down peer is pending work by definition: its restart will replay,
  // re-handshake and retransmit.
  if (!down_.empty()) return false;
  if (!nonempty_.empty() || !delayed_.empty()) return false;
  return transport_ == nullptr || !transport_->NextDue().has_value();
}

namespace {

std::string SnapKey(SymbolId peer) { return "snap/" + std::to_string(peer); }
std::string WalKey(SymbolId peer) { return "wal/" + std::to_string(peer); }
std::string EpochKey(SymbolId peer) {
  return "epoch/" + std::to_string(peer);
}

}  // namespace

void SimNetwork::EnsureInitialCheckpoints() {
  if (initial_checkpoints_done_) return;
  initial_checkpoints_done_ = true;
  DQSQ_CHECK(transport_ != nullptr)
      << "a crash plan requires the reliable transport";
  for (const auto& [id, peer] : peers_) {
    if (peer->Restartable()) restartable_.push_back(id);
  }
  DQSQ_CHECK(!restartable_.empty())
      << "crash plan scheduled but no peer is restartable";
  for (SymbolId peer : restartable_) CheckpointPeer(peer);
}

void SimNetwork::ProcessCrashSchedule() {
  // Restarts first: a peer down exactly down_for steps comes back before
  // this step's deliveries (and before any fresh crash could target it).
  if (!down_.empty()) {
    std::vector<SymbolId> due;
    for (const auto& [peer, at] : down_) {
      if (at <= clock_.now()) due.push_back(peer);
    }
    for (SymbolId peer : due) RestartPeer(peer);
  }
  const CrashPlan& plan = faults_.crash;
  for (size_t i = 0; i < plan.crash_at_step.size(); ++i) {
    if (fired_.contains(i)) continue;
    const CrashEvent& event = plan.crash_at_step[i];
    if (event.at_step > clock_.now()) continue;
    fired_.insert(i);
    DQSQ_CHECK_LT(event.peer_index, restartable_.size())
        << "crash event targets a nonexistent restartable peer";
    SymbolId peer = restartable_[event.peer_index];
    if (!down_.contains(peer)) CrashPeer(peer);
  }
  for (size_t i = 0; i < plan.migrate_at_step.size(); ++i) {
    if (migrate_fired_.contains(i)) continue;
    const CrashEvent& event = plan.migrate_at_step[i];
    if (event.at_step > clock_.now()) continue;
    migrate_fired_.insert(i);
    DQSQ_CHECK_LT(event.peer_index, restartable_.size())
        << "migrate event targets a nonexistent restartable peer";
    MigratePeer(restartable_[event.peer_index]);
  }
  if (plan.random_crash > 0.0 &&
      random_crashes_fired_ < plan.max_random_crashes &&
      fault_rng_.NextBool(plan.random_crash)) {
    std::vector<SymbolId> alive;
    for (SymbolId peer : restartable_) {
      if (!down_.contains(peer)) alive.push_back(peer);
    }
    if (!alive.empty()) {
      ++random_crashes_fired_;
      CrashPeer(alive[fault_rng_.NextBelow(
          static_cast<uint32_t>(alive.size()))]);
    }
  }
}

void SimNetwork::CrashPeer(SymbolId peer) {
  ++stats_.crashes;
  CrashCounter(peer, kCrashes).Increment();
  // The peer loses its volatile state; the transport's view of its
  // channels is frozen (not wiped) — it is the god's-eye reference the
  // snapshot+WAL reconstruction is CHECKed against at restart, and it
  // keeps Seen()/AllPayloadDelivered() truthful while the peer is down.
  peers_.at(peer)->Crash();
  transport_->SetPeerDown(peer, true);
  down_[peer] = clock_.now() + faults_.crash.down_for;
}

void SimNetwork::RestartPeer(SymbolId peer) {
  // The frozen pre-crash transport state is, by construction, exactly what
  // snapshot + write-ahead-log replay must reproduce. Capture its
  // canonical image before wiping it.
  std::string frozen_image = transport_->ProtocolImage(peer);
  RecoverPeer(peer, frozen_image);
  ++stats_.restarts;
  CrashCounter(peer, kRestarts).Increment();
}

void SimNetwork::MigratePeer(SymbolId peer) {
  DQSQ_CHECK(migration_factory_)
      << "MigratePeer requires a migration factory (SetMigrationFactory)";
  DQSQ_CHECK(transport_ != nullptr)
      << "live migration requires the reliable transport";
  DQSQ_CHECK(crash_enabled_)
      << "live migration requires an active crash plan (the WAL and "
         "checkpoint cadence it hands off through only run then)";
  DQSQ_CHECK(peers_.at(peer)->Restartable())
      << "migration target is not restartable";
  EnsureInitialCheckpoints();
  // The frozen transport channels are the reference the new owner's
  // reconstruction is CHECKed against — capture before fencing.
  std::string frozen_image = transport_->ProtocolImage(peer);
  if (!down_.contains(peer)) {
    // Fence the old owner: wipe its volatile state so it can never process
    // another delivery (a delivery reaching it would CHECK-fail), and
    // freeze its transport channels. The epoch bump inside RecoverPeer
    // invalidates any wire copy the old incarnation still has in flight;
    // the kTransportHello re-handshake announces the new owner.
    peers_.at(peer)->Crash();
    transport_->SetPeerDown(peer, true);
    down_[peer] = clock_.now();  // transiently down; recovered below
  }
  PeerNode* replacement = migration_factory_(peer);
  DQSQ_CHECK(replacement != nullptr) << "migration factory returned null";
  peers_[peer] = replacement;
  RecoverPeer(peer, frozen_image);
  ++stats_.migrations;
  CrashCounter(peer, kMigrations).Increment();
}

void SimNetwork::RecoverPeer(SymbolId peer, const std::string& frozen_image) {
  auto blob = store_.Get(SnapKey(peer));
  DQSQ_CHECK(blob.has_value()) << "no snapshot for restarting peer " << peer;
  PeerSnapshot snap = DeserializePeerSnapshot(*blob);
  DQSQ_CHECK_EQ(snap.peer, peer);

  // The new incarnation must exceed every epoch this peer has ever run
  // in. The epoch is persisted under its own key so it survives even a
  // crash that outruns the snapshot cadence.
  uint64_t stored_epoch = 0;
  if (auto e = store_.Get(EpochKey(peer)); e.has_value()) {
    SnapshotReader r(*e);
    stored_epoch = r.U64();
  }
  uint64_t new_epoch = std::max(snap.epoch, stored_epoch) + 1;
  {
    SnapshotWriter w;
    w.U64(new_epoch);
    store_.Put(EpochKey(peer), w.Take());
  }

  transport_->RestorePeer(snap, new_epoch, clock_.now());
  peers_.at(peer)->RestoreState(snap.peer_state);
  down_.erase(peer);
  transport_->SetPeerDown(peer, false);

  // Replay the deliveries logged after the snapshot, in order. The peer's
  // handlers re-issue their sends; Send() suppresses the wire but lets the
  // transport re-stamp them, regenerating the pre-crash sequence numbers.
  replaying_ = true;
  transport_->set_replaying(true);
  for (const std::string& record : store_.ReadLog(WalKey(peer))) {
    SnapshotReader r(record);
    Message m = DecodeMessage(r, kRawIds);
    DQSQ_CHECK(r.AtEnd()) << "trailing bytes after write-ahead log record";
    ReliableTransport::Disposition disposition =
        transport_->OnWireDelivery(m, clock_.now());
    if (disposition == ReliableTransport::Disposition::kDeliverFirst) {
      // The original processing succeeded; deterministic replay must too.
      DQSQ_CHECK_OK(peers_.at(peer)->OnMessage(m, *this));
    }
  }
  transport_->set_replaying(false);
  replaying_ = false;

  // Determinism is the load-bearing wall of this recovery scheme (replay
  // regenerates the exact messages whose originals may still be acked or
  // delivered): verify the reconstruction matches the frozen truth.
  DQSQ_CHECK(transport_->ProtocolImage(peer) == frozen_image)
      << "snapshot + WAL replay diverged from the pre-crash state of peer "
      << peer << " (nondeterministic replay)";

  CheckpointPeer(peer);

  // Epoch re-handshake: announce the new incarnation and the restored
  // resume points. Hellos travel the faulty wire unreliably — a lost one
  // self-heals because every subsequent emission re-stamps the epoch.
  for (Message& hello : transport_->MakeHellos(peer, clock_.now())) {
    EnqueueWire(std::move(hello));
  }
}

void SimNetwork::CheckpointPeer(SymbolId peer) {
  PeerSnapshot snap;
  transport_->ExportPeer(peer, &snap);
  snap.peer_state = peers_.at(peer)->SaveState();
  std::string bytes = SerializePeerSnapshot(snap);
  stats_.snapshot_bytes += bytes.size();
  CrashCounter(peer, kSnapshotBytes).Increment(bytes.size());
  store_.Put(SnapKey(peer), std::move(bytes));
  store_.TruncateLog(WalKey(peer));
  wal_len_[peer] = 0;
}

void SimNetwork::WalAppend(SymbolId peer, const Message& message) {
  SnapshotWriter w;
  EncodeMessage(message, kRawIds, w);
  store_.Append(WalKey(peer), w.Take());
  ++wal_len_[peer];
  ++stats_.wal_records;
}

void SimNetwork::MaybeCheckpoint(SymbolId peer) {
  if (!crash_enabled_) return;
  auto it = wal_len_.find(peer);
  if (it == wal_len_.end() || it->second < faults_.crash.checkpoint_every) {
    return;
  }
  CheckpointPeer(peer);
}

void SimNetwork::RestoreDownPeers() {
  while (!down_.empty()) RestartPeer(down_.begin()->first);
  PublishMetrics();
}

bool SimNetwork::LogicallyQuiescent() const {
  if (transport_ == nullptr) return Quiescent();
  auto undelivered = [&](const Message& m) {
    return m.kind != MessageKind::kTransportAck &&
           m.kind != MessageKind::kTransportHello &&
           !transport_->Seen({m.from, m.to}, m.seq);
  };
  for (const auto& [key, channel] : channels_) {
    for (const Message& m : channel) {
      if (undelivered(m)) return false;
    }
  }
  for (const auto& [release, m] : delayed_) {
    if (undelivered(m)) return false;
  }
  return transport_->AllPayloadDelivered();
}

}  // namespace dqsq::dist
