#include "dist/reliable.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"
#include "dist/wire_codec.h"

namespace dqsq::dist {

uint64_t ReliableTransport::Rto(const SenderState& sender) const {
  if (!config_.adaptive_rto || !sender.has_rtt) {
    return config_.retransmit_timeout;
  }
  uint64_t rto = sender.srtt + std::max<uint64_t>(4 * sender.rttvar, 1);
  return std::clamp(rto, config_.rto_min, config_.rto_max);
}

void ReliableTransport::SampleRtt(SenderState& sender, uint64_t rtt) {
  if (!config_.adaptive_rto) return;
  // Replayed deliveries carry no timing information (their "RTT" is the
  // replay loop's zero-width clock): keep them out of the estimator.
  if (replaying_) return;
  ++stats_.rtt_samples;
  if (!sender.has_rtt) {
    // RFC 6298 initialization: SRTT = R, RTTVAR = R/2.
    sender.has_rtt = true;
    sender.srtt = rtt;
    sender.rttvar = rtt / 2;
  } else {
    // SRTT = 7/8·SRTT + 1/8·R, RTTVAR = 3/4·RTTVAR + 1/4·|SRTT - R|.
    uint64_t err = sender.srtt > rtt ? sender.srtt - rtt : rtt - sender.srtt;
    sender.rttvar = (3 * sender.rttvar + err) / 4;
    sender.srtt = (7 * sender.srtt + rtt) / 8;
  }
  stats_.last_rto = Rto(sender);
}

std::vector<SackBlock> ReliableTransport::EncodeSack(
    const ReceiverState& receiver) const {
  std::vector<SackBlock> blocks;
  if (config_.max_sack_blocks == 0) return blocks;
  for (uint64_t seq : receiver.out_of_order) {
    if (!blocks.empty() && seq == blocks.back().last + 1) {
      blocks.back().last = seq;
    } else if (blocks.size() < config_.max_sack_blocks) {
      blocks.push_back({seq, seq});
    } else {
      break;  // bounded: the lowest ranges repair the oldest holes first
    }
  }
  return blocks;
}

void ReliableTransport::AttachAck(const ChannelKey& reverse, Message& m,
                                  uint64_t now) {
  ReceiverState& receiver = receivers_[reverse];
  m.ack = receiver.cum;
  m.sack = EncodeSack(receiver);
  // Sending an ack does NOT discharge the debt: the carrier may still be
  // dropped by the fault plan. Re-arm the standalone-ack timer; the owed
  // state clears when a delivery confirms an ack at least this high
  // (OnWireDelivery), so a lost carrier costs one standalone ack instead
  // of a spurious retransmit round trip.
  if (receiver.ack_owed) receiver.owed_since = now;
}

void ReliableTransport::Transmit(const ChannelKey& channel,
                                 SenderState& sender, Message& m,
                                 uint64_t now) {
  AttachAck(ChannelKey{channel.second, channel.first}, m, now);
  m.retransmit = false;
  m.epoch = EpochOf(channel.first);
  sender.unacked.emplace(
      m.seq, Unacked{m, now + Rto(sender), /*backoff=*/1, /*sent_at=*/now,
                     /*transmissions=*/1});
}

bool ReliableTransport::StampOutgoing(Message& m, uint64_t now) {
  ChannelKey channel{m.from, m.to};
  SenderState& sender = senders_[channel];
  m.seq = ++sender.next_seq;
  if ((config_.window > 0 && sender.unacked.size() >= config_.window) ||
      !sender.pending.empty()) {
    // Window full — or a stalled backlog exists, which must drain first to
    // keep the channel's transmission order FIFO: queue sender-side. The
    // ack and SACK blocks are attached at actual transmission time.
    if (!replaying_) ++stats_.window_stalls;
    m.retransmit = false;
    sender.pending.push_back(m);
    return false;
  }
  Transmit(channel, sender, m, now);
  return true;
}

void ReliableTransport::ApplyAck(SenderState& sender, const Message& m,
                                 uint64_t now) {
  bool erased_any = false;
  auto sample_and_erase = [&](std::map<uint64_t, Unacked>::iterator it) {
    // Karn's rule: a retransmitted entry's ack is ambiguous (it may
    // acknowledge any transmission), so only never-retransmitted entries
    // contribute RTT samples.
    if (it->second.transmissions == 1) {
      SampleRtt(sender, now - it->second.sent_at);
    }
    erased_any = true;
    return sender.unacked.erase(it);
  };
  for (auto it = sender.unacked.begin();
       it != sender.unacked.end() && it->first <= m.ack;) {
    it = sample_and_erase(it);
  }
  for (const SackBlock& block : m.sack) {
    for (auto it = sender.unacked.lower_bound(block.first);
         it != sender.unacked.end() && it->first <= block.last;) {
      if (!replaying_) ++stats_.sacked;
      it = sample_and_erase(it);
    }
  }
  // Forward progress restarts the channel's retransmit timers (RFC 6298
  // §5.7-style): the round trip demonstrably works, so survivors owe their
  // (possibly deeply backed-off) congestion pessimism nothing — retry one
  // RTO from now. Bounded by ack arrivals, which are bounded by deliveries.
  if (erased_any) {
    for (auto& [seq, entry] : sender.unacked) {
      entry.backoff = 1;
      entry.due = std::min(entry.due, now + Rto(sender));
    }
  }
  // Fast retransmit: every surviving entry below the highest SACKed
  // sequence number is a hole the receiver can see — it holds later data
  // while this seq is missing. Enough independent pieces of such evidence
  // (config_.fast_retransmit_dupacks) mean the wire copy is almost
  // certainly lost, not reordered: make the entry due immediately so the
  // next PollWire resends it without waiting out the RTO. One early resend
  // per entry; afterwards the timeout/backoff path takes over as usual.
  if (config_.fast_retransmit_dupacks > 0 && !m.sack.empty()) {
    uint64_t highest_sacked = 0;
    for (const SackBlock& b : m.sack) {
      highest_sacked = std::max(highest_sacked, b.last);
    }
    for (auto& [seq, entry] : sender.unacked) {
      if (seq >= highest_sacked) break;  // map is ordered by seq
      if (entry.fast_retx_done) continue;
      if (++entry.dup_evidence >= config_.fast_retransmit_dupacks) {
        entry.fast_retx_done = true;
        entry.due = now;
        if (!replaying_) ++stats_.fast_retransmits;
      }
    }
  }
  // Covered window-stalled entries are erased too. A live receiver cannot
  // acknowledge a sequence number that was never transmitted, so this
  // branch is unreachable in live operation; during write-ahead-log
  // replay, however, an ack can replay before the PollWire drain that
  // originally put its target on the wire, leaving the (already
  // delivered) entry stranded in the pending queue.
  if (!sender.pending.empty()) {
    auto covered = [&m](const Message& p) {
      if (p.seq <= m.ack) return true;
      return std::any_of(m.sack.begin(), m.sack.end(),
                         [&p](const SackBlock& b) {
                           return b.first <= p.seq && p.seq <= b.last;
                         });
    };
    std::erase_if(sender.pending, covered);
  }
}

ReliableTransport::Disposition ReliableTransport::OnWireDelivery(
    const Message& m, uint64_t now) {
  // Every delivery teaches the channel the sender's incarnation, so a
  // dropped kTransportHello self-heals: the next data message or
  // retransmit (all re-stamped with the current epoch) carries the news.
  if (m.epoch > 0) {
    uint64_t& known = known_epoch_[ChannelKey{m.from, m.to}];
    known = std::max(known, m.epoch);
  }
  // The ack concerns messages the receiver (m.to) previously sent to m.from.
  if (m.ack > 0 || !m.sack.empty()) {
    ChannelKey data_channel{m.to, m.from};
    if (auto it = senders_.find(data_channel); it != senders_.end()) {
      ApplyAck(it->second, m, now);
    }
    // This delivery also proves the ack reached its destination: the
    // receiver end of data_channel stops owing one, provided the delivered
    // ack covers everything it has received since (cumulative and
    // out-of-order alike).
    if (auto it = receivers_.find(data_channel); it != receivers_.end()) {
      ReceiverState& receiver = it->second;
      if (receiver.ack_owed && m.ack >= receiver.cum) {
        bool covered = true;
        for (uint64_t seq : receiver.out_of_order) {
          covered = std::any_of(m.sack.begin(), m.sack.end(),
                                [seq](const SackBlock& b) {
                                  return b.first <= seq && seq <= b.last;
                                });
          if (!covered) break;
        }
        if (covered) {
          receiver.ack_owed = false;
          receiver.ack_backoff = 1;
        }
      }
    }
  }
  if (m.kind == MessageKind::kTransportAck ||
      m.kind == MessageKind::kTransportHello) {
    return Disposition::kControl;
  }
  DQSQ_CHECK_GT(m.seq, 0u) << "unsequenced message on a reliable channel";

  ReceiverState& receiver = receivers_[ChannelKey{m.from, m.to}];
  if (receiver.Saw(m.seq)) {
    // Spurious (our ack was lost or is in flight): owe a fresh ack so the
    // sender's retransmit loop terminates. The duplicate is live evidence
    // the sender is still retransmitting, so answer promptly — reset the
    // standalone-ack backoff and timer. The re-acceleration is bounded by
    // the sender's own retransmit backoff (>= rto_min per duplicate).
    receiver.ack_owed = true;
    receiver.owed_since = now;
    receiver.ack_backoff = 1;
    return Disposition::kDuplicate;
  }
  if (m.seq == receiver.cum + 1) {
    ++receiver.cum;
    while (receiver.out_of_order.erase(receiver.cum + 1) > 0) ++receiver.cum;
  } else {
    receiver.out_of_order.insert(m.seq);
  }
  // Fresh data: ack promptly even if an earlier (backed-off) debt is
  // outstanding. The timer is NOT re-armed when already owed — the ack is
  // due ack_delay after the debt was first incurred.
  receiver.ack_backoff = 1;
  if (!receiver.ack_owed) {
    receiver.ack_owed = true;
    receiver.owed_since = now;
  }
  return Disposition::kDeliverFirst;
}

std::vector<Message> ReliableTransport::PollWire(uint64_t now) {
  std::vector<Message> out;
  for (auto& [channel, sender] : senders_) {
    if (down_.contains(channel.first)) continue;  // frozen: crashed sender
    for (auto& [seq, entry] : sender.unacked) {
      if (entry.due > now) continue;
      entry.backoff *= 2;
      if (config_.max_backoff > 0) {
        entry.backoff = std::min(entry.backoff, config_.max_backoff);
      }
      entry.due = now + Rto(sender) * entry.backoff;
      ++entry.transmissions;  // Karn: this entry's RTT is now ambiguous
      Message copy = entry.copy;
      copy.retransmit = true;
      // Refresh the piggybacked ack + SACK blocks and the epoch stamp: the
      // reverse channel may have advanced — and the sender may have
      // restarted — since the original send.
      AttachAck(ChannelKey{channel.second, channel.first}, copy, now);
      copy.epoch = EpochOf(channel.first);
      out.push_back(std::move(copy));
    }
    // Drain window-stalled sends as acks open the window.
    while (!sender.pending.empty() &&
           (config_.window == 0 || sender.unacked.size() < config_.window)) {
      Message m = std::move(sender.pending.front());
      sender.pending.pop_front();
      ++stats_.window_drained;
      Transmit(channel, sender, m, now);
      out.push_back(std::move(m));
    }
  }
  for (auto& [channel, receiver] : receivers_) {
    if (down_.contains(channel.second)) continue;  // frozen: crashed receiver
    if (!receiver.ack_owed ||
        now < receiver.owed_since + config_.ack_delay * receiver.ack_backoff) {
      continue;
    }
    // Re-arm instead of clearing: the debt is discharged only when some
    // delivery confirms the ack arrived. If this standalone ack is dropped,
    // another flushes after a backed-off silence. The backoff is UNcapped
    // (unlike the retransmit backoff): per owed episode a channel emits
    // O(log horizon) standalone acks total, so production stays below the
    // wire's drain rate no matter how many channels owe at once — with a
    // cap, ~cap·ack_delay owed channels (reachable when many channels
    // carry traffic together) produce acks faster than the wire drains
    // and the discharging acks never escape the flood.
    // Liveness never rests on this timer: whenever the ack still matters,
    // the sender's capped retransmit loop delivers a duplicate, which
    // resets the backoff to prompt.
    receiver.owed_since = now;
    receiver.ack_backoff *= 2;
    Message ack;
    ack.kind = MessageKind::kTransportAck;
    ack.from = channel.second;  // receiver end of the data channel
    ack.to = channel.first;
    ack.ack = receiver.cum;
    ack.sack = EncodeSack(receiver);
    ack.epoch = EpochOf(channel.second);
    out.push_back(std::move(ack));
  }
  return out;
}

std::optional<uint64_t> ReliableTransport::NextDue() const {
  std::optional<uint64_t> due;
  auto consider = [&due](uint64_t t) {
    if (!due.has_value() || t < *due) due = t;
  };
  for (const auto& [channel, sender] : senders_) {
    if (down_.contains(channel.first)) continue;
    for (const auto& [seq, entry] : sender.unacked) consider(entry.due);
    if (!sender.pending.empty() &&
        (config_.window == 0 || sender.unacked.size() < config_.window)) {
      consider(0);  // the window is open: the next PollWire drains
    }
  }
  for (const auto& [channel, receiver] : receivers_) {
    if (down_.contains(channel.second)) continue;
    if (receiver.ack_owed) {
      consider(receiver.owed_since + config_.ack_delay * receiver.ack_backoff);
    }
  }
  return due;
}

bool ReliableTransport::Seen(const ChannelKey& channel, uint64_t seq) const {
  auto it = receivers_.find(channel);
  return it != receivers_.end() && it->second.Saw(seq);
}

bool ReliableTransport::HasUnacked() const {
  for (const auto& [channel, sender] : senders_) {
    if (!sender.unacked.empty() || !sender.pending.empty()) return true;
  }
  return false;
}

bool ReliableTransport::AllPayloadDelivered() const {
  for (const auto& [channel, sender] : senders_) {
    if (!sender.pending.empty()) return false;  // never even transmitted
    for (const auto& [seq, entry] : sender.unacked) {
      if (!Seen(channel, seq)) return false;
    }
  }
  return true;
}

uint64_t ReliableTransport::EpochOf(SymbolId peer) const {
  auto it = epochs_.find(peer);
  return it == epochs_.end() ? 0 : it->second;
}

bool ReliableTransport::IsStale(const Message& m) const {
  auto it = known_epoch_.find(ChannelKey{m.from, m.to});
  return it != known_epoch_.end() && m.epoch < it->second;
}

void ReliableTransport::SetPeerDown(SymbolId peer, bool down) {
  if (down) {
    down_.insert(peer);
  } else {
    down_.erase(peer);
  }
}

void ReliableTransport::ExportPeer(SymbolId peer, PeerSnapshot* snap) const {
  snap->peer = peer;
  snap->epoch = EpochOf(peer);
  snap->senders.clear();
  snap->receivers.clear();
  // Map iteration order is ascending by (from, to); with one side fixed to
  // `peer` the exported channels are ascending by counterpart, which makes
  // the serialized snapshot byte-stable.
  for (const auto& [channel, sender] : senders_) {
    if (channel.first != peer) continue;
    ChannelSenderState s;
    s.to = channel.second;
    s.next_seq = sender.next_seq;
    for (const auto& [seq, entry] : sender.unacked) {
      s.unacked.push_back(entry.copy);
    }
    s.pending.assign(sender.pending.begin(), sender.pending.end());
    snap->senders.push_back(std::move(s));
  }
  for (const auto& [channel, receiver] : receivers_) {
    if (channel.second != peer) continue;
    ChannelReceiverState r;
    r.from = channel.first;
    r.cum = receiver.cum;
    r.out_of_order.assign(receiver.out_of_order.begin(),
                          receiver.out_of_order.end());
    snap->receivers.push_back(std::move(r));
  }
}

void ReliableTransport::RestorePeer(const PeerSnapshot& snap,
                                    uint64_t new_epoch, uint64_t now) {
  SymbolId peer = snap.peer;
  DQSQ_CHECK_GT(new_epoch, EpochOf(peer))
      << "epoch regressed on restore: peer restarted into an incarnation "
         "it already passed through";
  DQSQ_CHECK_GT(new_epoch, snap.epoch)
      << "epoch regressed on restore: snapshot taken in a later incarnation";
  epochs_[peer] = new_epoch;
  for (auto it = senders_.begin(); it != senders_.end();) {
    it = it->first.first == peer ? senders_.erase(it) : std::next(it);
  }
  for (auto it = receivers_.begin(); it != receivers_.end();) {
    it = it->first.second == peer ? receivers_.erase(it) : std::next(it);
  }
  for (const ChannelSenderState& s : snap.senders) {
    SenderState& sender = senders_[ChannelKey{peer, s.to}];
    sender.next_seq = s.next_seq;
    for (const Message& m : s.unacked) {
      // Due immediately: the wire copy may have died with the old
      // incarnation. transmissions=2 poisons the entry for Karn (an ack
      // may answer either the pre-crash or the post-restart copy). The
      // retransmit path re-stamps ack/SACK/epoch at emission time.
      sender.unacked.emplace(
          m.seq, Unacked{m, /*due=*/now, /*backoff=*/1, /*sent_at=*/now,
                         /*transmissions=*/2});
    }
    // Pending entries drain through Transmit (PollWire), which re-stamps
    // the piggybacked cumulative ack, SACK blocks and epoch — restored
    // queue entries never hit the wire with their stored (stale) stamps.
    sender.pending.assign(s.pending.begin(), s.pending.end());
  }
  for (const ChannelReceiverState& r : snap.receivers) {
    ReceiverState& receiver = receivers_[ChannelKey{r.from, peer}];
    receiver.cum = r.cum;
    receiver.out_of_order.clear();
    receiver.out_of_order.insert(r.out_of_order.begin(),
                                 r.out_of_order.end());
    // Re-advertise the resume point promptly: counterparts may have lost
    // acks in the crash window and be retransmitting delivered payload.
    receiver.ack_owed = true;
    receiver.owed_since = now;
  }
}

std::vector<Message> ReliableTransport::MakeHellos(SymbolId peer,
                                                   uint64_t /*now*/) {
  std::set<SymbolId> counterparts;
  for (const auto& [channel, sender] : senders_) {
    if (channel.first == peer) counterparts.insert(channel.second);
  }
  for (const auto& [channel, receiver] : receivers_) {
    if (channel.second == peer) counterparts.insert(channel.first);
  }
  std::vector<Message> hellos;
  for (SymbolId other : counterparts) {
    Message hello;
    hello.kind = MessageKind::kTransportHello;
    hello.from = peer;
    hello.to = other;
    hello.epoch = EpochOf(peer);
    // Carry the restored receiver-side resume point for the reverse
    // channel, exactly like a standalone ack.
    if (auto it = receivers_.find(ChannelKey{other, peer});
        it != receivers_.end()) {
      hello.ack = it->second.cum;
      hello.sack = EncodeSack(it->second);
    }
    hellos.push_back(std::move(hello));
  }
  return hellos;
}

std::string ReliableTransport::ProtocolImage(SymbolId peer) const {
  SnapshotWriter w;
  for (const auto& [channel, sender] : senders_) {
    if (channel.first != peer) continue;
    w.U8(1);  // sender-channel tag
    w.U32(channel.second);
    w.U64(sender.next_seq);
    // The unacked/pending partition is timing-dependent (replay performs
    // no window drains), but the merged outstanding set must match the
    // pre-crash state exactly. Scrub the stamps attached at (re)emission
    // time — piggybacked acks, SACK blocks, retransmit flag, epoch — which
    // legitimately differ between the original run and the reconstruction.
    std::map<uint64_t, const Message*> outstanding;
    for (const auto& [seq, entry] : sender.unacked) {
      outstanding[seq] = &entry.copy;
    }
    for (const Message& m : sender.pending) outstanding[m.seq] = &m;
    w.Count(outstanding.size());
    for (const auto& [seq, m] : outstanding) {
      Message scrubbed = *m;
      scrubbed.ack = 0;
      scrubbed.sack.clear();
      scrubbed.retransmit = false;
      scrubbed.epoch = 0;
      EncodeMessage(scrubbed, kRawIds, w);
    }
  }
  for (const auto& [channel, receiver] : receivers_) {
    if (channel.second != peer) continue;
    w.U8(2);  // receiver-channel tag
    w.U32(channel.first);
    w.U64(receiver.cum);
    w.Count(receiver.out_of_order.size());
    for (uint64_t seq : receiver.out_of_order) w.U64(seq);
  }
  return w.Take();
}

}  // namespace dqsq::dist
