// A dDatalog peer: hosts the rules whose heads live at this peer (paper
// §3), evaluates installed rules over its local database to a fixpoint
// whenever new information arrives, and ships derived tuples whose head
// relation is owned elsewhere. Two demand protocols run over the same
// machinery:
//
//  * distributed naive evaluation (§3.1): activation requests propagate
//    through rule bodies; remote body relations are subscribed to and
//    replicated locally, so every rule joins over local data;
//  * dQSQ (§3.2): subquery requests carry a call pattern (R, adornment);
//    the peer rewrites ITS OWN rules for that pattern — only local
//    knowledge is needed — keeps the rewritten rules whose bodies are
//    local, and ships each remainder rule to the peer owning its body
//    (rule (†) of the paper). Binding flow (in_ relations) and answers then
//    move as ordinary tuples.
#ifndef DQSQ_DIST_PEER_H_
#define DQSQ_DIST_PEER_H_

#include <array>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "datalog/adornment.h"
#include "datalog/database.h"
#include "datalog/eval.h"
#include "dist/network.h"
#include "dist/termination.h"

namespace dqsq::dist {

class DatalogPeer : public PeerNode {
 public:
  DatalogPeer(SymbolId id, DatalogContext* ctx, EvalOptions eval_options,
              const WireBatchOptions& batch = {});

  SymbolId id() const { return id_; }
  Database& db() { return db_; }
  const Database& db() const { return db_; }

  /// Installs a rule for evaluation (setup time or via kInstall). The
  /// rule's head must be owned by this peer OR its body must be local.
  void InstallRule(const Rule& rule);

  /// Installs a source rule: input to demand-driven rewriting (dQSQ) but
  /// never evaluated directly. dnaive installs rules with InstallRule;
  /// dQSQ peers hold their original rules here and evaluate only the
  /// rewritten ones.
  void InstallSourceRule(const Rule& rule);

  /// Adds a local extensional fact.
  void AddFact(const RelId& rel, std::span<const TermId> tuple);

  Status OnMessage(const Message& message, Network& network) override;

  // Crash-restart hooks (dist/snapshot.h): a DatalogPeer serializes its
  // complete volatile state — materialized relations, installed and
  // source rules, activation/subscription/ship-watermark/replica/rewrite
  // bookkeeping, and its Dijkstra–Scholten engagement — so SimNetwork can
  // checkpoint and reconstruct it after an injected crash.
  bool Restartable() const override { return true; }
  std::string SaveState() const override;
  void RestoreState(const std::string& state) override;
  void Crash() override;

  /// Dijkstra–Scholten state (peers start passive and unengaged; the
  /// driver is the diffusing computation's root).
  const DsNode& ds() const { return ds_; }

  /// Entry point used by drivers: activate `rel` here (dnaive). Rows owed
  /// to the subscriber ship at the next RunFixpointAndFlush.
  Status Activate(const RelId& rel, SymbolId subscriber, bool has_subscriber,
                  Network& network);

  /// Entry point used by drivers: process a subquery (dQSQ).
  Status OnSubquery(const RelId& rel, const Adornment& adornment,
                    Network& network);

  /// Runs the local fixpoint and ships what must move. Drivers call this
  /// once after seeding facts.
  Status RunFixpointAndFlush(Network& network);

  size_t num_installed_rules() const { return program_.rules.size(); }

 private:
  // This peer's {peer=} counters (kPeerCounters in peer.cc), each
  // resolved on first use by Metric().
  enum PeerMetric {
    kRulesInstalled, kEngagements, kSubqueriesReceived, kRewrites, kFixpoints,
    kBatchedTuples, kSplitTuples, kDisengagements, kRestores, kNumPeerMetrics
  };
  Counter& Metric(PeerMetric metric);

  /// Queues the rows of `rel` not yet shipped to `target` in the outbox;
  /// the next DrainOutbox sends them as kTuples.
  void FlushRelationTo(const RelId& rel, SymbolId target);

  /// Sends a basic (non-ack) message, bumping the DS deficit.
  void SendBasic(Message message, Network& network);

  /// Sends an acknowledgment to `target`.
  void SendAck(SymbolId target, Network& network);

  /// Disengages (acking the tree parent) when passive with deficit 0.
  void MaybeDisengage(Network& network);

  /// Handles one basic message (kAck is handled by OnMessage).
  Status Dispatch(const Message& message, Network& network);

  /// Inserts one kTuples payload (or section); rows of remote-owned
  /// relations are also marked received_ so they never ship back.
  void IngestTuples(const RelId& rel, const std::vector<Tuple>& tuples);

  /// True iff this peer has a source or evaluated rule whose head is
  /// `rel` (source rules take precedence for rewriting decisions).
  bool HasRulesFor(const RelId& rel) const;

  /// Rewrites this peer's rules for the call pattern and distributes the
  /// results (kInstall for remote bodies, recursive handling for local
  /// subqueries, kSubquery for remote ones).
  Status RewriteForPattern(const RelId& rel, const Adornment& adornment,
                           Network& network);

  // ---- Outbound kTuples flushes ------------------------------------------

  struct OutboxEntry {
    SymbolId target;
    RelId rel;
    std::vector<Tuple> tuples;
  };
  /// Packs queued flushes per target into section-batched messages,
  /// splitting payloads above batch_.max_bytes. Called at the end of every
  /// RunFixpointAndFlush.
  void DrainOutbox(Network& network);

  SymbolId id_;
  WireBatchOptions batch_;
  DatalogContext* ctx_;
  DsNode ds_{/*is_root=*/false};
  EvalOptions eval_options_;
  Database db_;
  Program program_;         // evaluated every fixpoint
  Program source_rules_;    // rewriting input only (dQSQ)

  std::set<RelId> active_;
  std::map<RelId, std::set<SymbolId>> subscribers_;
  // Ship watermark per (relation, target peer): rows below it were sent.
  std::map<std::pair<RelId, SymbolId>, size_t> shipped_;
  // Rows of remote-owned relations that were received (replicas) rather
  // than derived — never shipped back to the owner.
  std::map<RelId, std::set<Tuple>> received_;
  // Call patterns already rewritten (pred + adornment; "the same machinery
  // is reused" for repeated requests).
  std::set<std::pair<PredicateId, Adornment>> rewritten_;
  // Pending kTuples flushes (always drained before OnMessage returns, so
  // never serialized).
  std::vector<OutboxEntry> outbox_;
  // Set by Crash(), cleared by RestoreState(): a crashed peer must not
  // process messages (the network drops deliveries to down peers — a
  // delivery reaching a crashed peer is a simulator bug).
  bool crashed_ = false;
  std::array<Counter*, kNumPeerMetrics> counters_{};
};

}  // namespace dqsq::dist

#endif  // DQSQ_DIST_PEER_H_
