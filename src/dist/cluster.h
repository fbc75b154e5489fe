// Shared driver plumbing: builds a simulated cluster of DatalogPeers from
// a distributed program (rules and facts installed at the peers owning
// their heads) and aggregates cross-peer statistics.
#ifndef DQSQ_DIST_CLUSTER_H_
#define DQSQ_DIST_CLUSTER_H_

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "datalog/eval.h"
#include "datalog/parser.h"
#include "dist/dnaive.h"
#include "dist/network.h"
#include "dist/peer.h"
#include "dist/termination.h"

namespace dqsq::dist {

/// The driver's endpoint in the network: the root of the Dijkstra–Scholten
/// diffusing computation. It only sends the initial demand and collects
/// acknowledgments; global termination is detected when it is passive with
/// deficit zero — without any god's-eye view of the channels.
class RootNode : public PeerNode {
 public:
  explicit RootNode(SymbolId id) : id_(id), ds_(/*is_root=*/true) {}

  SymbolId id() const { return id_; }
  bool terminated() const { return terminated_; }

  /// Sends a basic message on behalf of the driver.
  void SendBasic(Message message, Network& network) {
    ds_.OnSendBasic();
    network.Send(std::move(message));
  }

  Status OnMessage(const Message& message, Network& network) override;

 private:
  SymbolId id_;
  DsNode ds_;
  bool terminated_ = false;
};

class Cluster {
 public:
  enum class Mode {
    kEvaluate,    // dnaive: rules evaluated bottom-up at their head peer
    kSourceOnly,  // dQSQ: rules feed demand-driven rewriting only
  };

  /// Creates one peer per peer name occurring in `program` or `query`.
  /// Ground facts load into the owning peer's database; proper rules are
  /// installed according to `mode`. An active `faults` plan runs the
  /// network with fault injection plus the reliable-delivery shim.
  /// `wire_batch` sets the frame budget of the peers' kTuples flushes.
  /// `num_shards` exists only so perfbench/ sources compile unchanged; any
  /// value above 1 aborts.
  Cluster(DatalogContext& ctx, const Program& program,
          const ParsedQuery& query, uint64_t seed,
          const EvalOptions& eval_options, Mode mode,
          const FaultPlan& faults = {}, size_t num_shards = 1,
          const WireBatchOptions& wire_batch = {});

  SimNetwork& network() { return network_; }
  DatalogPeer& peer(SymbolId id) { return *peers_.at(id); }
  bool has_peer(SymbolId id) const { return peers_.contains(id); }
  RootNode& root() { return *root_; }

  /// Sends the driver's seed messages from the root.
  void SeedDemand(std::vector<Message> messages);

  /// Delivers messages until the root's Dijkstra–Scholten detection fires
  /// (or `max_steps` deliveries). On success the network is also checked
  /// to be quiescent — the algorithm's safety property, verified on every
  /// run.
  Status RunUntilTermination(size_t max_steps);

  size_t num_peers() const { return peers_.size(); }
  size_t TotalFacts() const;
  /// Facts per predicate name, summed across peers.
  std::map<std::string, size_t> RelationCounts() const;
  /// Sum over peers of facts whose predicate passes `filter`.
  size_t CountFactsMatching(
      const std::function<bool(const std::string&)>& filter) const;

 private:
  SimNetwork network_;
  DatalogContext* ctx_;
  EvalOptions eval_options_;
  WireBatchOptions wire_batch_;
  std::unique_ptr<RootNode> root_;
  std::map<SymbolId, std::unique_ptr<DatalogPeer>> peers_;
  // Peers replaced by live migration: kept alive (crashed, fenced) so any
  // outstanding raw pointers in the turn that triggered the migration stay
  // valid; answer extraction reads the replacements in peers_.
  std::vector<std::unique_ptr<DatalogPeer>> retired_;
};

// ---- Shared driver plumbing ----------------------------------------------
// Used by the simulated Cluster above AND the multi-process runner
// (dist/cluster_main.cc), so both build identical peer state, pose
// identical demand and extract answers from the same relation.

/// InvalidArgumentError iff `options.num_shards` > 1; both solvers call
/// this before building a Cluster.
Status CheckSingleShard(const DistOptions& options);

/// Peer names occurring in `program` or `query`: the unit of placement.
/// The simulated Cluster hosts all of them in one process; the cluster
/// runner partitions them across OS processes.
std::set<SymbolId> ProgramPeers(const Program& program,
                                const ParsedQuery& query);

/// Installs one program rule at the peer owning its head: ground facts
/// load as extensional data, proper rules install per `mode`.
void InstallRuleAt(DatalogPeer& owner, const Rule& rule, Cluster::Mode mode,
                   DatalogContext& ctx);

/// The demand the root sends to start the computation: one kActivate for
/// distributed naive, or a kSubquery followed by the seed input tuple for
/// dQSQ (per-channel FIFO keeps the pair ordered).
std::vector<Message> SeedDemandMessages(DatalogContext& ctx,
                                        const ParsedQuery& query,
                                        SymbolId root_id, Cluster::Mode mode);

/// The atom whose facts at the query-owner peer are the final answers:
/// the query atom itself under kEvaluate, the adorned answer relation
/// under kSourceOnly.
Atom AnswerAtom(DatalogContext& ctx, const ParsedQuery& query,
                Cluster::Mode mode);

}  // namespace dqsq::dist

#endif  // DQSQ_DIST_CLUSTER_H_
