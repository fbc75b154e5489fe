// Driver for distributed naive evaluation (paper §3.1): rules are
// installed at the peers owning their heads, the query relation is
// activated at its owner, activations cascade through rule bodies with
// subscriptions replicating remote relations, and tuples flow until the
// network quiesces — "the result is exactly as in the centralized case".
#ifndef DQSQ_DIST_DNAIVE_H_
#define DQSQ_DIST_DNAIVE_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/engine.h"
#include "datalog/parser.h"
#include "dist/network.h"

namespace dqsq::dist {

struct DistResult {
  std::vector<Tuple> answers;
  NetworkStats net_stats;
  /// Facts materialized across every peer (replicas included — replicated
  /// storage is real storage).
  size_t total_facts = 0;
  /// Facts of original / adorned-answer relations across peers.
  size_t answer_facts = 0;
  size_t num_peers = 0;
  /// Facts per predicate name, summed across peers (for materialization
  /// accounting by the diagnosis layer and the benchmarks).
  std::map<std::string, size_t> relation_counts;
  /// True iff at the instant Dijkstra-Scholten detection fired no
  /// undelivered payload was in flight (verified on every successful run;
  /// a violation fails the solve instead of returning false here).
  bool quiescent_at_detection = false;
};

struct DistOptions {
  uint64_t seed = 1;
  EvalOptions eval;
  size_t max_network_steps = 1'000'000;
  /// Fault injection for the simulated wire. An active plan engages the
  /// reliable-delivery shim; the default loss-free plan adds no traffic.
  FaultPlan faults;
  /// Kept only so perfbench/ sources compile unchanged: one logical peer
  /// is one peer, and the solvers reject any value above 1.
  size_t num_shards = 1;
  /// Frame budget for kTuples flushes; see WireBatchOptions.
  WireBatchOptions wire_batch;
};

/// Evaluates `query` over the distributed program. Facts may be given as
/// empty-body rules in `program`; rules and facts are installed at the
/// peers owning their heads.
StatusOr<DistResult> DistNaiveSolve(DatalogContext& ctx,
                                    const Program& program,
                                    const ParsedQuery& query,
                                    const DistOptions& options);

}  // namespace dqsq::dist

#endif  // DQSQ_DIST_DNAIVE_H_
