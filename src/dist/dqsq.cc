#include "dist/dqsq.h"

#include <unordered_set>

#include "common/metrics.h"
#include "dist/cluster.h"

namespace dqsq::dist {

StatusOr<DistResult> DistQsqSolve(DatalogContext& ctx, const Program& program,
                                  const ParsedQuery& query,
                                  const DistOptions& options) {
  DQSQ_RETURN_IF_ERROR(ValidateProgram(program, ctx));
  DQSQ_RETURN_IF_ERROR(CheckSingleShard(options));
  for (const Rule& rule : program.rules) {
    if (!rule.negative.empty()) {
      return UnimplementedError(
          "distributed evaluation supports positive dDatalog only: global "
          "stratification cannot be enforced per-message (paper Remark 4)");
    }
  }
  Labels engine{{"engine", "dqsq"}};
  CountMetric("dist.solve.queries", 1, engine);
  ScopedTimer timer(TimeMetric("dist.solve.wall_ns", engine));
  Cluster cluster(ctx, program, query, options.seed, options.eval,
                  Cluster::Mode::kSourceOnly, options.faults,
                  /*num_shards=*/1, options.wire_batch);

  // Pose the query at the owner as the Dijkstra-Scholten root: a subquery
  // message carrying the call pattern, then the bound arguments (FIFO on
  // the same channel keeps them ordered). Termination is detected by the
  // root's deficit, not by inspecting the channels.
  cluster.SeedDemand(SeedDemandMessages(ctx, query, cluster.root().id(),
                                        Cluster::Mode::kSourceOnly));
  DQSQ_RETURN_IF_ERROR(
      cluster.RunUntilTermination(options.max_network_steps));

  DistResult result;
  // RunUntilTermination fails the solve on a safety violation, so reaching
  // this point certifies quiescence at the instant of detection.
  result.quiescent_at_detection = true;
  // The owner is looked up AFTER the run: a live migration mid-evaluation
  // replaces the peer object, and answers live in the replacement.
  DatalogPeer& owner = cluster.peer(query.atom.rel.peer);
  result.answers = Ask(owner.db(), AnswerAtom(ctx, query, Cluster::Mode::kSourceOnly),
                       query.num_vars);
  result.net_stats = cluster.network().stats();
  result.total_facts = cluster.TotalFacts();

  // Adorned-answer facts across peers: relations named "X__<adornment>"
  // that are neither sup/in bookkeeping nor inputs.
  result.answer_facts = cluster.CountFactsMatching(
      [&](const std::string& name) {
        if (name.rfind("in__", 0) == 0) return false;
        if (name.find("sup__") != std::string::npos) return false;
        if (name.find("supall__") != std::string::npos) return false;
        return name.find("__") != std::string::npos;
      });
  result.num_peers = cluster.num_peers();
  result.relation_counts = cluster.RelationCounts();
  CountMetric("dist.solve.total_facts", result.total_facts, engine, "facts");
  CountMetric("dist.solve.answer_facts", result.answer_facts, engine, "facts");
  return result;
}

}  // namespace dqsq::dist
