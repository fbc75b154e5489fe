#include "dist/dnaive.h"

#include <unordered_set>

#include "common/metrics.h"
#include "dist/cluster.h"

namespace dqsq::dist {

namespace {

// IDB relation names of the original program (for answer-fact accounting).
std::unordered_set<std::string> IdbNames(const Program& program,
                                         const DatalogContext& ctx) {
  std::unordered_set<std::string> names;
  for (const Rule& rule : program.rules) {
    if (!rule.IsFact()) names.insert(ctx.PredicateName(rule.head.rel.pred));
  }
  return names;
}

}  // namespace

StatusOr<DistResult> DistNaiveSolve(DatalogContext& ctx,
                                    const Program& program,
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
  Labels engine{{"engine", "dnaive"}};
  CountMetric("dist.solve.queries", 1, engine);
  ScopedTimer timer(TimeMetric("dist.solve.wall_ns", engine));
  Cluster cluster(ctx, program, query, options.seed, options.eval,
                  Cluster::Mode::kEvaluate, options.faults,
                  /*num_shards=*/1, options.wire_batch);

  // The driver seeds the computation as the root of a Dijkstra-Scholten
  // diffusing computation: it sends the activation request and then just
  // delivers messages until its own deficit hits zero — no god's-eye view
  // of the channels is needed to know the fixpoint has been reached.
  cluster.SeedDemand(SeedDemandMessages(ctx, query, cluster.root().id(),
                                        Cluster::Mode::kEvaluate));
  DQSQ_RETURN_IF_ERROR(
      cluster.RunUntilTermination(options.max_network_steps));

  DistResult result;
  // RunUntilTermination fails the solve on a safety violation, so reaching
  // this point certifies quiescence at the instant of detection.
  result.quiescent_at_detection = true;
  // The owner is looked up AFTER the run: a live migration mid-evaluation
  // replaces the peer object, and answers live in the replacement.
  DatalogPeer& owner = cluster.peer(query.atom.rel.peer);
  result.answers = Ask(owner.db(), query.atom, query.num_vars);
  result.net_stats = cluster.network().stats();
  result.total_facts = cluster.TotalFacts();
  auto idb = IdbNames(program, ctx);
  result.answer_facts = cluster.CountFactsMatching(
      [&](const std::string& name) { return idb.contains(name); });
  result.num_peers = cluster.num_peers();
  result.relation_counts = cluster.RelationCounts();
  CountMetric("dist.solve.total_facts", result.total_facts, engine, "facts");
  CountMetric("dist.solve.answer_facts", result.answer_facts, engine, "facts");
  return result;
}

}  // namespace dqsq::dist
