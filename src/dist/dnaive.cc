#include "dist/dnaive.h"

#include <unordered_set>

#include "common/metrics.h"
#include "dist/cluster.h"
#include "dist/dqsq.h"

namespace dqsq::dist {

namespace {

// The one body of both solvers; they differ only in `mode`.
StatusOr<DistResult> DistSolve(DatalogContext& ctx, const Program& program,
                               const ParsedQuery& query,
                               const DistOptions& options,
                               Cluster::Mode mode) {
  DQSQ_RETURN_IF_ERROR(ValidateProgram(program, ctx));
  DQSQ_RETURN_IF_ERROR(CheckSingleShard(options));
  for (const Rule& rule : program.rules) {
    if (!rule.negative.empty()) {
      return UnimplementedError(
          "distributed evaluation supports positive dDatalog only: global "
          "stratification cannot be enforced per-message (paper Remark 4)");
    }
  }
  Labels engine{
      {"engine", mode == Cluster::Mode::kEvaluate ? "dnaive" : "dqsq"}};
  CountMetric("dist.solve.queries", 1, engine);
  ScopedTimer timer(TimeMetric("dist.solve.wall_ns", engine));
  Cluster cluster(ctx, program, query, options.seed, options.eval, mode,
                  options.faults, /*num_shards=*/1, options.wire_batch);

  // The driver is the root of a Dijkstra-Scholten diffusing computation:
  // it seeds the demand at the query's owner and delivers messages until
  // its own deficit hits zero — no god's-eye view of the channels is
  // needed to know the fixpoint has been reached.
  cluster.SeedDemand(
      SeedDemandMessages(ctx, query, cluster.root().id(), mode));
  DQSQ_RETURN_IF_ERROR(
      cluster.RunUntilTermination(options.max_network_steps));

  DistResult result;
  // RunUntilTermination fails the solve on a safety violation, so reaching
  // this point certifies quiescence at the instant of detection.
  result.quiescent_at_detection = true;
  // The owner is looked up AFTER the run: a live migration mid-evaluation
  // replaces the peer object, and answers live in the replacement.
  DatalogPeer& owner = cluster.peer(query.atom.rel.peer);
  result.answers = Ask(owner.db(), AnswerAtom(ctx, query, mode),
                       query.num_vars);
  result.net_stats = cluster.network().stats();
  result.total_facts = cluster.TotalFacts();
  // Answer facts: dnaive's are in the program's IDB relations, dQSQ's in
  // its adorned-answer relations "X__<adornment>" (not sup/in bookkeeping).
  std::unordered_set<std::string> idb;
  for (const Rule& rule : program.rules) {
    if (!rule.IsFact()) idb.insert(ctx.PredicateName(rule.head.rel.pred));
  }
  result.answer_facts = cluster.CountFactsMatching([&](const std::string& n) {
    if (mode == Cluster::Mode::kEvaluate) return idb.contains(n);
    return n.rfind("in__", 0) != 0 && n.find("sup__") == std::string::npos &&
           n.find("supall__") == std::string::npos &&
           n.find("__") != std::string::npos;
  });
  result.num_peers = cluster.num_peers();
  result.relation_counts = cluster.RelationCounts();
  CountMetric("dist.solve.total_facts", result.total_facts, engine, "facts");
  CountMetric("dist.solve.answer_facts", result.answer_facts, engine, "facts");
  return result;
}

}  // namespace

StatusOr<DistResult> DistNaiveSolve(DatalogContext& ctx,
                                    const Program& program,
                                    const ParsedQuery& query,
                                    const DistOptions& options) {
  return DistSolve(ctx, program, query, options, Cluster::Mode::kEvaluate);
}

StatusOr<DistResult> DistQsqSolve(DatalogContext& ctx, const Program& program,
                                  const ParsedQuery& query,
                                  const DistOptions& options) {
  return DistSolve(ctx, program, query, options, Cluster::Mode::kSourceOnly);
}

}  // namespace dqsq::dist
