#include "datalog/engine.h"

#include <unordered_set>

#include "common/logging.h"
#include "common/metrics.h"
#include "datalog/adornment.h"
#include "datalog/magic_rewrite.h"
#include "datalog/qsqr.h"

namespace dqsq {

std::string StrategyName(Strategy strategy) {
  switch (strategy) {
    case Strategy::kNaive:
      return "naive";
    case Strategy::kSemiNaive:
      return "seminaive";
    case Strategy::kMagic:
      return "magic";
    case Strategy::kQsq:
      return "qsq";
    case Strategy::kQsqAllVars:
      return "qsq_allvars";
    case Strategy::kQsqIterative:
      return "qsqr";
  }
  return "unknown";
}

size_t CountRelationFacts(const Database& db, const std::string& base) {
  const std::string prefix = base + "__";
  return db.CountFactsMatching([&](const std::string& name) {
    return name == base ||
           (name.size() > prefix.size() &&
            name.compare(0, prefix.size(), prefix) == 0);
  });
}

namespace {

bool IsIdbRel(const Program& program, const RelId& rel) {
  for (const Rule& r : program.rules) {
    if (r.head.rel == rel) return true;
  }
  return false;
}

size_t CountRels(const Database& db, const std::vector<RelId>& rels) {
  size_t total = 0;
  for (const RelId& rel : rels) {
    const Relation* r = db.Find(rel);
    if (r != nullptr) total += r->size();
  }
  return total;
}

}  // namespace

namespace {

// Registry accounting shared by every strategy branch of SolveQuery.
void RecordQueryMetrics(Strategy strategy, const QueryResult& result) {
  auto& registry = MetricsRegistry::Global();
  Labels labels{{"strategy", StrategyName(strategy)}};
  registry.GetCounter("datalog.solve.queries", labels).Increment();
  registry.GetCounter("datalog.solve.answers", labels, "rows")
      .Increment(result.answers.size());
  registry.GetCounter("datalog.solve.derived_facts", labels, "facts")
      .Increment(result.derived_facts);
  registry.GetCounter("datalog.solve.answer_facts", labels, "facts")
      .Increment(result.answer_facts);
  registry.GetCounter("datalog.solve.aux_facts", labels, "facts")
      .Increment(result.aux_facts);
}

}  // namespace

StatusOr<QueryResult> EvaluateRewritten(const RewriteResult& rewrite,
                                        const ParsedQuery& query,
                                        Database& db,
                                        const EvalOptions& options) {
  // Seed the input relation with the query's bound arguments.
  std::vector<TermId> seed;
  for (size_t i = 0; i < query.atom.args.size(); ++i) {
    if (!rewrite.query_adornment[i]) continue;
    seed.push_back(
        GroundPattern(query.atom.args[i], Substitution(), db.ctx().arena()));
  }
  db.Insert(rewrite.input_rel, seed);

  EvalOptions opts = options;
  opts.seminaive = true;
  QueryResult result;
  DQSQ_ASSIGN_OR_RETURN(result.eval, Evaluate(rewrite.program, db, opts));

  result.answers =
      Ask(db, Atom{rewrite.answer_rel, query.atom.args}, query.num_vars);
  return result;
}

StatusOr<QueryResult> SolveQuery(const Program& program, Database& db,
                                 const ParsedQuery& query, Strategy strategy,
                                 const EvalOptions& options) {
  DQSQ_RETURN_IF_ERROR(ValidateProgram(program, db.ctx()));
  ScopedTimer timer(
      TimeMetric("datalog.solve.wall_ns",
                 Labels{{"strategy", StrategyName(strategy)}}));
  QueryResult result;
  const size_t facts_before = db.TotalFacts();

  if (!IsIdbRel(program, query.atom.rel)) {
    // Purely extensional query: nothing to derive.
    result.answers = Ask(db, query.atom, query.num_vars);
    RecordQueryMetrics(strategy, result);
    return result;
  }

  switch (strategy) {
    case Strategy::kQsqIterative: {
      DQSQ_ASSIGN_OR_RETURN(QsqrResult qsqr,
                            QsqrSolve(program, db, query, options));
      result.answers = std::move(qsqr.answers);
      result.derived_facts = db.TotalFacts() - facts_before;
      result.answer_facts = qsqr.answer_facts;
      result.aux_facts = qsqr.input_facts;
      RecordQueryMetrics(strategy, result);
      return result;
    }
    case Strategy::kNaive:
    case Strategy::kSemiNaive: {
      EvalOptions opts = options;
      opts.seminaive = (strategy == Strategy::kSemiNaive);
      DQSQ_ASSIGN_OR_RETURN(result.eval, Evaluate(program, db, opts));
      result.answers = Ask(db, query.atom, query.num_vars);
      result.derived_facts = db.TotalFacts() - facts_before;
      result.answer_facts = CountRels(db, IdbRelations(program));
      result.aux_facts = 0;
      RecordQueryMetrics(strategy, result);
      return result;
    }
    case Strategy::kMagic:
    case Strategy::kQsq:
    case Strategy::kQsqAllVars: {
      for (const Rule& rule : program.rules) {
        if (!rule.negative.empty()) {
          return UnimplementedError(
              "magic/QSQ rewriting supports positive programs only (see "
              "paper Remark 4; negated programs run bottom-up, stratified)");
        }
      }
      Adornment adornment = QueryAdornment(query.atom);
      DQSQ_ASSIGN_OR_RETURN(
          AdornedProgram adorned,
          AdornProgram(program, query.atom.rel, adornment));
      RewriteResult rewrite;
      if (strategy == Strategy::kMagic) {
        DQSQ_ASSIGN_OR_RETURN(
            rewrite, MagicRewrite(adorned, query.atom.rel, adornment,
                                  db.ctx()));
      } else {
        QsqOptions qopts;
        qopts.project_relevant_vars = (strategy == Strategy::kQsq);
        DQSQ_ASSIGN_OR_RETURN(
            rewrite, QsqRewrite(adorned, query.atom.rel, adornment, db.ctx(),
                                qopts));
      }

      DQSQ_ASSIGN_OR_RETURN(result,
                            EvaluateRewritten(rewrite, query, db, options));
      result.derived_facts = db.TotalFacts() - facts_before;

      std::vector<RelId> answer_rels;
      for (const auto& [rel, a] : adorned.call_patterns) {
        PredicateId pred;
        if (db.ctx().LookupPredicate(
                AnswerPredName(db.ctx().PredicateName(rel.pred), a), &pred)) {
          answer_rels.push_back(RelId{pred, rel.peer});
        }
      }
      result.answer_facts = CountRels(db, answer_rels);
      result.aux_facts = result.derived_facts - result.answer_facts;
      RecordQueryMetrics(strategy, result);
      return result;
    }
  }
  return InternalError("unknown strategy");
}

}  // namespace dqsq
