// Query answering over a (d)Datalog program with a selectable strategy:
// naive / semi-naive bottom-up over the whole program, or demand-driven
// magic-sets / QSQ evaluation of the rewritten program. The per-strategy
// materialization statistics are the measure behind the paper's
// optimization claims (E1/E2).
#ifndef DQSQ_DATALOG_ENGINE_H_
#define DQSQ_DATALOG_ENGINE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/database.h"
#include "datalog/eval.h"
#include "datalog/parser.h"
#include "datalog/qsq_rewrite.h"

namespace dqsq {

enum class Strategy {
  kNaive,         // bottom-up, full re-join every round
  kSemiNaive,     // bottom-up, delta-driven
  kMagic,         // magic-sets rewriting + semi-naive
  kQsq,           // QSQ rewriting + semi-naive (the paper's §3.1)
  kQsqAllVars,    // QSQ without relevant-variable projection (E7 ablation)
  kQsqIterative,  // top-down recursive QSQR (Vieille's original form)
};

std::string StrategyName(Strategy strategy);

struct QueryResult {
  /// Bindings of the query atom's variables (columns in ascending
  /// variable-slot order), deduplicated and sorted.
  std::vector<Tuple> answers;
  EvalStats eval;
  /// All facts derived by the evaluation (excludes the extensional input).
  size_t derived_facts = 0;
  /// Facts in the (adorned) answer relations — the relation contents a
  /// user of the original program observes.
  size_t answer_facts = 0;
  /// Bookkeeping facts (sup/in/magic relations); 0 for naive strategies.
  size_t aux_facts = 0;
};

/// Answers `query` against `program` + the extensional facts already in
/// `db`. Derived facts are added to `db`; load the facts into a fresh
/// Database when the extensional one must stay clean.
StatusOr<QueryResult> SolveQuery(const Program& program, Database& db,
                                 const ParsedQuery& query, Strategy strategy,
                                 const EvalOptions& options = {});

/// The tail of SolveQuery's magic/QSQ branch: seeds `rewrite.input_rel`
/// with the bound arguments of `query`, evaluates the rewritten program
/// over `db` and asks `rewrite.answer_rel` (fills answers and eval). A
/// rewrite depends only on the call pattern (§3.2), so callers repeating
/// one pattern rewrite once and call this per request.
StatusOr<QueryResult> EvaluateRewritten(const RewriteResult& rewrite,
                                        const ParsedQuery& query,
                                        Database& db,
                                        const EvalOptions& options = {});

/// Counts facts whose predicate is `base` or an adorned variant
/// "base__<adornment>" — materialization of one original relation across
/// strategies.
size_t CountRelationFacts(const Database& db, const std::string& base);

}  // namespace dqsq

#endif  // DQSQ_DATALOG_ENGINE_H_
