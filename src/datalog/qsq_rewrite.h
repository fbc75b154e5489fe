// The Query-Sub-Query rewriting (paper §3.1, Fig. 4). For each adorned rule
// it introduces a chain of supplementary relations sup_{r,0..n} holding the
// bindings relevant at each body position, an input relation in_R^a feeding
// bound arguments into the rules of R^a, and an answer relation R^a. The
// rewritten program is evaluated bottom-up (semi-naive): the in_/sup_ flow
// realizes the top-down propagation of bindings, so only demanded facts
// materialize.
//
// Distribution (paper §3.2, Fig. 5) is purely a matter of relation
// placement: sup_{r,j} is located at the peer of body atom j+1 so each
// rewritten rule joins relations of a single peer, and a rule whose head
// lives elsewhere models the shipped "remainder" of rule (†). The rewriting
// of a rule uses only that rule — each peer can rewrite its own rules with
// local knowledge, which is the paper's dQSQ locality claim.
#ifndef DQSQ_DATALOG_QSQ_REWRITE_H_
#define DQSQ_DATALOG_QSQ_REWRITE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/adornment.h"
#include "datalog/ast.h"

namespace dqsq {

struct RewriteResult {
  Program program;
  /// Answer relation of the query's call pattern (e.g. R^bf@p).
  RelId answer_rel;
  /// Input relation to seed with the query's bound arguments (in_R^bf@p).
  RelId input_rel;
  /// Adornment of the query call pattern.
  Adornment query_adornment;
};

struct QsqOptions {
  /// Keep only variables needed later in supplementary relations (the
  /// paper's minimal sup schema). Disabling keeps every bound variable —
  /// used by the E7 ablation.
  bool project_relevant_vars = true;
  /// Place supplementary relations distribution-aware (dQSQ, Fig. 5):
  /// sup_{r,j} at the peer of body atom j+1. When false, every generated
  /// relation lives at the head's peer (centralized QSQ on P_local).
  bool distribute_sups = true;
  /// Prefix for generated sup-relation names. Peers doing local rewriting
  /// pass a peer-unique prefix so their rule indices cannot collide.
  std::string sup_prefix;
};

/// Rewrites `adorned` (produced by AdornProgram for the query call pattern
/// (query_rel, query_adornment)) into the QSQ program. Like AdornProgram,
/// it expects the rules of a validated program (variable slots below
/// num_vars).
StatusOr<RewriteResult> QsqRewrite(const AdornedProgram& adorned,
                                   const RelId& query_rel,
                                   const Adornment& query_adornment,
                                   DatalogContext& ctx,
                                   const QsqOptions& options = {});

/// Name of the adorned answer relation for (rel, adornment), e.g. "R__bf".
std::string AnswerPredName(const std::string& base, const Adornment& a);

/// Name of the input relation, e.g. "in__R__bf".
std::string InputPredName(const std::string& base, const Adornment& a);

}  // namespace dqsq

#endif  // DQSQ_DATALOG_QSQ_REWRITE_H_
