// Bottom-up evaluation of (d)Datalog programs to a fixpoint, in naive or
// semi-naive mode. Because dDatalog allows function symbols (paper §3), the
// least model may be infinite; evaluation therefore carries budgets
// (rounds, facts, term depth) and either prunes too-deep derivations —
// yielding the depth-bounded fixpoint used by the naive baselines — or
// reports resource exhaustion.
#ifndef DQSQ_DATALOG_EVAL_H_
#define DQSQ_DATALOG_EVAL_H_

#include <cstdint>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/database.h"

namespace dqsq {

struct EvalOptions {
  /// Cap on the passes of one stratum; exceeded => RESOURCE_EXHAUSTED.
  size_t max_rounds = 100000;
  /// Total-fact cap across the database; exceeded => RESOURCE_EXHAUSTED.
  size_t max_facts = 50'000'000;
  /// Ground-term depth cap (0 = unlimited).
  uint32_t max_term_depth = 0;
  enum class DepthPolicy {
    kPrune,  // drop derivations whose head exceeds the depth cap
    kError,  // fail the evaluation instead
  };
  DepthPolicy depth_policy = DepthPolicy::kPrune;
  /// Semi-naive (watermarked) or naive (full re-join each pass).
  bool seminaive = true;
  /// Test hook invoked after each pass's rule visits (before the fixpoint
  /// check), with the layer-local pass number. Raw function
  /// pointer + context so installing it costs no allocation; the
  /// steady-state zero-allocation test keys on this.
  void (*round_hook)(void* ctx, size_t round) = nullptr;
  void* round_hook_ctx = nullptr;
};

/// Per-call evaluation counters: the record of one Evaluate(). Every field
/// but `rule_visits` is published to the registry at the end of the run as
/// `datalog.eval.*{mode}` (docs/METRICS.md); every run publishes its
/// mode's eight metrics, zero-valued or not.
struct EvalStats {
  size_t rounds = 0;         // passes, summed over strata
  size_t facts_derived = 0;  // new facts inserted by this evaluation
  size_t rule_firings = 0;   // successful full body matches
  size_t join_probes = 0;    // candidate rows examined
  size_t depth_pruned = 0;   // derivations dropped by the depth cap
  size_t delta_rows = 0;     // database growth per pass, summed
  size_t rule_visits = 0;    // plan visits: every plan every pass (naive),
                             // the dirty plans (semi-naive)
};

/// Runs `program` over `db` (which already holds the extensional facts)
/// until fixpoint or budget exhaustion. Derived facts are inserted into
/// `db`, keyed by their (predicate, peer) relation id — i.e. evaluation of a
/// distributed program is evaluation of its global translation P^g.
StatusOr<EvalStats> Evaluate(const Program& program, Database& db,
                             const EvalOptions& options);

/// Returns the bindings of `query`'s variables over the current database
/// (one Tuple per match, columns in variable-slot order given by
/// `query_vars`, the sorted distinct variables of the atom).
std::vector<Tuple> Ask(Database& db, const Atom& query, uint32_t num_vars);

}  // namespace dqsq

#endif  // DQSQ_DATALOG_EVAL_H_
