// The top-level diagnosis API: one call, six engines. The Datalog engines
// evaluate the §4 program (encoder + supervisor) with the selected
// strategy; kReference and kBfhj are the non-Datalog oracles/baselines of
// §2 and §4.3. Every engine returns the same canonical explanations
// (Theorems 2/3), so engines cross-validate each other; the
// materialization counters quantify Theorem 4 and the E1 experiment.
#ifndef DQSQ_DIAGNOSIS_DIAGNOSER_H_
#define DQSQ_DIAGNOSIS_DIAGNOSER_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/relation.h"
#include "diagnosis/explanation.h"
#include "diagnosis/supervisor.h"
#include "petri/alarm.h"

namespace dqsq::diagnosis {

enum class DiagnosisEngine {
  kReference,        // explicit unfolding + exhaustive matcher (oracle)
  kBfhj,             // product-unfolding baseline of [8]
  kCentralSemiNaive, // whole dDatalog program bottom-up, depth-bounded
  kCentralQsq,       // QSQ rewriting, centralized (the paper's claim)
  kCentralMagic,     // magic-sets comparator
  kDistQsq,          // full dQSQ over the simulated asynchronous network
};

std::string EngineName(DiagnosisEngine engine);

struct DiagnosisOptions {
  DiagnosisEngine engine = DiagnosisEngine::kCentralQsq;
  /// §4.4 hidden transitions: unobservable events allowed per explanation.
  uint32_t max_hidden = 0;
  /// Budgets for the explicit-unfolding engines.
  size_t max_unfolding_events = 50000;
  size_t max_search_steps = 2000000;
  /// Fact budget for the Datalog engines.
  size_t max_facts = 5'000'000;
  /// Term-depth bound for kCentralSemiNaive (0 = derived from the
  /// observation length; the other engines are demand-bounded and need
  /// none).
  uint32_t naive_term_depth = 0;
  /// Network seed for kDistQsq.
  uint64_t seed = 1;
};

struct DiagnosisResult {
  std::vector<Explanation> explanations;
  /// Materialized unfolding events (utrans facts / product events /
  /// explicit events — Theorem 4's measure).
  size_t trans_facts = 0;
  /// Materialized conditions (uplaces facts / product conditions).
  size_t places_facts = 0;
  /// All facts derived (Datalog engines only).
  size_t total_facts = 0;
  /// Network counters (kDistQsq only).
  size_t messages = 0;
  size_t tuples_shipped = 0;
  /// Canonical Skolem terms of the unfolding nodes this engine
  /// materialized (sorted, unique). For kCentralQsq/kCentralMagic these
  /// are the demanded nodes; for kBfhj the projected product unfolding;
  /// for kReference the explicit prefix. Theorem 4 is the statement that
  /// the QSQ and BFHJ sets coincide. (Empty for kDistQsq, which reports
  /// counts only, and for kCentralSemiNaive whose depth-pruned set is not
  /// comparable.)
  std::vector<std::string> materialized_events;
  std::vector<std::string> materialized_conditions;
};

/// Turns the supervisor query's q(z, x) answer rows into canonical
/// explanations: groups by configuration id z, renders each event term and
/// drops the virtual root `r`. Shared with OnlineDiagnoser.
std::vector<Explanation> ExtractExplanations(
    const std::vector<Tuple>& answers, const DatalogContext& ctx);

/// Diagnoses an exact alarm sequence (the paper's §2 problem).
StatusOr<DiagnosisResult> Diagnose(const petri::PetriNet& net,
                                   const petri::AlarmSequence& alarms,
                                   const DiagnosisOptions& options);

/// Diagnoses an alarm-pattern observation (§4.4): per-peer automata over
/// alarm symbols. Supported by the Datalog engines only.
StatusOr<DiagnosisResult> DiagnosePattern(
    const petri::PetriNet& net,
    const std::map<std::string, AlarmAutomaton>& automata,
    const DiagnosisOptions& options);

}  // namespace dqsq::diagnosis

#endif  // DQSQ_DIAGNOSIS_DIAGNOSER_H_
