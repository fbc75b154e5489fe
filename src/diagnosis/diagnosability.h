// Diagnosability as Datalog reachability (ROADMAP item 4). The twin-plant
// verifier graph (petri/verifier.h) turns "is every fault detectable?"
// into "is an ambiguous state with a faulty-copy-advancing cycle
// reachable?" — which is reachability, exactly the shape the paper's
// Datalog/QSQ machinery answers. This layer emits the search as a
// dDatalog program whose relations are placed per peer of the factored
// system (each verifier edge lives at the peer of the transition that
// fires it, as the cited distributed-diagnosability papers propose), so
// one program text drives four engines:
//
//   centralized semi-naive          (bottom-up over the whole program)
//   centralized QSQ                 (demand-driven rewriting)
//   distributed naive   over Cluster/SimNetwork (and the real wire via
//   distributed QSQ                  cluster_main --workload=diag)
//
// Relations (ver0 is the driver's peer, p ranges over edge-owning peers):
//   edge@p(S, S')    verifier edge fired by a transition of p
//   aedge@p(S, S')   edge leaving an ambiguous state (fault flag set)
//   fmove@p(S, S')   ambiguous edge that advances the faulty copy
//   init@ver0(S)     the initial twin state
//   reach@p(S)       S reachable from init
//   seed@p(X, Y)     reachable ambiguous X with fault-advancing edge to Y
//   walk@p(X, Y)     Y reachable from X's seed within the ambiguous region
//   witness@ver0(X)  walk(X, X): an ambiguous cycle anchored at X
//
// The plant is diagnosable iff witness is empty. Every engine returns the
// same anchor set (compared byte for byte by the tests); the C++ layer
// then extracts an ambiguous lasso for one anchor and replays it through
// the token game (petri::ReplayWitness) so every "not diagnosable"
// verdict ships a machine-checked counterexample.
#ifndef DQSQ_DIAGNOSIS_DIAGNOSABILITY_H_
#define DQSQ_DIAGNOSIS_DIAGNOSABILITY_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/eval.h"
#include "petri/reference_verifier.h"
#include "petri/verifier.h"

namespace dqsq::diagnosis {

enum class DiagnosabilityEngine {
  kReference,         // brute-force twin-plant oracle (no Datalog)
  kCentralSemiNaive,  // bottom-up fixpoint of the verifier program
  kCentralQsq,        // QSQ rewriting, centralized
  kDistNaive,         // distributed naive over the simulated cluster
  kDistQsq,           // distributed QSQ over the simulated cluster
};

std::string DiagnosabilityEngineName(DiagnosabilityEngine engine);

struct DiagnosabilityOptions {
  DiagnosabilityEngine engine = DiagnosabilityEngine::kCentralQsq;
  petri::VerifierOptions verifier;
  /// Budgets for the Datalog engines.
  EvalOptions eval;
  /// Network seed / step budget for the distributed engines.
  uint64_t seed = 1;
  size_t max_network_steps = 2'000'000;
  /// Extract + replay-check an ambiguous lasso when not diagnosable.
  bool extract_witness = true;
};

struct DiagnosabilityResult {
  bool diagnosable = true;
  /// Sorted witness-anchor constants ("v12"); empty iff diagnosable.
  /// Engine-independent, so runs cross-validate byte for byte. The
  /// reference oracle reports at most one anchor (its witness's), which
  /// is always a member of the Datalog engines' set.
  std::vector<std::string> witness_anchors;
  /// A replay-checked ambiguous lasso (set when not diagnosable and
  /// extract_witness is on).
  std::optional<petri::AmbiguousWitness> witness;
  size_t verifier_states = 0;
  size_t verifier_edges = 0;
  /// Facts materialized (Datalog engines only).
  size_t total_facts = 0;
  /// Network counters (distributed engines only).
  size_t messages = 0;
  size_t tuples_shipped = 0;
};

/// Decides diagnosability of `net` with the selected engine.
StatusOr<DiagnosabilityResult> CheckDiagnosability(
    const petri::PetriNet& net, const DiagnosabilityOptions& options = {});

/// The verifier program rendered as parseable dDatalog text plus its query
/// ("witness@ver0(X)"). Text so the multi-process cluster runner can ship
/// it over the kStart control frame — the simulated and real-wire runs
/// then evaluate byte-identical programs.
struct VerifierProgramText {
  std::string program;
  std::string query;
};
StatusOr<VerifierProgramText> BuildVerifierProgramText(
    const petri::VerifierNet& verifier);

}  // namespace dqsq::diagnosis

#endif  // DQSQ_DIAGNOSIS_DIAGNOSABILITY_H_
