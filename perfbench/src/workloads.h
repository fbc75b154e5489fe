// Inputs, traced pipelines and correctness oracles of the four benchmark
// workloads. The untraced path of every workload is one top-level public
// call (Diagnose, DiagnosisService::Observe, CheckDiagnosability); the
// traced path repeats the same work through the public functions of each
// module with one span per call, and must return the same answers.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "diagnosis/diagnosability.h"
#include "diagnosis/diagnoser.h"
#include "diagnosis/service.h"
#include "petri/alarm.h"
#include "petri/net.h"
#include "trace.h"

namespace perfbench {

// ---- Inputs ---------------------------------------------------------------

/// A random telecom-style net and the observation of a real run of it.
struct DiagnosisCase {
  dqsq::petri::PetriNet net;
  dqsq::petri::AlarmSequence observation;
};

/// `size` cases whose peer count cycles through 2..3 and whose run length
/// cycles through min_firings..max_firings, so every prefix of the pool
/// mixes the sizes evenly. The nets are drawn from `net_seed`, the runs
/// (hence the observations, never empty) from `run_seed`.
std::vector<DiagnosisCase> MakeDiagnosisPool(uint64_t net_seed,
                                             uint64_t run_seed, size_t size,
                                             uint32_t min_firings,
                                             uint32_t max_firings);

/// E6-style fault-labelled random nets: peer count, automaton size, alarm
/// alphabet, hidden and fault densities cycle with the index, so the pool
/// crosses the diagnosable/undiagnosable boundary.
std::vector<dqsq::petri::PetriNet> MakeVerifierPool(uint64_t seed,
                                                    size_t size);

/// `size` distinct non-empty alarm streams from runs of `num_firings`
/// firings of `net`.
std::vector<dqsq::petri::AlarmSequence> MakeStreamPool(
    const dqsq::petri::PetriNet& net, size_t size, size_t num_firings,
    uint64_t seed);

/// One presentation of a plant: the same net with its peers, places and
/// transitions added in a seed-drawn order and every peer, place,
/// transition and alarm name suffixed with a seed-drawn tag. The problem
/// is unchanged up to names, so its size is too; every byte the program
/// sees differs.
struct Presentation {
  dqsq::petri::PetriNet net;
  std::string tag;

  /// `alarms` of the original net, in this presentation's names.
  dqsq::petri::AlarmSequence Rename(
      const dqsq::petri::AlarmSequence& alarms) const;
};

Presentation Present(const dqsq::petri::PetriNet& net, uint64_t seed);

// ---- Layer counters -------------------------------------------------------

/// Sums of the registry's `datalog.eval.*` counters over both modes.
struct EvalCounters {
  uint64_t runs = 0;
  uint64_t rounds = 0;
  uint64_t facts = 0;
  uint64_t firings = 0;
  uint64_t probes = 0;

  static EvalCounters Read();
  EvalCounters& operator+=(const EvalCounters& o);
  friend EvalCounters operator-(EvalCounters a, const EvalCounters& b);
};

/// Work counts accumulated by the traced pipelines.
struct LayerCounts {
  EvalCounters eval;             // every evaluation of the operation
  uint64_t rewrite_rules = 0;    // rules emitted by QsqRewrite
  uint64_t rule_rounds = 0;      // rounds x rules of centralized evaluations
  uint64_t dist_steps = 0;       // SimNetwork::Step calls
  uint64_t dist_eval_steps = 0;  // ... that ran at least one evaluation
  EvalCounters step_eval;        // evaluations inside those steps
  uint64_t tuples_shipped = 0;
  uint64_t dist_facts = 0;       // facts across peers at termination
};

// ---- Traced pipelines -----------------------------------------------------

/// Diagnose() for kCentralQsq or kDistQsq, through EncodeNet,
/// BuildSupervisor, the datalog or dist calls and answer extraction.
/// Spans go to `tracer` and counts to `counts` (either may be null).
/// Fills the explanations and, for kCentralQsq, the fact count and the
/// materialized node sets.
dqsq::StatusOr<dqsq::diagnosis::DiagnosisResult> TracedDiagnose(
    const dqsq::petri::PetriNet& net,
    const dqsq::petri::AlarmSequence& alarms,
    const dqsq::diagnosis::DiagnosisOptions& options, Tracer* tracer,
    LayerCounts* counts);

/// CheckDiagnosability() with the default engine (centralized QSQ),
/// through VerifierNet::Build, BuildVerifierProgramText, the parser, the
/// datalog calls and witness replay.
dqsq::StatusOr<dqsq::diagnosis::DiagnosabilityResult>
TracedCheckDiagnosability(const dqsq::petri::PetriNet& net, Tracer* tracer,
                          LayerCounts* counts);

// ---- Service --------------------------------------------------------------

enum class ObserveClass {
  kResidentHit,  // session was resident, answer came from the prefix cache
  kRestoreHit,   // session was hibernated, answer came from the cache
  kMiss,         // the session's diagnoser evaluated
};

struct ClassifiedObserve {
  dqsq::StatusOr<std::vector<dqsq::diagnosis::Explanation>> result;
  ObserveClass cls = ObserveClass::kMiss;
  /// The session was hibernated before the call.
  bool restored = false;
  /// Duration of the Observe call.
  int64_t ns = 0;
};

/// One DiagnosisService::Observe, classified by is_resident() before the
/// call and by the change in cache(model)->hits(). The call is recorded
/// as a span named "service.observe.<class>".
ClassifiedObserve ObserveClassified(dqsq::diagnosis::DiagnosisService& service,
                                    const std::string& model,
                                    const std::string& session,
                                    const dqsq::petri::Alarm& alarm,
                                    Tracer* tracer);

// ---- Answer comparison ----------------------------------------------------

/// The explanations rendered one per line, for byte-wise comparison.
std::string RenderExplanations(
    const std::vector<dqsq::diagnosis::Explanation>& explanations);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
