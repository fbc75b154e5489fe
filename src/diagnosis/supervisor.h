// The supervisor's dDatalog program (paper §4.2), generalized over alarm
// automata (§4.4): the plain diagnosis problem is the special case where
// each peer's automaton is the chain spelling its alarm subsequence. The
// supervisor builds its rules from its own view only — the observation and
// the per-transition interface facts — and pulls unfolding nodes from the
// peers on demand.
//
// Relations at the supervisor peer:
//   cfgp(z, z', x, i_1..i_m [, h])  configPrefixes: configuration id z
//       extends z' with event x; i_j is peer j's automaton state; h counts
//       hidden events used (present only with hidden-transition support).
//   inconf(z, x)                    transInConf
//   notparent(z, m)                 condition m unconsumed in z
//   aedge_<peer>(s, a, s')          the peer's alarm automaton edges
//   aaccept_<peer>(s)               accepting states
//   q(z, x)                         the diagnosis query relation
//   q(z, x, f_1..f_m)               its open-automata form: the automaton
//       positions are arguments, bound per call (online diagnosis)
//
// Configuration ids are Skolem chains h(z, x) rooted at h(r).
#ifndef DQSQ_DIAGNOSIS_SUPERVISOR_H_
#define DQSQ_DIAGNOSIS_SUPERVISOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "datalog/parser.h"
#include "diagnosis/encoder.h"
#include "petri/alarm.h"

namespace dqsq::diagnosis {

/// A finite automaton over alarm symbols for one peer (states are dense
/// 0-based; 0 is initial).
struct AlarmAutomaton {
  struct Edge {
    uint32_t from;
    std::string symbol;
    uint32_t to;
  };
  uint32_t num_states = 1;
  std::vector<Edge> edges;
  std::vector<uint32_t> accepting;  // must be non-empty to ever answer
};

/// The chain automaton of an exact subsequence (the base problem of §2).
AlarmAutomaton ChainAutomaton(const std::vector<std::string>& symbols);

struct SupervisorOptions {
  std::string supervisor_peer = "sup0";
  /// Hidden-transition support (§4.4): unobservable transitions may extend
  /// configurations without consuming automaton edges, up to this many per
  /// configuration. 0 disables the machinery entirely.
  uint32_t max_hidden = 0;
  /// Open automata (online diagnosis): generate extension rules for every
  /// observable transition of peers present in `automata`, even when the
  /// automaton does not (yet) mention their alarm symbol — edges arrive
  /// later as facts. Accepting states are then ignored: the query is
  /// q(Z, X, F0..F{m-1}), whose automaton positions the caller binds.
  bool open_automata = false;
};

struct SupervisorProgram {
  Program program;       // supervisor rules + automaton facts
  ParsedQuery query;     // q@sup0(Z, X), or q@sup0(Z, X, F0..) if open
  SymbolId supervisor;   // the supervisor's peer symbol
  /// Index positions of the cfgp relation, in order (sorted peer names).
  std::vector<std::string> observed_peers;
  /// Arity of the cfgp relation (3 + observed_peers + hidden column).
  uint32_t cfgp_arity = 0;
};

/// Builds the supervisor program for per-peer automata. Keys of `automata`
/// are peer names of `net`; peers absent from the map must stay silent
/// (their observable transitions cannot fire).
StatusOr<SupervisorProgram> BuildSupervisor(
    const petri::PetriNet& net, const EncodedNet& encoded,
    const std::map<std::string, AlarmAutomaton>& automata,
    const SupervisorOptions& options, DatalogContext& ctx);

/// Convenience: the §2 problem — an exact alarm sequence.
StatusOr<SupervisorProgram> BuildSupervisorForSequence(
    const petri::PetriNet& net, const EncodedNet& encoded,
    const petri::AlarmSequence& alarms, const SupervisorOptions& options,
    DatalogContext& ctx);

}  // namespace dqsq::diagnosis

#endif  // DQSQ_DIAGNOSIS_SUPERVISOR_H_
