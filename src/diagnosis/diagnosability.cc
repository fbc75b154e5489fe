#include "diagnosis/diagnosability.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "datalog/database.h"
#include "datalog/engine.h"
#include "datalog/parser.h"
#include "dist/dnaive.h"
#include "dist/dqsq.h"

namespace dqsq::diagnosis {

namespace {

using petri::AmbiguousWitness;
using petri::Marking;
using petri::PeerIndex;
using petri::VerifierEdge;
using petri::VerifierNet;

std::string PeerName(PeerIndex peer) {
  return "p" + std::to_string(peer);
}

/// Renders one located fact "rel@peer(a, b)." — program-text form.
void AppendFact(std::string& out, const std::string& rel,
                const std::string& peer, const std::string& a,
                const std::string& b = "") {
  out += rel;
  out += '@';
  out += peer;
  out += '(';
  out += a;
  if (!b.empty()) {
    out += ", ";
    out += b;
  }
  out += ").\n";
}

/// Sorted anchor constants of the answer tuples ("v12").
std::vector<std::string> AnchorStrings(const std::vector<Tuple>& answers,
                                       const DatalogContext& ctx) {
  std::vector<std::string> out;
  out.reserve(answers.size());
  for (const Tuple& t : answers) {
    DQSQ_CHECK(t.size() == 1);
    out.push_back(ctx.arena().ToString(t[0], ctx.symbols()));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Maps an oracle witness into VerifierNet state numbering by replaying
/// its prefix through the token game: the two constructions intern states
/// in different orders (BFS discovery vs ordered-map), so the anchor id
/// must be recovered from the anchor's (left, right, fault) content.
StatusOr<uint32_t> TranslateAnchor(const petri::PetriNet& net,
                                   const VerifierNet& verifier,
                                   const AmbiguousWitness& witness) {
  Marking left = net.initial_marking();
  Marking right = net.initial_marking();
  bool fault = false;
  for (const petri::VerifierStep& step : witness.prefix) {
    if (step.move != petri::VerifierMove::kRight) {
      DQSQ_ASSIGN_OR_RETURN(left, net.Fire(left, step.left));
      fault = fault || net.transition(step.left).fault;
    }
    if (step.move != petri::VerifierMove::kLeft) {
      DQSQ_ASSIGN_OR_RETURN(right, net.Fire(right, step.right));
    }
  }
  for (uint32_t s = 0; s < verifier.num_states(); ++s) {
    const petri::VerifierState& v = verifier.state(s);
    if (v.fault == fault && v.left == left && v.right == right) return s;
  }
  return NotFoundError("oracle witness anchor has no VerifierNet state");
}

/// Picks the lowest-numbered anchor that admits a cycle, extracts its
/// lasso and replay-checks it — every "not diagnosable" verdict leaves
/// this function with a machine-validated counterexample or an error.
Status AttachWitness(const petri::PetriNet& net, const VerifierNet& verifier,
                     DiagnosabilityResult& result) {
  std::vector<uint32_t> anchors;
  for (const std::string& name : result.witness_anchors) {
    uint32_t s = verifier.FindState(name);
    if (s == petri::kInvalidId) {
      return InternalError("unknown witness anchor " + name);
    }
    anchors.push_back(s);
  }
  std::sort(anchors.begin(), anchors.end());
  Status last = InternalError("no witness anchors");
  for (uint32_t anchor : anchors) {
    auto witness = verifier.ExtractWitness(anchor);
    if (!witness.ok()) {
      last = witness.status();
      continue;
    }
    DQSQ_RETURN_IF_ERROR(petri::ReplayWitness(net, *witness));
    result.witness = *std::move(witness);
    return Status::Ok();
  }
  return last;
}

void RecordMetrics(const DiagnosabilityResult& result,
                   DiagnosabilityEngine engine) {
  auto& registry = MetricsRegistry::Global();
  Labels labels{{"engine", DiagnosabilityEngineName(engine)}};
  registry.GetCounter("diag.verify.runs", labels).Increment();
  registry
      .GetCounter(result.diagnosable ? "diag.verify.diagnosable"
                                     : "diag.verify.undiagnosable",
                  labels)
      .Increment();
  registry.GetCounter("diag.verify.states", labels, "states")
      .Increment(result.verifier_states);
  registry.GetCounter("diag.verify.edges", labels, "edges")
      .Increment(result.verifier_edges);
  registry.GetCounter("diag.verify.facts", labels, "facts")
      .Increment(result.total_facts);
}

}  // namespace

std::string DiagnosabilityEngineName(DiagnosabilityEngine engine) {
  switch (engine) {
    case DiagnosabilityEngine::kReference:
      return "reference";
    case DiagnosabilityEngine::kCentralSemiNaive:
      return "seminaive";
    case DiagnosabilityEngine::kCentralQsq:
      return "qsq";
    case DiagnosabilityEngine::kDistNaive:
      return "dnaive";
    case DiagnosabilityEngine::kDistQsq:
      return "dqsq";
  }
  return "unknown";
}

StatusOr<VerifierProgramText> BuildVerifierProgramText(
    const VerifierNet& verifier) {
  VerifierProgramText out;
  out.query = "witness@ver0(X)";

  // Facts, deduplicated (distinct transitions can induce the same verifier
  // edge at the same peer) and emitted in sorted order so the rendered
  // text is a deterministic function of the verifier graph.
  std::set<std::pair<PeerIndex, std::pair<uint32_t, uint32_t>>> edge_facts,
      aedge_facts, fmove_facts;
  for (const VerifierEdge& e : verifier.edges()) {
    auto key = std::make_pair(e.peer, std::make_pair(e.from, e.to));
    edge_facts.insert(key);
    if (verifier.ambiguous(e.from)) {
      aedge_facts.insert(key);
      if (e.AdvancesFaultyCopy()) fmove_facts.insert(key);
    }
  }

  std::string& text = out.program;
  text += "% Twin-plant verifier reachability (diagnosis/diagnosability.h).\n";
  AppendFact(text, "init", "ver0",
             VerifierNet::StateName(verifier.initial_state()));
  auto emit = [&](const char* rel, const auto& facts) {
    for (const auto& [peer, ft] : facts) {
      AppendFact(text, rel, PeerName(peer), VerifierNet::StateName(ft.first),
                 VerifierNet::StateName(ft.second));
    }
  };
  emit("edge", edge_facts);
  emit("aedge", aedge_facts);
  emit("fmove", fmove_facts);

  // Owners: the peers holding verifier edges. An edge-free verifier (a net
  // with nothing enabled) still needs every intensional predicate defined,
  // so ver0 stands in as the sole owner.
  std::set<PeerIndex> owner_set;
  for (const auto& [peer, ft] : edge_facts) owner_set.insert(peer);
  std::vector<std::string> owners;
  for (PeerIndex peer : owner_set) owners.push_back(PeerName(peer));
  if (owners.empty()) owners.push_back("ver0");
  // reach facts feeding a rule body can live at any owner or at ver0
  // (init's home), so body atoms range over owners ∪ {ver0}.
  std::vector<std::string> sources = owners;
  sources.push_back("ver0");
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());

  text += "reach@ver0(X) :- init@ver0(X).\n";
  for (const std::string& p : owners) {
    for (const std::string& q : sources) {
      text += "reach@" + p + "(Y) :- reach@" + q + "(X), edge@" + p +
              "(X, Y).\n";
    }
  }
  for (const std::string& p : owners) {
    for (const std::string& q : sources) {
      text += "seed@" + p + "(X, Y) :- reach@" + q + "(X), fmove@" + p +
              "(X, Y).\n";
    }
  }
  for (const std::string& p : owners) {
    text += "walk@" + p + "(X, Y) :- seed@" + p + "(X, Y).\n";
    for (const std::string& q : owners) {
      text += "walk@" + p + "(X, Z) :- walk@" + q + "(X, Y), aedge@" + p +
              "(Y, Z).\n";
    }
  }
  for (const std::string& q : owners) {
    text += "witness@ver0(X) :- walk@" + q + "(X, X).\n";
  }
  return out;
}

StatusOr<DiagnosabilityResult> CheckDiagnosability(
    const petri::PetriNet& net, const DiagnosabilityOptions& options) {
  DQSQ_ASSIGN_OR_RETURN(VerifierNet verifier,
                        VerifierNet::Build(net, options.verifier));
  DiagnosabilityResult result;
  result.verifier_states = verifier.num_states();
  result.verifier_edges = verifier.edges().size();

  if (options.engine == DiagnosabilityEngine::kReference) {
    petri::ReferenceVerifierOptions ref_options;
    ref_options.max_states = options.verifier.max_states;
    DQSQ_ASSIGN_OR_RETURN(petri::ReferenceVerifierResult ref,
                          petri::ReferenceDiagnosability(net, ref_options));
    result.diagnosable = ref.diagnosable;
    if (!ref.diagnosable) {
      DQSQ_CHECK(ref.witness.has_value());
      DQSQ_ASSIGN_OR_RETURN(uint32_t anchor,
                            TranslateAnchor(net, verifier, *ref.witness));
      result.witness_anchors.push_back(VerifierNet::StateName(anchor));
      if (options.extract_witness) {
        AmbiguousWitness witness = *ref.witness;
        witness.anchor = anchor;
        DQSQ_RETURN_IF_ERROR(petri::ReplayWitness(net, witness));
        result.witness = std::move(witness);
      }
    }
    RecordMetrics(result, options.engine);
    return result;
  }

  DQSQ_ASSIGN_OR_RETURN(VerifierProgramText text,
                        BuildVerifierProgramText(verifier));
  DatalogContext ctx;
  DQSQ_ASSIGN_OR_RETURN(Program program, ParseProgram(text.program, ctx));
  DQSQ_ASSIGN_OR_RETURN(ParsedQuery query, ParseQuery(text.query, ctx));

  switch (options.engine) {
    case DiagnosabilityEngine::kCentralSemiNaive:
    case DiagnosabilityEngine::kCentralQsq: {
      Strategy strategy =
          options.engine == DiagnosabilityEngine::kCentralSemiNaive
              ? Strategy::kSemiNaive
              : Strategy::kQsq;
      Database db(&ctx);
      DQSQ_ASSIGN_OR_RETURN(
          QueryResult solved,
          SolveQuery(program, db, query, strategy, options.eval));
      result.witness_anchors = AnchorStrings(solved.answers, ctx);
      result.total_facts = solved.derived_facts;
      break;
    }
    case DiagnosabilityEngine::kDistNaive:
    case DiagnosabilityEngine::kDistQsq: {
      dist::DistOptions dist_options;
      dist_options.seed = options.seed;
      dist_options.eval = options.eval;
      dist_options.max_network_steps = options.max_network_steps;
      DQSQ_ASSIGN_OR_RETURN(
          dist::DistResult solved,
          options.engine == DiagnosabilityEngine::kDistNaive
              ? dist::DistNaiveSolve(ctx, program, query, dist_options)
              : dist::DistQsqSolve(ctx, program, query, dist_options));
      result.witness_anchors = AnchorStrings(solved.answers, ctx);
      result.total_facts = solved.total_facts;
      result.messages = solved.net_stats.messages_delivered;
      result.tuples_shipped = solved.net_stats.tuples_shipped;
      break;
    }
    case DiagnosabilityEngine::kReference:
      return InternalError("unreachable");
  }

  result.diagnosable = result.witness_anchors.empty();
  if (!result.diagnosable && options.extract_witness) {
    DQSQ_RETURN_IF_ERROR(AttachWitness(net, verifier, result));
  }
  RecordMetrics(result, options.engine);
  return result;
}

}  // namespace dqsq::diagnosis
