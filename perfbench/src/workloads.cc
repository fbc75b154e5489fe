#include "workloads.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "common/metrics.h"
#include "common/rng.h"
#include "datalog/adornment.h"
#include "datalog/engine.h"
#include "datalog/parser.h"
#include "datalog/pattern.h"
#include "datalog/qsq_rewrite.h"
#include "diagnosis/encoder.h"
#include "diagnosis/supervisor.h"
#include "dist/cluster.h"
#include "dist/dnaive.h"
#include "petri/random_net.h"
#include "petri/verifier.h"

namespace perfbench {

using namespace dqsq;
using diagnosis::DiagnosisEngine;
using diagnosis::Explanation;

// ---- Inputs ---------------------------------------------------------------

std::vector<DiagnosisCase> MakeDiagnosisPool(uint64_t net_seed,
                                             uint64_t run_seed, size_t size,
                                             uint32_t min_firings,
                                             uint32_t max_firings) {
  Rng net_rng(net_seed);
  Rng run_rng(run_seed);
  const uint32_t lengths = max_firings - min_firings + 1;
  std::vector<DiagnosisCase> pool;
  pool.reserve(size);
  while (pool.size() < size) {
    const size_t j = pool.size();
    // The parameters of the diagnosis scaling benchmark (E4).
    petri::RandomNetOptions options;
    options.num_peers = 2 + static_cast<uint32_t>(j % 2);
    options.places_per_peer = 3;
    options.transitions_per_peer = 3;
    options.sync_probability = 0.35;
    options.num_alarm_symbols = 2;
    const uint32_t firings =
        min_firings + static_cast<uint32_t>(j / 2) % lengths;
    DiagnosisCase c{petri::MakeRandomNet(options, net_rng), {}};
    for (int attempt = 0; attempt < 16 && c.observation.empty(); ++attempt) {
      auto run = petri::GenerateRun(c.net, firings, run_rng);
      if (run.ok()) c.observation = std::move(run->observation);
    }
    if (!c.observation.empty()) pool.push_back(std::move(c));
  }
  return pool;
}

std::vector<petri::PetriNet> MakeVerifierPool(uint64_t seed, size_t size) {
  Rng rng(seed);
  std::vector<petri::PetriNet> pool;
  pool.reserve(size);
  for (size_t j = 0; j < size; ++j) {
    // The generator ramp of the E6 diagnosability sweep, indexed by j.
    petri::RandomNetOptions options;
    options.num_peers = 2 + static_cast<uint32_t>(j % 2);
    options.places_per_peer = 3;
    options.transitions_per_peer = 3 + static_cast<uint32_t>(j % 3);
    options.sync_probability = 0.3;
    options.num_alarm_symbols = 1 + static_cast<uint32_t>(j % 3);
    options.hidden_probability = (j % 3 == 0) ? 0.2 : 0.4;
    options.fault_fraction = (j % 3 == 0) ? 0.0 : (j % 3 == 1) ? 0.25 : 0.5;
    pool.push_back(petri::MakeRandomNet(options, rng));
  }
  return pool;
}

std::vector<petri::AlarmSequence> MakeStreamPool(const petri::PetriNet& net,
                                                 size_t size,
                                                 size_t num_firings,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<petri::AlarmSequence> pool;
  std::set<std::string> seen;
  while (pool.size() < size) {
    auto run = petri::GenerateRun(net, num_firings, rng);
    if (!run.ok() || run->observation.empty()) continue;
    if (!seen.insert(petri::AlarmSequenceToString(run->observation)).second) {
      continue;
    }
    pool.push_back(std::move(run->observation));
  }
  return pool;
}

Presentation Present(const petri::PetriNet& net, uint64_t seed) {
  Rng rng(seed);
  Presentation out;
  out.tag.push_back('_');
  for (int i = 0; i < 4; ++i) {
    out.tag.push_back(static_cast<char>('a' + rng.NextBelow(26)));
  }
  // order[i] is the original id added i-th; id[old] its new id.
  auto shuffled = [&](size_t n) {
    std::vector<uint32_t> order(n);
    for (uint32_t i = 0; i < n; ++i) order[i] = i;
    rng.Shuffle(order);
    return order;
  };
  std::vector<uint32_t> peer_id(net.num_peers());
  for (uint32_t old : shuffled(net.num_peers())) {
    peer_id[old] = out.net.AddPeer(net.peer_name(old) + out.tag);
  }
  std::vector<uint32_t> place_id(net.num_places());
  for (uint32_t old : shuffled(net.num_places())) {
    const petri::Place& p = net.place(old);
    place_id[old] = out.net.AddPlace(p.name + out.tag, peer_id[p.peer]);
  }
  auto mapped = [&](const std::vector<petri::PlaceId>& places) {
    std::vector<petri::PlaceId> ids;
    for (petri::PlaceId p : places) ids.push_back(place_id[p]);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  for (uint32_t old : shuffled(net.num_transitions())) {
    const petri::Transition& t = net.transition(old);
    out.net.AddTransition(t.name + out.tag, peer_id[t.peer],
                          t.alarm.empty() ? t.alarm : t.alarm + out.tag,
                          mapped(t.pre), mapped(t.post), t.observable,
                          t.fault);
  }
  std::vector<petri::PlaceId> marked;
  for (petri::PlaceId p = 0; p < net.num_places(); ++p) {
    if (net.initial_marking()[p]) marked.push_back(p);
  }
  out.net.SetInitialMarking(mapped(marked));
  return out;
}

petri::AlarmSequence Presentation::Rename(
    const petri::AlarmSequence& alarms) const {
  petri::AlarmSequence out;
  for (const petri::Alarm& a : alarms) {
    out.push_back(petri::Alarm{a.symbol + tag, a.peer + tag});
  }
  return out;
}

// ---- Layer counters -------------------------------------------------------

EvalCounters EvalCounters::Read() {
  // The names and units under which datalog/eval.cc registers them.
  static const struct Refs {
    Counter* runs[2];
    Counter* rounds[2];
    Counter* facts[2];
    Counter* firings[2];
    Counter* probes[2];
  } refs = [] {
    auto& r = MetricsRegistry::Global();
    Refs out{};
    const char* modes[2] = {"seminaive", "naive"};
    for (int i = 0; i < 2; ++i) {
      Labels mode{{"mode", modes[i]}};
      out.runs[i] = &r.GetCounter("datalog.eval.runs", mode);
      out.rounds[i] = &r.GetCounter("datalog.eval.rounds", mode);
      out.facts[i] = &r.GetCounter("datalog.eval.facts_derived", mode, "facts");
      out.firings[i] = &r.GetCounter("datalog.eval.rule_firings", mode);
      out.probes[i] = &r.GetCounter("datalog.eval.join_probes", mode, "rows");
    }
    return out;
  }();
  EvalCounters c;
  for (int i = 0; i < 2; ++i) {
    c.runs += refs.runs[i]->value();
    c.rounds += refs.rounds[i]->value();
    c.facts += refs.facts[i]->value();
    c.firings += refs.firings[i]->value();
    c.probes += refs.probes[i]->value();
  }
  return c;
}

EvalCounters& EvalCounters::operator+=(const EvalCounters& o) {
  runs += o.runs;
  rounds += o.rounds;
  facts += o.facts;
  firings += o.firings;
  probes += o.probes;
  return *this;
}

EvalCounters operator-(EvalCounters a, const EvalCounters& b) {
  a.runs -= b.runs;
  a.rounds -= b.rounds;
  a.facts -= b.facts;
  a.firings -= b.firings;
  a.probes -= b.probes;
  return a;
}

// ---- Traced pipelines -----------------------------------------------------

namespace {

/// Counts the evaluation work of one operation into `counts`.
class EvalScope {
 public:
  explicit EvalScope(LayerCounts* counts)
      : counts_(counts), start_(EvalCounters::Read()) {}
  EvalScope(const EvalScope&) = delete;
  EvalScope& operator=(const EvalScope&) = delete;
  ~EvalScope() {
    if (counts_ != nullptr) counts_->eval += EvalCounters::Read() - start_;
  }

 private:
  LayerCounts* counts_;
  EvalCounters start_;
};

bool MatchesBase(const std::string& name, const std::string& base) {
  if (name == base) return true;
  const std::string prefix = base + "__";
  return name.size() > prefix.size() &&
         name.compare(0, prefix.size(), prefix) == 0;
}

/// q(z, x) answer rows to canonical explanations, as Diagnose extracts
/// them: group by configuration id, render events, drop the virtual root.
std::vector<Explanation> ExtractExplanations(const std::vector<Tuple>& answers,
                                             const DatalogContext& ctx) {
  SymbolId r_sym;
  const bool has_r = ctx.symbols().Lookup("r", &r_sym);
  std::map<TermId, std::vector<std::string>> by_config;
  for (const Tuple& row : answers) {
    const TermId z = row[0];
    const TermId x = row[1];
    auto& events = by_config[z];
    if (has_r && ctx.arena().IsConstant(x) && ctx.arena().Symbol(x) == r_sym) {
      continue;
    }
    events.push_back(ctx.arena().ToString(x, ctx.symbols()));
  }
  std::vector<Explanation> out;
  for (auto& [z, events] : by_config) {
    Explanation e;
    e.events = std::move(events);
    out.push_back(std::move(e));
  }
  return diagnosis::Canonicalize(std::move(out));
}

/// Theorem 4's node sets: distinct first arguments of every adorned
/// trans/places relation.
void CollectMaterialized(const Database& db, const DatalogContext& ctx,
                         const std::vector<uint32_t>& arities,
                         diagnosis::DiagnosisResult& result) {
  std::set<std::string> events, conditions;
  for (const RelId& rel : db.Relations()) {
    const std::string& name = ctx.PredicateName(rel.pred);
    bool is_trans = false;
    for (uint32_t k : arities) {
      is_trans |= MatchesBase(name, diagnosis::TransPredName(k));
    }
    const bool is_places = MatchesBase(name, "uplaces");
    if (!is_trans && !is_places) continue;
    const Relation* relation = db.Find(rel);
    for (size_t row = 0; row < relation->size(); ++row) {
      (is_trans ? events : conditions)
          .insert(ctx.arena().ToString(relation->Row(row)[0], ctx.symbols()));
    }
  }
  result.trans_facts = events.size();
  result.places_facts = conditions.size();
  result.materialized_events.assign(events.begin(), events.end());
  result.materialized_conditions.assign(conditions.begin(), conditions.end());
}

/// Centralized QSQ: SolveQuery's kQsq branch, one span per call. Returns
/// the answer rows of the query.
StatusOr<std::vector<Tuple>> TracedSolveQsq(const Program& program,
                                            Database& db,
                                            const ParsedQuery& query,
                                            const EvalOptions& options,
                                            Tracer* tracer,
                                            LayerCounts* counts) {
  {
    ScopedSpan span(tracer, "datalog.validate");
    DQSQ_RETURN_IF_ERROR(ValidateProgram(program, db.ctx()));
  }
  Adornment adornment;
  AdornedProgram adorned;
  {
    ScopedSpan span(tracer, "datalog.adorn");
    adornment = QueryAdornment(query.atom);
    DQSQ_ASSIGN_OR_RETURN(adorned,
                          AdornProgram(program, query.atom.rel, adornment));
  }
  RewriteResult rewrite;
  {
    ScopedSpan span(tracer, "datalog.rewrite");
    DQSQ_ASSIGN_OR_RETURN(rewrite, QsqRewrite(adorned, query.atom.rel,
                                              adornment, db.ctx()));
  }
  std::vector<TermId> seed;
  for (size_t i = 0; i < query.atom.args.size(); ++i) {
    if (!adornment[i]) continue;
    seed.push_back(
        GroundPattern(query.atom.args[i], Substitution(), db.ctx().arena()));
  }
  db.Insert(rewrite.input_rel, seed);
  EvalOptions opts = options;
  opts.seminaive = true;
  EvalStats stats;
  {
    ScopedSpan span(tracer, "datalog.eval");
    DQSQ_ASSIGN_OR_RETURN(stats, Evaluate(rewrite.program, db, opts));
  }
  if (counts != nullptr) {
    counts->rewrite_rules += rewrite.program.rules.size();
    counts->rule_rounds += stats.rounds * rewrite.program.rules.size();
  }
  ScopedSpan span(tracer, "datalog.ask");
  return Ask(db, Atom{rewrite.answer_rel, query.atom.args}, query.num_vars);
}

/// DistQsqSolve's loop with a span per SimNetwork::Step. Keeps the
/// safety check of Cluster::RunUntilTermination: the root must detect
/// termination, and the network must then be quiescent.
StatusOr<std::vector<Tuple>> TracedDistQsq(DatalogContext& ctx,
                                           const Program& program,
                                           const ParsedQuery& query,
                                           const dist::DistOptions& options,
                                           Tracer* tracer,
                                           LayerCounts* counts) {
  {
    ScopedSpan span(tracer, "datalog.validate");
    DQSQ_RETURN_IF_ERROR(ValidateProgram(program, ctx));
  }
  std::optional<dist::Cluster> cluster;
  {
    ScopedSpan span(tracer, "dist.cluster_build");
    cluster.emplace(ctx, program, query, options.seed, options.eval,
                    dist::Cluster::Mode::kSourceOnly, options.faults,
                    options.num_shards, options.wire_batch);
    cluster->SeedDemand(dist::SeedDemandMessages(
        ctx, query, cluster->root().id(), dist::Cluster::Mode::kSourceOnly));
  }
  bool terminated = false;
  for (size_t i = 0; i < options.max_network_steps; ++i) {
    if (cluster->root().terminated()) {
      if (!cluster->network().LogicallyQuiescent()) {
        return InternalError(
            "termination detected on a non-quiescent network (safety "
            "violation)");
      }
      cluster->network().RestoreDownPeers();
      terminated = true;
      break;
    }
    const EvalCounters before =
        counts != nullptr ? EvalCounters::Read() : EvalCounters{};
    bool delivered = false;
    {
      ScopedSpan span(tracer, "dist.step");
      DQSQ_ASSIGN_OR_RETURN(delivered, cluster->network().Step());
    }
    if (counts != nullptr) {
      const EvalCounters step = EvalCounters::Read() - before;
      counts->step_eval += step;
      ++counts->dist_steps;
      if (step.runs > 0) ++counts->dist_eval_steps;
    }
    if (!delivered) {
      return InternalError(
          "network quiesced before the root detected termination");
    }
  }
  if (!terminated) {
    return ResourceExhaustedError("network did not terminate within budget");
  }
  if (counts != nullptr) {
    counts->tuples_shipped += cluster->network().stats().tuples_shipped;
    counts->dist_facts += cluster->TotalFacts();
  }
  ScopedSpan span(tracer, "datalog.ask");
  dist::DatalogPeer& owner = cluster->peer(query.atom.rel.peer);
  return Ask(owner.db(),
             dist::AnswerAtom(ctx, query, dist::Cluster::Mode::kSourceOnly),
             query.num_vars);
}

}  // namespace

StatusOr<diagnosis::DiagnosisResult> TracedDiagnose(
    const petri::PetriNet& net, const petri::AlarmSequence& alarms,
    const diagnosis::DiagnosisOptions& options, Tracer* tracer,
    LayerCounts* counts) {
  if (options.engine != DiagnosisEngine::kCentralQsq &&
      options.engine != DiagnosisEngine::kDistQsq) {
    return InvalidArgumentError("traced diagnosis supports central_qsq and "
                                "dist_qsq only");
  }
  EvalScope eval_scope(counts);
  std::map<std::string, diagnosis::AlarmAutomaton> automata;
  for (const auto& [peer, symbols] : petri::SplitByPeer(alarms)) {
    automata[peer] = diagnosis::ChainAutomaton(symbols);
  }
  DatalogContext ctx;
  diagnosis::EncodedNet encoded;
  {
    ScopedSpan span(tracer, "diagnosis.encode");
    DQSQ_ASSIGN_OR_RETURN(encoded, diagnosis::EncodeNet(net, ctx));
  }
  diagnosis::SupervisorProgram sup;
  {
    ScopedSpan span(tracer, "diagnosis.supervisor");
    diagnosis::SupervisorOptions sopts;
    sopts.max_hidden = options.max_hidden;
    DQSQ_ASSIGN_OR_RETURN(
        sup, diagnosis::BuildSupervisor(net, encoded, automata, sopts, ctx));
  }
  Program combined = std::move(encoded.program);
  for (Rule& rule : sup.program.rules) combined.rules.push_back(std::move(rule));

  EvalOptions eopts;
  eopts.max_facts = options.max_facts;
  diagnosis::DiagnosisResult result;
  if (options.engine == DiagnosisEngine::kDistQsq) {
    dist::DistOptions dopts;
    dopts.seed = options.seed;
    dopts.eval = eopts;
    DQSQ_ASSIGN_OR_RETURN(
        std::vector<Tuple> answers,
        TracedDistQsq(ctx, combined, sup.query, dopts, tracer, counts));
    ScopedSpan span(tracer, "diagnosis.extract");
    result.explanations = ExtractExplanations(answers, ctx);
    return result;
  }
  Database db(&ctx);
  DQSQ_ASSIGN_OR_RETURN(
      std::vector<Tuple> answers,
      TracedSolveQsq(combined, db, sup.query, eopts, tracer, counts));
  ScopedSpan span(tracer, "diagnosis.extract");
  result.explanations = ExtractExplanations(answers, ctx);
  result.total_facts = db.TotalFacts();
  CollectMaterialized(db, ctx, encoded.arities, result);
  return result;
}

StatusOr<diagnosis::DiagnosabilityResult> TracedCheckDiagnosability(
    const petri::PetriNet& net, Tracer* tracer, LayerCounts* counts) {
  const diagnosis::DiagnosabilityOptions options;
  EvalScope eval_scope(counts);
  std::optional<petri::VerifierNet> verifier;
  {
    ScopedSpan span(tracer, "petri.verifier_build");
    DQSQ_ASSIGN_OR_RETURN(verifier,
                          petri::VerifierNet::Build(net, options.verifier));
  }
  diagnosis::DiagnosabilityResult result;
  result.verifier_states = verifier->num_states();
  result.verifier_edges = verifier->edges().size();
  diagnosis::VerifierProgramText text;
  {
    ScopedSpan span(tracer, "diagnosis.verifier_text");
    DQSQ_ASSIGN_OR_RETURN(text, diagnosis::BuildVerifierProgramText(*verifier));
  }
  DatalogContext ctx;
  Program program;
  ParsedQuery query;
  {
    ScopedSpan span(tracer, "datalog.parse");
    DQSQ_ASSIGN_OR_RETURN(program, ParseProgram(text.program, ctx));
    DQSQ_ASSIGN_OR_RETURN(query, ParseQuery(text.query, ctx));
  }
  Database db(&ctx);
  const size_t facts_before = db.TotalFacts();
  DQSQ_ASSIGN_OR_RETURN(
      std::vector<Tuple> answers,
      TracedSolveQsq(program, db, query, options.eval, tracer, counts));
  {
    ScopedSpan span(tracer, "diagnosis.extract");
    for (const Tuple& t : answers) {
      result.witness_anchors.push_back(
          ctx.arena().ToString(t[0], ctx.symbols()));
    }
    std::sort(result.witness_anchors.begin(), result.witness_anchors.end());
    result.witness_anchors.erase(std::unique(result.witness_anchors.begin(),
                                             result.witness_anchors.end()),
                                 result.witness_anchors.end());
    result.total_facts = db.TotalFacts() - facts_before;
    result.diagnosable = result.witness_anchors.empty();
  }
  if (result.diagnosable || !options.extract_witness) return result;

  // The lowest-numbered anchor that admits a lasso, replay-checked.
  ScopedSpan span(tracer, "petri.replay");
  std::vector<uint32_t> anchors;
  for (const std::string& name : result.witness_anchors) {
    const uint32_t s = verifier->FindState(name);
    if (s == petri::kInvalidId) {
      return InternalError("unknown witness anchor " + name);
    }
    anchors.push_back(s);
  }
  std::sort(anchors.begin(), anchors.end());
  Status last = InternalError("no witness anchors");
  for (uint32_t anchor : anchors) {
    auto witness = verifier->ExtractWitness(anchor);
    if (!witness.ok()) {
      last = witness.status();
      continue;
    }
    DQSQ_RETURN_IF_ERROR(petri::ReplayWitness(net, *witness));
    result.witness = *std::move(witness);
    return result;
  }
  return last;
}

// ---- Service --------------------------------------------------------------

ClassifiedObserve ObserveClassified(diagnosis::DiagnosisService& service,
                                    const std::string& model,
                                    const std::string& session,
                                    const petri::Alarm& alarm,
                                    Tracer* tracer) {
  const bool resident = service.is_resident(session);
  const SubqueryCache* cache = service.cache(model);
  const uint64_t hits = cache != nullptr ? cache->hits() : 0;
  ScopedSpan span(tracer, "service.observe");
  const int64_t start = NowNs();
  ClassifiedObserve out{service.Observe(session, alarm)};
  out.ns = NowNs() - start;
  const bool hit = cache != nullptr && cache->hits() > hits;
  out.restored = !resident;
  out.cls = !hit      ? ObserveClass::kMiss
            : resident ? ObserveClass::kResidentHit
                       : ObserveClass::kRestoreHit;
  static constexpr const char* kSpanNames[] = {
      "service.observe.resident_hit", "service.observe.restore_hit",
      "service.observe.miss"};
  span.Rename(kSpanNames[static_cast<int>(out.cls)]);
  return out;
}

// ---- Answer comparison ----------------------------------------------------

std::string RenderExplanations(const std::vector<Explanation>& explanations) {
  std::string out;
  for (const Explanation& e : explanations) {
    out += diagnosis::ExplanationToString(e);
    out += "--\n";
  }
  return out;
}

}  // namespace perfbench
