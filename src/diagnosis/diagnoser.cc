#include "diagnosis/diagnoser.h"

#include <map>
#include <set>

#include "common/logging.h"
#include "common/metrics.h"
#include "datalog/engine.h"
#include "diagnosis/encoder.h"
#include "dist/dqsq.h"
#include "petri/bfhj.h"
#include "petri/reference_diagnoser.h"
#include "petri/unfolding.h"

namespace dqsq::diagnosis {

std::string EngineName(DiagnosisEngine engine) {
  switch (engine) {
    case DiagnosisEngine::kReference:
      return "reference";
    case DiagnosisEngine::kBfhj:
      return "bfhj";
    case DiagnosisEngine::kCentralSemiNaive:
      return "central_seminaive";
    case DiagnosisEngine::kCentralQsq:
      return "central_qsq";
    case DiagnosisEngine::kCentralMagic:
      return "central_magic";
    case DiagnosisEngine::kDistQsq:
      return "dist_qsq";
  }
  return "unknown";
}

std::vector<Explanation> ExtractExplanations(
    const std::vector<Tuple>& answers, const DatalogContext& ctx) {
  SymbolId r_sym;
  bool has_r = ctx.symbols().Lookup("r", &r_sym);
  std::map<TermId, std::vector<std::string>> by_config;
  for (const Tuple& row : answers) {
    DQSQ_CHECK_EQ(row.size(), 2u);
    TermId z = row[0];
    TermId x = row[1];
    auto& events = by_config[z];  // creates entries for empty configs too
    if (has_r && ctx.arena().IsConstant(x) && ctx.arena().Symbol(x) == r_sym) {
      continue;  // the virtual root is not an event
    }
    events.push_back(ctx.arena().ToString(x, ctx.symbols()));
  }
  std::vector<Explanation> out;
  for (auto& [z, events] : by_config) {
    out.push_back(Explanation{std::move(events)});
  }
  return Canonicalize(std::move(out));
}

namespace {

bool MatchesBase(const std::string& name, const std::string& base) {
  if (name == base) return true;
  const std::string prefix = base + "__";
  return name.size() > prefix.size() &&
         name.compare(0, prefix.size(), prefix) == 0;
}

struct DatalogSetup {
  DatalogContext ctx;
  Program combined;
  ParsedQuery query;
  std::vector<uint32_t> arities;
};

Status Prepare(const petri::PetriNet& net,
               const std::map<std::string, AlarmAutomaton>& automata,
               const DiagnosisOptions& options, DatalogSetup& setup) {
  DQSQ_ASSIGN_OR_RETURN(EncodedNet encoded, EncodeNet(net, setup.ctx));
  SupervisorOptions sopts;
  sopts.max_hidden = options.max_hidden;
  DQSQ_ASSIGN_OR_RETURN(
      SupervisorProgram sup,
      BuildSupervisor(net, encoded, automata, sopts, setup.ctx));
  setup.combined = std::move(encoded.program);
  for (Rule& rule : sup.program.rules) {
    setup.combined.rules.push_back(std::move(rule));
  }
  setup.query = std::move(sup.query);
  setup.arities = encoded.arities;
  return Status::Ok();
}

StatusOr<DiagnosisResult> RunDatalog(
    const petri::PetriNet& net,
    const std::map<std::string, AlarmAutomaton>& automata,
    const DiagnosisOptions& options, uint32_t depth_hint) {
  DatalogSetup setup;
  DQSQ_RETURN_IF_ERROR(Prepare(net, automata, options, setup));

  DiagnosisResult result;
  EvalOptions eopts;
  eopts.max_facts = options.max_facts;

  if (options.engine == DiagnosisEngine::kDistQsq) {
    dist::DistOptions dopts;
    dopts.seed = options.seed;
    dopts.eval = eopts;
    DQSQ_ASSIGN_OR_RETURN(
        dist::DistResult dres,
        dist::DistQsqSolve(setup.ctx, setup.combined, setup.query, dopts));
    result.explanations = ExtractExplanations(dres.answers, setup.ctx);
    result.total_facts = dres.total_facts;
    result.messages = dres.net_stats.messages_delivered;
    result.tuples_shipped = dres.net_stats.tuples_shipped;
    for (const auto& [name, count] : dres.relation_counts) {
      for (uint32_t k : setup.arities) {
        if (MatchesBase(name, TransPredName(k))) result.trans_facts += count;
      }
      if (MatchesBase(name, "uplaces")) result.places_facts += count;
    }
    return result;
  }

  Strategy strategy;
  switch (options.engine) {
    case DiagnosisEngine::kCentralSemiNaive: {
      strategy = Strategy::kSemiNaive;
      uint32_t depth = options.naive_term_depth;
      if (depth == 0) {
        if (depth_hint == 0) {
          return InvalidArgumentError(
              "central_seminaive needs naive_term_depth for pattern "
              "observations (the unfolding program is infinite)");
        }
        depth = depth_hint;
      }
      eopts.max_term_depth = depth;
      eopts.depth_policy = EvalOptions::DepthPolicy::kPrune;
      break;
    }
    case DiagnosisEngine::kCentralQsq:
      strategy = Strategy::kQsq;
      break;
    case DiagnosisEngine::kCentralMagic:
      strategy = Strategy::kMagic;
      break;
    default:
      return InternalError("unexpected engine");
  }

  Database db(&setup.ctx);
  DQSQ_ASSIGN_OR_RETURN(
      QueryResult qres,
      SolveQuery(setup.combined, db, setup.query, strategy, eopts));
  result.explanations = ExtractExplanations(qres.answers, setup.ctx);
  result.total_facts = db.TotalFacts();

  // The materialized unfolding nodes (Theorem 4's set): distinct first
  // arguments of the trans/places relations across all adorned variants —
  // the same node demanded under two binding patterns is still one node.
  {
    std::set<std::string> events, conditions;
    for (const RelId& rel : db.Relations()) {
      const std::string& name = setup.ctx.PredicateName(rel.pred);
      bool is_trans = false;
      for (uint32_t k : setup.arities) {
        is_trans |= MatchesBase(name, TransPredName(k));
      }
      bool is_places = MatchesBase(name, "uplaces");
      if (!is_trans && !is_places) continue;
      const Relation* relation = db.Find(rel);
      for (size_t row = 0; row < relation->size(); ++row) {
        std::string term = setup.ctx.arena().ToString(relation->At(row, 0),
                                                      setup.ctx.symbols());
        (is_trans ? events : conditions).insert(std::move(term));
      }
    }
    result.trans_facts = events.size();
    result.places_facts = conditions.size();
    result.materialized_events.assign(events.begin(), events.end());
    result.materialized_conditions.assign(conditions.begin(),
                                          conditions.end());
  }
  return result;
}

// Per-engine result accounting (diagnosis.* in docs/METRICS.md).
void RecordDiagnosisMetrics(DiagnosisEngine engine,
                            const DiagnosisResult& result) {
  auto& registry = MetricsRegistry::Global();
  Labels labels{{"engine", EngineName(engine)}};
  registry.GetCounter("diagnosis.runs", labels).Increment();
  registry.GetCounter("diagnosis.explanations", labels, "configs")
      .Increment(result.explanations.size());
  registry.GetCounter("diagnosis.trans_facts", labels, "facts")
      .Increment(result.trans_facts);
  registry.GetCounter("diagnosis.places_facts", labels, "facts")
      .Increment(result.places_facts);
}

StatusOr<DiagnosisResult> DiagnoseImpl(const petri::PetriNet& net,
                                       const petri::AlarmSequence& alarms,
                                       const DiagnosisOptions& options) {
  switch (options.engine) {
    case DiagnosisEngine::kReference: {
      petri::UnfoldOptions uopts;
      uopts.max_events = options.max_unfolding_events;
      uopts.max_depth = alarms.size() + options.max_hidden + 1;
      DQSQ_ASSIGN_OR_RETURN(petri::Unfolding u,
                            petri::Unfolding::Build(net, uopts));
      petri::ReferenceOptions ropts;
      ropts.max_steps = options.max_search_steps;
      ropts.allow_unobservable = options.max_hidden > 0;
      ropts.max_unobservable = options.max_hidden;
      DQSQ_ASSIGN_OR_RETURN(petri::ReferenceResult rres,
                            petri::ReferenceDiagnose(u, alarms, ropts));
      DiagnosisResult result;
      for (const petri::Configuration& c : rres.explanations) {
        result.explanations.push_back(FromConfiguration(u, c));
      }
      result.explanations = Canonicalize(std::move(result.explanations));
      result.trans_facts = u.num_events();
      result.places_facts = u.num_conditions();
      {
        std::set<std::string> events, conditions;
        for (petri::EventId e = 0; e < u.num_events(); ++e) {
          events.insert(EventTerm(u, e));
        }
        result.materialized_events.assign(events.begin(), events.end());
      }
      return result;
    }
    case DiagnosisEngine::kBfhj: {
      petri::UnfoldOptions uopts;
      uopts.max_events = options.max_unfolding_events;
      uopts.max_depth = alarms.size() + options.max_hidden + 1;
      DQSQ_ASSIGN_OR_RETURN(petri::Unfolding original,
                            petri::Unfolding::Build(net, uopts));
      petri::BfhjOptions bopts;
      bopts.max_events = options.max_unfolding_events;
      bopts.max_steps = options.max_search_steps;
      bopts.max_unobservable = options.max_hidden;
      DQSQ_ASSIGN_OR_RETURN(
          petri::BfhjResult bres,
          petri::BfhjDiagnose(net, alarms, bopts, &original));
      DiagnosisResult result;
      for (const petri::Configuration& c : bres.explanations) {
        result.explanations.push_back(FromConfiguration(original, c));
      }
      result.explanations = Canonicalize(std::move(result.explanations));
      result.trans_facts = bres.events_materialized;
      result.places_facts = bres.conditions_materialized;
      result.materialized_events = std::move(bres.projected_event_terms);
      result.materialized_conditions =
          std::move(bres.projected_condition_terms);
      return result;
    }
    default: {
      std::map<std::string, AlarmAutomaton> automata;
      for (const auto& [peer, symbols] : petri::SplitByPeer(alarms)) {
        automata[peer] = ChainAutomaton(symbols);
      }
      uint32_t depth_hint = static_cast<uint32_t>(
          2 * (alarms.size() + options.max_hidden) + 4);
      return RunDatalog(net, automata, options, depth_hint);
    }
  }
}

}  // namespace

StatusOr<DiagnosisResult> Diagnose(const petri::PetriNet& net,
                                   const petri::AlarmSequence& alarms,
                                   const DiagnosisOptions& options) {
  ScopedTimer timer(TimeMetric(
      "diagnosis.wall_ns", Labels{{"engine", EngineName(options.engine)}}));
  DQSQ_ASSIGN_OR_RETURN(DiagnosisResult result,
                        DiagnoseImpl(net, alarms, options));
  RecordDiagnosisMetrics(options.engine, result);
  return result;
}

StatusOr<DiagnosisResult> DiagnosePattern(
    const petri::PetriNet& net,
    const std::map<std::string, AlarmAutomaton>& automata,
    const DiagnosisOptions& options) {
  switch (options.engine) {
    case DiagnosisEngine::kReference:
    case DiagnosisEngine::kBfhj:
      return UnimplementedError(
          "pattern diagnosis is supported by the Datalog engines only");
    default: {
      ScopedTimer timer(TimeMetric(
          "diagnosis.wall_ns", Labels{{"engine", EngineName(options.engine)}}));
      DQSQ_ASSIGN_OR_RETURN(DiagnosisResult result,
                            RunDatalog(net, automata, options,
                                       /*depth_hint=*/0));
      RecordDiagnosisMetrics(options.engine, result);
      return result;
    }
  }
}

}  // namespace dqsq::diagnosis
