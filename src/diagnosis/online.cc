#include "diagnosis/online.h"

#include <map>
#include <utility>

#include "datalog/adornment.h"
#include "datalog/qsq_rewrite.h"
#include "diagnosis/diagnoser.h"
#include "diagnosis/encoder.h"
#include "diagnosis/supervisor.h"

namespace dqsq::diagnosis {

namespace {

std::string StateConst(const std::string& peer, uint32_t s) {
  return "st_" + peer + "_" + std::to_string(s);
}

}  // namespace

StatusOr<OnlineModel> OnlineModel::Build(const petri::PetriNet& net) {
  OnlineModel model;
  model.ctx = std::make_shared<DatalogContext>();
  DatalogContext& ctx = *model.ctx;

  DQSQ_ASSIGN_OR_RETURN(EncodedNet encoded, EncodeNet(net, ctx));
  // Open chain automata for every peer: edges arrive as facts.
  std::map<std::string, AlarmAutomaton> automata;
  for (petri::PeerIndex p = 0; p < net.num_peers(); ++p) {
    automata[net.peer_name(p)] = AlarmAutomaton{};
  }
  SupervisorOptions sopts;
  sopts.open_automata = true;
  DQSQ_ASSIGN_OR_RETURN(SupervisorProgram sup,
                        BuildSupervisor(net, encoded, automata, sopts, ctx));
  Program program = std::move(encoded.program);
  for (Rule& rule : sup.program.rules) program.rules.push_back(std::move(rule));
  DQSQ_RETURN_IF_ERROR(ValidateProgram(program, ctx));

  // Z and X free, every automaton position bound.
  Adornment adornment(sup.query.atom.args.size(), true);
  adornment[0] = adornment[1] = false;
  DQSQ_ASSIGN_OR_RETURN(
      AdornedProgram adorned,
      AdornProgram(program, sup.query.atom.rel, adornment));
  DQSQ_ASSIGN_OR_RETURN(
      RewriteResult rewrite,
      QsqRewrite(adorned, sup.query.atom.rel, adornment, ctx));
  model.program = std::make_shared<const RewriteResult>(std::move(rewrite));

  model.query_rel = sup.query.atom.rel;
  model.observed_peers = std::move(sup.observed_peers);
  for (const std::string& peer : model.observed_peers) {
    model.edge_rels.push_back(
        RelId{ctx.InternPredicate("aedge_" + peer, 3), sup.supervisor});
  }
  return model;
}

StatusOr<OnlineDiagnoser> OnlineDiagnoser::Create(
    const petri::PetriNet& net, const OnlineOptions& options) {
  DQSQ_ASSIGN_OR_RETURN(OnlineModel model, OnlineModel::Build(net));
  return CreateShared(model, options);
}

OnlineDiagnoser OnlineDiagnoser::CreateShared(const OnlineModel& model,
                                              const OnlineOptions& options) {
  OnlineDiagnoser d;
  d.options_ = options;
  d.model_ = model;
  d.positions_.assign(model.observed_peers.size(), 0);
  return d;
}

StatusOr<OnlineDiagnoser> OnlineDiagnoser::Resume(
    const OnlineModel& model, const OnlineOptions& options,
    petri::AlarmSequence history) {
  OnlineDiagnoser d = CreateShared(model, options);
  for (const petri::Alarm& a : history) DQSQ_RETURN_IF_ERROR(d.Append(a));
  return d;
}

size_t OnlineDiagnoser::PeerIndex(const std::string& peer) const {
  size_t p = 0;
  while (p < positions_.size() && model_.observed_peers[p] != peer) ++p;
  return p;
}

Status OnlineDiagnoser::Append(const petri::Alarm& alarm) {
  const size_t peer = PeerIndex(alarm.peer);
  if (peer == positions_.size()) {
    return InvalidArgumentError("alarm from unknown peer " + alarm.peer);
  }
  if (db_) InsertEdge(peer, positions_[peer], alarm.symbol);
  ++positions_[peer];
  history_.push_back(alarm);
  has_current_ = false;
  return Status::Ok();
}

void OnlineDiagnoser::InsertEdge(size_t peer, uint32_t from,
                                 const std::string& symbol) {
  DatalogContext& ctx = *model_.ctx;
  auto constant = [&](const std::string& name) {
    return ctx.arena().MakeConstant(ctx.symbols().Intern(name));
  };
  const std::string& name = model_.observed_peers[peer];
  const TermId edge[3] = {constant(StateConst(name, from)),
                          constant("al_" + symbol),
                          constant(StateConst(name, from + 1))};
  db_->Insert(model_.edge_rels[peer], edge);
}

StatusOr<std::vector<Explanation>> OnlineDiagnoser::Observe(
    const petri::Alarm& alarm) {
  const bool had_current = has_current_;
  DQSQ_RETURN_IF_ERROR(Append(alarm));
  StatusOr<std::vector<Explanation>> result = Solve();
  if (!result.ok()) {
    // Solve() dropped the database, the only place the alarm's edge lived.
    history_.pop_back();
    --positions_[PeerIndex(alarm.peer)];
    has_current_ = had_current;
  }
  return result;
}

Status OnlineDiagnoser::ObserveCached(const petri::Alarm& alarm,
                                      std::vector<Explanation> explanations) {
  DQSQ_RETURN_IF_ERROR(Append(alarm));
  RestoreCurrent(std::move(explanations));
  last_new_facts_ = 0;  // nothing evaluated
  return Status::Ok();
}

void OnlineDiagnoser::RestoreCurrent(std::vector<Explanation> explanations) {
  current_explanations_ = std::move(explanations);
  has_current_ = true;
}

StatusOr<std::vector<Explanation>> OnlineDiagnoser::Current() {
  if (has_current_) return current_explanations_;
  return Solve();
}

StatusOr<std::vector<Explanation>> OnlineDiagnoser::Solve() {
  if (!db_) {
    db_ = std::make_unique<Database>(model_.ctx.get());
    std::vector<uint32_t> replayed(positions_.size(), 0);
    for (const petri::Alarm& alarm : history_) {
      const size_t p = PeerIndex(alarm.peer);
      InsertEdge(p, replayed[p]++, alarm.symbol);
    }
  }

  // q(Z, X, st_p1_c1, ..., st_pm_cm): the positions are the bound
  // arguments the shared rewrite was compiled for.
  ParsedQuery query;
  query.num_vars = 2;
  query.atom.rel = model_.query_rel;
  query.atom.args = {Pattern::Var(0), Pattern::Var(1)};
  for (size_t p = 0; p < positions_.size(); ++p) {
    query.atom.args.push_back(Pattern::Const(model_.ctx->symbols().Intern(
        StateConst(model_.observed_peers[p], positions_[p]))));
  }

  EvalOptions eopts;
  eopts.max_facts = options_.max_facts;
  const size_t before = db_->TotalFacts();
  StatusOr<QueryResult> qres =
      EvaluateRewritten(*model_.program, query, *db_, eopts);
  if (!qres.ok()) {
    db_.reset();
    return qres.status();
  }
  last_new_facts_ = db_->TotalFacts() - before;

  current_explanations_ = ExtractExplanations(qres->answers, *model_.ctx);
  has_current_ = true;
  return current_explanations_;
}

}  // namespace dqsq::diagnosis
