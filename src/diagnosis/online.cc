#include "diagnosis/online.h"

#include <map>
#include <utility>

#include "common/logging.h"
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

void EncodeExplanations(const std::vector<Explanation>& explanations,
                        dist::SnapshotWriter& w) {
  w.U32(static_cast<uint32_t>(explanations.size()));
  for (const Explanation& e : explanations) {
    w.U32(static_cast<uint32_t>(e.events.size()));
    for (const std::string& event : e.events) w.Str(event);
  }
}

std::vector<Explanation> DecodeExplanations(dist::SnapshotReader& r) {
  std::vector<Explanation> out(r.U32());
  for (Explanation& e : out) {
    e.events.resize(r.U32());
    for (std::string& event : e.events) event = r.Str();
  }
  return out;
}

void SkipExplanations(dist::SnapshotReader& r) {
  for (uint32_t n = r.U32(); n > 0; --n) {
    for (uint32_t events = r.U32(); events > 0; --events) r.StrView();
  }
}

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
  auto owned = std::make_shared<const OnlineModel>(std::move(model));
  OnlineDiagnoser d = CreateShared(*owned, options);
  d.private_model_ = std::move(owned);
  return d;
}

OnlineDiagnoser OnlineDiagnoser::CreateShared(const OnlineModel& model,
                                              const OnlineOptions& options) {
  OnlineDiagnoser d;
  d.options_ = options;
  d.model_ = &model;
  return d;
}

void OnlineDiagnoser::Hibernate() {
  model_ = nullptr;
  has_current_ = false;
  current_ = std::string();
  db_.reset();
  db_alarms_ = 0;
}

void OnlineDiagnoser::Wake(const OnlineModel& model,
                           std::optional<std::string> encoded) {
  model_ = &model;
  has_current_ = encoded.has_value();
  if (encoded) current_ = std::move(*encoded);
}

size_t OnlineDiagnoser::PeerIndex(const std::string& peer) const {
  const std::vector<std::string>& peers = model_->observed_peers;
  size_t p = 0;
  while (p < peers.size() && peers[p] != peer) ++p;
  return p;
}

Status OnlineDiagnoser::Append(const petri::Alarm& alarm) {
  DQSQ_CHECK(model_ != nullptr) << "alarm for a hibernated session";
  if (PeerIndex(alarm.peer) == model_->observed_peers.size()) {
    return InvalidArgumentError("alarm from unknown peer " + alarm.peer);
  }
  history_.push_back(alarm);
  has_current_ = false;
  return Status::Ok();
}

void OnlineDiagnoser::InsertEdge(size_t peer, uint32_t from,
                                 const std::string& symbol) {
  DatalogContext& ctx = *model_->ctx;
  auto constant = [&](const std::string& name) {
    return ctx.arena().MakeConstant(ctx.symbols().Intern(name));
  };
  const std::string& name = model_->observed_peers[peer];
  const TermId edge[3] = {constant(StateConst(name, from)),
                          constant("al_" + symbol),
                          constant(StateConst(name, from + 1))};
  db_->Insert(model_->edge_rels[peer], edge);
}

StatusOr<std::vector<Explanation>> OnlineDiagnoser::Observe(
    const petri::Alarm& alarm) {
  const bool had_current = has_current_;
  DQSQ_RETURN_IF_ERROR(Append(alarm));
  StatusOr<std::vector<Explanation>> result = Solve();
  if (!result.ok()) {
    // Solve() dropped the database, the only place the alarm's edge lived.
    history_.pop_back();
    has_current_ = had_current;
  }
  return result;
}

Status OnlineDiagnoser::ObserveCached(const petri::Alarm& alarm,
                                      std::string encoded) {
  DQSQ_RETURN_IF_ERROR(Append(alarm));
  current_ = std::move(encoded);
  has_current_ = true;
  last_new_facts_ = 0;  // nothing evaluated
  return Status::Ok();
}

Status OnlineDiagnoser::ObserveCached(
    const petri::Alarm& alarm, const std::vector<Explanation>& explanations) {
  dist::SnapshotWriter w;
  EncodeExplanations(explanations, w);
  return ObserveCached(alarm, w.Take());
}

StatusOr<std::vector<Explanation>> OnlineDiagnoser::Current() {
  if (!has_current_) return Solve();
  dist::SnapshotReader r(current_);
  return DecodeExplanations(r);
}

StatusOr<std::vector<Explanation>> OnlineDiagnoser::Solve() {
  DQSQ_CHECK(model_ != nullptr) << "evaluation of a hibernated session";
  if (!db_) db_ = std::make_unique<Database>(model_->ctx.get());
  // Per observed peer (model order): its alarms so far, i.e. its automaton
  // position. Edges of alarms the database has not seen are inserted on
  // the way.
  std::vector<uint32_t> positions(model_->observed_peers.size(), 0);
  for (size_t i = 0; i < history_.size(); ++i) {
    const size_t p = PeerIndex(history_[i].peer);
    if (i >= db_alarms_) InsertEdge(p, positions[p], history_[i].symbol);
    ++positions[p];
  }
  db_alarms_ = history_.size();

  // q(Z, X, st_p1_c1, ..., st_pm_cm): the positions are the bound
  // arguments the shared rewrite was compiled for.
  ParsedQuery query;
  query.num_vars = 2;
  query.atom.rel = model_->query_rel;
  query.atom.args = {Pattern::Var(0), Pattern::Var(1)};
  for (size_t p = 0; p < positions.size(); ++p) {
    query.atom.args.push_back(Pattern::Const(model_->ctx->symbols().Intern(
        StateConst(model_->observed_peers[p], positions[p]))));
  }

  EvalOptions eopts;
  eopts.max_facts = options_.max_facts;
  const size_t before = db_->TotalFacts();
  StatusOr<QueryResult> qres =
      EvaluateRewritten(*model_->program, query, *db_, eopts);
  if (!qres.ok()) {
    db_.reset();
    db_alarms_ = 0;
    return qres.status();
  }
  last_new_facts_ = db_->TotalFacts() - before;

  std::vector<Explanation> explanations =
      ExtractExplanations(qres->answers, *model_->ctx);
  dist::SnapshotWriter w;
  EncodeExplanations(explanations, w);
  current_ = w.Take();
  has_current_ = true;
  return explanations;
}

}  // namespace dqsq::diagnosis
