#include "dist/peer.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "datalog/qsq_rewrite.h"
#include "dist/snapshot.h"

namespace dqsq::dist {

namespace {

Labels PeerLabels(DatalogContext* ctx, SymbolId id) {
  return Labels{{"peer", ctx->symbols().Name(id)}};
}

}  // namespace

DatalogPeer::DatalogPeer(SymbolId id, DatalogContext* ctx,
                         EvalOptions eval_options,
                         const WireBatchOptions& batch)
    : id_(id),
      batch_(batch),
      ctx_(ctx),
      eval_options_(eval_options),
      db_(ctx) {}

void DatalogPeer::InstallRule(const Rule& rule) {
  program_.rules.push_back(rule);
  CountMetric("dist.peer.rules_installed", 1, PeerLabels(ctx_, id_), "rules");
}

void DatalogPeer::InstallSourceRule(const Rule& rule) {
  source_rules_.rules.push_back(rule);
}

void DatalogPeer::AddFact(const RelId& rel, std::span<const TermId> tuple) {
  db_.Insert(rel, tuple);
}

bool DatalogPeer::HasRulesFor(const RelId& rel) const {
  for (const Rule& r : source_rules_.rules) {
    if (r.head.rel == rel) return true;
  }
  for (const Rule& r : program_.rules) {
    if (r.head.rel == rel) return true;
  }
  return false;
}

Status DatalogPeer::OnMessage(const Message& message, Network& network) {
  DQSQ_CHECK(!crashed_) << "message delivered to a crashed peer "
                        << ctx_->symbols().Name(id_)
                        << " (deliveries to down peers must be dropped at "
                           "the wire)";
  if (message.kind == MessageKind::kAck) {
    ds_.OnReceiveAck();
    MaybeDisengage(network);
    return Status::Ok();
  }
  // Basic message: engage (deferring the ack to disengagement) or ack
  // immediately when already engaged.
  bool ack_now = ds_.OnReceiveBasic(message.from);
  if (!ack_now) CountMetric("dist.ds.engagements", 1, PeerLabels(ctx_, id_));
  Status status = Dispatch(message, network);
  if (ack_now) SendAck(message.from, network);
  MaybeDisengage(network);
  return status;
}

void DatalogPeer::IngestTuples(const RelId& rel,
                               const std::vector<Tuple>& tuples) {
  const bool remote_owned = rel.peer != id_;
  for (const Tuple& t : tuples) {
    if (db_.Insert(rel, t) && remote_owned) {
      received_[rel].insert(t);
    }
  }
}

Status DatalogPeer::Dispatch(const Message& message, Network& network) {
  switch (message.kind) {
    case MessageKind::kTuples: {
      IngestTuples(message.rel, message.tuples);
      for (const TupleSection& s : message.sections) {
        IngestTuples(s.rel, s.tuples);
      }
      return RunFixpointAndFlush(network);
    }
    case MessageKind::kActivate:
      DQSQ_RETURN_IF_ERROR(
          Activate(message.rel, message.subscriber,
                   /*has_subscriber=*/true, network));
      return RunFixpointAndFlush(network);
    case MessageKind::kSubquery:
      DQSQ_RETURN_IF_ERROR(OnSubquery(message.rel, message.adornment,
                                      network));
      return RunFixpointAndFlush(network);
    case MessageKind::kInstall:
      for (const Rule& rule : message.rules) InstallRule(rule);
      return RunFixpointAndFlush(network);
    case MessageKind::kAck:
      return InternalError("ack handled before dispatch");
    case MessageKind::kTransportAck:
      return InternalError("transport ack leaked through the network shim");
    case MessageKind::kTransportHello:
      return InternalError("transport hello leaked through the network shim");
  }
  return InternalError("unknown message kind");
}

Status DatalogPeer::Activate(const RelId& rel, SymbolId subscriber,
                             bool has_subscriber, Network& network) {
  DQSQ_CHECK_EQ(rel.peer, id_) << "activation routed to the wrong peer";
  if (has_subscriber && subscriber != id_) {
    subscribers_[rel].insert(subscriber);
    FlushRelationTo(rel, subscriber);
  }
  if (active_.contains(rel)) return Status::Ok();
  active_.insert(rel);
  for (const Rule& rule : program_.rules) {
    if (!(rule.head.rel == rel)) continue;
    for (const Atom& atom : rule.body) {
      if (atom.rel.peer == id_) {
        DQSQ_RETURN_IF_ERROR(
            Activate(atom.rel, id_, /*has_subscriber=*/false, network));
      } else {
        Message m;
        m.kind = MessageKind::kActivate;
        m.from = id_;
        m.to = atom.rel.peer;
        m.rel = atom.rel;
        m.subscriber = id_;
        SendBasic(std::move(m), network);
      }
    }
  }
  return Status::Ok();
}

Status DatalogPeer::OnSubquery(const RelId& rel, const Adornment& adornment,
                               Network& network) {
  DQSQ_CHECK_EQ(rel.peer, id_) << "subquery routed to the wrong peer";
  CountMetric("dist.peer.subqueries_received", 1, PeerLabels(ctx_, id_));
  return RewriteForPattern(rel, adornment, network);
}

Status DatalogPeer::RewriteForPattern(const RelId& rel,
                                      const Adornment& adornment,
                                      Network& network) {
  auto key = std::make_pair(rel.pred, adornment);
  if (rewritten_.contains(key)) return Status::Ok();  // reuse machinery
  rewritten_.insert(key);
  CountMetric("dist.peer.rewrites", 1, PeerLabels(ctx_, id_));

  const std::string& base = ctx_->PredicateName(rel.pred);
  uint32_t arity = ctx_->PredicateArity(rel.pred);

  {
    // Bridge stored facts of the relation into the adorned answers:
    //   R__a(v1..vn) :- in__R__a(v_bound...), R(v1..vn).
    // This serves purely extensional relations and the extensional part of
    // mixed ones; for rule-only relations R@self is empty and the bridge
    // is inert.
    Rule bridge;
    bridge.num_vars = arity;
    for (uint32_t i = 0; i < arity; ++i) {
      bridge.var_names.push_back("V" + std::to_string(i));
    }
    std::vector<Pattern> all_vars;
    std::vector<Pattern> bound_vars;
    for (uint32_t i = 0; i < arity; ++i) {
      all_vars.push_back(Pattern::Var(i));
      if (adornment[i]) bound_vars.push_back(Pattern::Var(i));
    }
    PredicateId ans = ctx_->InternPredicate(AnswerPredName(base, adornment),
                                            arity);
    PredicateId in = ctx_->InternPredicate(
        InputPredName(base, adornment),
        static_cast<uint32_t>(bound_vars.size()));
    bridge.head = Atom{RelId{ans, id_}, all_vars};
    bridge.body.push_back(Atom{RelId{in, id_}, std::move(bound_vars)});
    bridge.body.push_back(Atom{rel, std::move(all_vars)});
    InstallRule(bridge);
  }
  if (!HasRulesFor(rel)) return Status::Ok();

  // Adorn this peer's rules for the pattern — only local knowledge is
  // used (the paper's dQSQ locality property).
  AdornedProgram adorned;
  std::vector<std::pair<RelId, Adornment>> propagate;
  for (size_t idx = 0; idx < source_rules_.rules.size(); ++idx) {
    const Rule& rule = source_rules_.rules[idx];
    if (!(rule.head.rel == rel)) continue;
    AdornedRule ar;
    ar.rule = &source_rules_.rules[idx];
    ar.rule_index = idx;
    ar.head_adornment = adornment;
    std::vector<bool> bound_vars(rule.num_vars, false);
    for (size_t i = 0; i < rule.head.args.size(); ++i) {
      if (!adornment[i]) continue;
      std::vector<VarId> vars;
      rule.head.args[i].CollectVars(&vars);
      for (VarId v : vars) bound_vars[v] = true;
    }
    for (const Atom& atom : rule.body) {
      Adornment a = AdornAtom(atom, bound_vars);
      // Local atoms are intensional iff this peer defines them; remote
      // atoms are demanded via subqueries either way (their owner bridges
      // extensional relations).
      bool idb = atom.rel.peer != id_ || HasRulesFor(atom.rel);
      ar.body_adornments.push_back(a);
      ar.body_is_idb.push_back(idb);
      if (idb) propagate.emplace_back(atom.rel, a);
      std::vector<VarId> vars;
      for (const Pattern& p : atom.args) p.CollectVars(&vars);
      for (VarId v : vars) bound_vars[v] = true;
    }
    adorned.rules.push_back(std::move(ar));
  }

  QsqOptions qopts;
  qopts.distribute_sups = true;
  qopts.sup_prefix = ctx_->symbols().Name(id_) + "_";
  DQSQ_ASSIGN_OR_RETURN(
      RewriteResult rewrite,
      QsqRewrite(adorned, rel, adornment, *ctx_, qopts));

  // Keep local-body rules; ship each remainder to the peer owning its
  // body (the paper's rule (†)).
  std::map<SymbolId, std::vector<Rule>> remote;
  for (Rule& rule : rewrite.program.rules) {
    DQSQ_CHECK(!rule.body.empty());
    SymbolId body_peer = rule.body[0].rel.peer;
    if (body_peer == id_) {
      InstallRule(rule);
    } else {
      remote[body_peer].push_back(std::move(rule));
    }
  }
  for (auto& [peer, rules] : remote) {
    Message m;
    m.kind = MessageKind::kInstall;
    m.from = id_;
    m.to = peer;
    m.rules = std::move(rules);
    SendBasic(std::move(m), network);
  }

  // Propagate demand for callee call patterns.
  for (const auto& [callee, a] : propagate) {
    if (callee.peer == id_) {
      DQSQ_RETURN_IF_ERROR(RewriteForPattern(callee, a, network));
    } else {
      Message m;
      m.kind = MessageKind::kSubquery;
      m.from = id_;
      m.to = callee.peer;
      m.rel = callee;
      m.adornment = a;
      SendBasic(std::move(m), network);
    }
  }
  return Status::Ok();
}

Status DatalogPeer::RunFixpointAndFlush(Network& network) {
  CountMetric("dist.peer.fixpoints", 1, PeerLabels(ctx_, id_));
  DQSQ_RETURN_IF_ERROR(Evaluate(program_, db_, eval_options_).status());
  // Stream owned relations to their subscribers (dnaive data flow).
  for (const auto& [rel, subs] : subscribers_) {
    for (SymbolId target : subs) FlushRelationTo(rel, target);
  }
  // Ship derived tuples of remote-owned relations to their owner (dQSQ
  // binding/answer flow and remainder-rule heads).
  std::vector<RelId> rels = db_.Relations();
  std::sort(rels.begin(), rels.end());
  for (const RelId& rel : rels) {
    if (rel.peer != id_) FlushRelationTo(rel, rel.peer);
  }
  DrainOutbox(network);
  return Status::Ok();
}

void DatalogPeer::FlushRelationTo(const RelId& rel, SymbolId target) {
  if (target == id_) return;
  const Relation* relation = db_.Find(rel);
  if (relation == nullptr) return;
  size_t& watermark = shipped_[{rel, target}];
  if (watermark >= relation->size()) return;
  const std::set<Tuple>* skip = nullptr;
  if (rel.peer == target) {
    auto it = received_.find(rel);
    if (it != received_.end()) skip = &it->second;
  }
  std::vector<Tuple> tuples;
  for (size_t row = watermark; row < relation->size(); ++row) {
    Tuple t = relation->Row(row);
    if (skip != nullptr && skip->contains(t)) continue;
    tuples.push_back(std::move(t));
  }
  watermark = relation->size();
  if (!tuples.empty()) {
    outbox_.push_back(OutboxEntry{target, rel, std::move(tuples)});
  }
}

void DatalogPeer::DrainOutbox(Network& network) {
  if (outbox_.empty()) return;
  std::vector<OutboxEntry> entries = std::move(outbox_);
  outbox_.clear();
  // Group by target in first-appearance order.
  std::vector<SymbolId> order;
  std::map<SymbolId, std::vector<OutboxEntry*>> groups;
  for (OutboxEntry& e : entries) {
    auto [it, inserted] = groups.try_emplace(e.target);
    if (inserted) order.push_back(e.target);
    it->second.push_back(&e);
  }
  size_t batched_rows = 0;
  size_t split_messages = 0;
  for (SymbolId target : order) {
    Message m;
    size_t est = 0;  // running estimate, mirrors ApproxWireBytes pricing
    auto reset = [&]() {
      m = Message{};
      m.kind = MessageKind::kTuples;
      m.from = id_;
      m.to = target;
      est = 16;
    };
    reset();
    for (OutboxEntry* e : groups[target]) {
      std::vector<Tuple>* slot = nullptr;  // this entry's rows in m
      for (Tuple& t : e->tuples) {
        size_t row_cost = 4 * t.size();
        bool empty = m.tuples.empty() && m.sections.empty();
        size_t open_cost = (slot == nullptr && !empty) ? 8 : 0;
        if (!empty && est + open_cost + row_cost > batch_.max_bytes) {
          // Over budget: ship what we have (a message always carries at
          // least one row). A payload continuing into the next message is
          // a split — the extra message is what the counter prices.
          if (slot != nullptr) ++split_messages;
          SendBasic(std::move(m), network);
          reset();
          slot = nullptr;
        }
        if (slot == nullptr) {
          if (m.tuples.empty() && m.sections.empty()) {
            m.rel = e->rel;
            slot = &m.tuples;
          } else {
            m.sections.push_back(TupleSection{e->rel, {}});
            slot = &m.sections.back().tuples;
            est += 8;
          }
        }
        if (slot != &m.tuples) ++batched_rows;
        slot->push_back(std::move(t));
        est += row_cost;
      }
      slot = nullptr;
    }
    if (!m.tuples.empty() || !m.sections.empty()) {
      SendBasic(std::move(m), network);
    }
  }
  if (batched_rows > 0) {
    CountMetric("dist.net.batched_tuples", batched_rows,
                PeerLabels(ctx_, id_), "rows");
  }
  if (split_messages > 0) {
    CountMetric("dist.net.split_tuples", split_messages,
                PeerLabels(ctx_, id_), "messages");
  }
}

void DatalogPeer::SendBasic(Message message, Network& network) {
  ds_.OnSendBasic();
  network.Send(std::move(message));
}

void DatalogPeer::SendAck(SymbolId target, Network& network) {
  Message ack;
  ack.kind = MessageKind::kAck;
  ack.from = id_;
  ack.to = target;
  network.Send(std::move(ack));
}

void DatalogPeer::MaybeDisengage(Network& network) {
  // Our peers are passive whenever they are not processing a message, so
  // a zero deficit lets them disengage and ack the tree parent.
  if (ds_.TryDisengage()) {
    DQSQ_CHECK_NE(ds_.parent(), kNoNode);
    CountMetric("dist.ds.disengagements", 1, PeerLabels(ctx_, id_));
    SendAck(ds_.parent(), network);
  }
}

namespace {

void EncodeRelId(const RelId& rel, SnapshotWriter& w) {
  w.U32(rel.pred);
  w.U32(rel.peer);
}

RelId DecodeRelId(SnapshotReader& r) {
  RelId rel;
  rel.pred = r.U32();
  rel.peer = r.U32();
  return rel;
}

void EncodePeerTuple(std::span<const TermId> t, SnapshotWriter& w) {
  w.U64(t.size());
  for (TermId id : t) w.U32(id);
}

Tuple DecodePeerTuple(SnapshotReader& r) {
  uint64_t n = r.U64();
  Tuple t;
  t.reserve(n);
  for (uint64_t i = 0; i < n; ++i) t.push_back(r.U32());
  return t;
}

void EncodeAdornmentBits(const Adornment& a, SnapshotWriter& w) {
  w.U64(a.size());
  for (bool b : a) w.Bool(b);
}

Adornment DecodeAdornmentBits(SnapshotReader& r) {
  uint64_t n = r.U64();
  Adornment a;
  a.reserve(n);
  for (uint64_t i = 0; i < n; ++i) a.push_back(r.Bool());
  return a;
}

}  // namespace

std::string DatalogPeer::SaveState() const {
  SnapshotWriter w;
  // Dijkstra–Scholten engagement: a restarted peer resumes exactly the
  // deficit/parent it had, so the deferred ack to its tree parent is still
  // owed and no sender's deficit underflows.
  w.Bool(ds_.engaged());
  w.U64(ds_.deficit());
  w.U32(ds_.parent());
  w.U64(program_.rules.size());
  for (const Rule& rule : program_.rules) EncodeRule(rule, w);
  w.U64(source_rules_.rules.size());
  for (const Rule& rule : source_rules_.rules) EncodeRule(rule, w);
  // Relations sorted by (pred, peer); rows in insertion order, which the
  // ship watermarks in shipped_ index into.
  std::vector<RelId> rels = db_.Relations();
  std::sort(rels.begin(), rels.end());
  w.U64(rels.size());
  for (const RelId& rel : rels) {
    EncodeRelId(rel, w);
    const Relation* relation = db_.Find(rel);
    w.U64(relation->size());
    for (size_t row = 0; row < relation->size(); ++row) {
      EncodePeerTuple(relation->Row(row), w);
    }
  }
  w.U64(active_.size());
  for (const RelId& rel : active_) EncodeRelId(rel, w);
  w.U64(subscribers_.size());
  for (const auto& [rel, subs] : subscribers_) {
    EncodeRelId(rel, w);
    w.U64(subs.size());
    for (SymbolId sub : subs) w.U32(sub);
  }
  w.U64(shipped_.size());
  for (const auto& [key, watermark] : shipped_) {
    EncodeRelId(key.first, w);
    w.U32(key.second);
    w.U64(watermark);
  }
  w.U64(received_.size());
  for (const auto& [rel, tuples] : received_) {
    EncodeRelId(rel, w);
    w.U64(tuples.size());
    for (const Tuple& t : tuples) EncodePeerTuple(t, w);
  }
  w.U64(rewritten_.size());
  for (const auto& [pred, adornment] : rewritten_) {
    w.U32(pred);
    EncodeAdornmentBits(adornment, w);
  }
  return w.Take();
}

void DatalogPeer::RestoreState(const std::string& state) {
  Crash();  // start from a blank slate
  crashed_ = false;
  SnapshotReader r(state);
  bool engaged = r.Bool();
  uint64_t deficit = r.U64();
  NodeId parent = r.U32();
  ds_.RestoreState(engaged, deficit, parent);
  uint64_t n = r.U64();
  program_.rules.reserve(n);
  for (uint64_t i = 0; i < n; ++i) program_.rules.push_back(DecodeRule(r));
  n = r.U64();
  source_rules_.rules.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    source_rules_.rules.push_back(DecodeRule(r));
  }
  n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    RelId rel = DecodeRelId(r);
    uint64_t rows = r.U64();
    // GetOrCreate materializes empty relations too — their existence (and
    // row order in non-empty ones) must survive the round trip exactly,
    // since ship watermarks index into it.
    db_.GetOrCreate(rel).Reserve(rows);
    for (uint64_t row = 0; row < rows; ++row) {
      db_.Insert(rel, DecodePeerTuple(r));
    }
  }
  n = r.U64();
  for (uint64_t i = 0; i < n; ++i) active_.insert(DecodeRelId(r));
  n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    RelId rel = DecodeRelId(r);
    uint64_t subs = r.U64();
    auto& set = subscribers_[rel];
    for (uint64_t j = 0; j < subs; ++j) set.insert(r.U32());
  }
  n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    RelId rel = DecodeRelId(r);
    SymbolId target = r.U32();
    shipped_[{rel, target}] = r.U64();
  }
  n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    RelId rel = DecodeRelId(r);
    uint64_t tuples = r.U64();
    auto& set = received_[rel];
    for (uint64_t j = 0; j < tuples; ++j) set.insert(DecodePeerTuple(r));
  }
  n = r.U64();
  for (uint64_t i = 0; i < n; ++i) {
    PredicateId pred = r.U32();
    rewritten_.emplace(pred, DecodeAdornmentBits(r));
  }
  DQSQ_CHECK(r.AtEnd()) << "trailing bytes after peer state";
  CountMetric("dist.peer.restores", 1, PeerLabels(ctx_, id_));
}

void DatalogPeer::Crash() {
  db_.Clear();
  program_.rules.clear();
  source_rules_.rules.clear();
  active_.clear();
  subscribers_.clear();
  shipped_.clear();
  received_.clear();
  rewritten_.clear();
  // The outbox is always drained before OnMessage returns, so a crash
  // never loses queued flushes; clear defensively anyway.
  outbox_.clear();
  ds_.RestoreState(/*engaged=*/false, /*deficit=*/0, kNoNode);
  crashed_ = true;
}

}  // namespace dqsq::dist
