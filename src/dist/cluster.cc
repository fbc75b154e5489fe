#include "dist/cluster.h"

#include <set>

#include "common/logging.h"
#include "datalog/adornment.h"
#include "datalog/qsq_rewrite.h"

namespace dqsq::dist {

Status CheckSingleShard(const DistOptions& options) {
  if (options.num_shards > 1) {
    return InvalidArgumentError(
        "DistOptions::num_shards must be 1: one logical peer is one peer");
  }
  return Status::Ok();
}

std::set<SymbolId> ProgramPeers(const Program& program,
                                const ParsedQuery& query) {
  std::set<SymbolId> peer_ids;
  peer_ids.insert(query.atom.rel.peer);
  for (const Rule& rule : program.rules) {
    peer_ids.insert(rule.head.rel.peer);
    for (const Atom& atom : rule.body) peer_ids.insert(atom.rel.peer);
  }
  return peer_ids;
}

void InstallRuleAt(DatalogPeer& owner, const Rule& rule, Cluster::Mode mode,
                   DatalogContext& ctx) {
  if (rule.IsFact()) {
    // Ground facts are extensional data, loaded directly.
    std::vector<TermId> tuple;
    for (const Pattern& p : rule.head.args) {
      tuple.push_back(GroundPattern(p, Substitution(), ctx.arena()));
    }
    owner.AddFact(rule.head.rel, tuple);
  } else if (mode == Cluster::Mode::kEvaluate) {
    owner.InstallRule(rule);
  } else {
    owner.InstallSourceRule(rule);
  }
}

std::vector<Message> SeedDemandMessages(DatalogContext& ctx,
                                        const ParsedQuery& query,
                                        SymbolId root_id, Cluster::Mode mode) {
  std::vector<Message> out;
  if (mode == Cluster::Mode::kEvaluate) {
    Message m;
    m.kind = MessageKind::kActivate;
    m.from = root_id;
    m.to = query.atom.rel.peer;
    m.rel = query.atom.rel;
    m.subscriber = query.atom.rel.peer;  // self: activation only
    out.push_back(std::move(m));
    return out;
  }
  const RelId query_rel = query.atom.rel;
  Adornment adornment = QueryAdornment(query.atom);
  const std::string& base = ctx.PredicateName(query_rel.pred);
  uint32_t bound = 0;
  for (bool b : adornment) bound += b ? 1 : 0;
  PredicateId in_pred =
      ctx.InternPredicate(InputPredName(base, adornment), bound);
  Message sub;
  sub.kind = MessageKind::kSubquery;
  sub.from = root_id;
  sub.to = query_rel.peer;
  sub.rel = query_rel;
  sub.adornment = adornment;
  out.push_back(std::move(sub));
  std::vector<TermId> seed;
  for (size_t i = 0; i < query.atom.args.size(); ++i) {
    if (!adornment[i]) continue;
    seed.push_back(
        GroundPattern(query.atom.args[i], Substitution(), ctx.arena()));
  }
  Message data;
  data.kind = MessageKind::kTuples;
  data.from = root_id;
  data.to = query_rel.peer;
  data.rel = RelId{in_pred, query_rel.peer};
  data.tuples.push_back(std::move(seed));
  out.push_back(std::move(data));
  return out;
}

Atom AnswerAtom(DatalogContext& ctx, const ParsedQuery& query,
                Cluster::Mode mode) {
  if (mode == Cluster::Mode::kEvaluate) return query.atom;
  const RelId query_rel = query.atom.rel;
  Adornment adornment = QueryAdornment(query.atom);
  const std::string& base = ctx.PredicateName(query_rel.pred);
  PredicateId ans_pred = ctx.InternPredicate(
      AnswerPredName(base, adornment), ctx.PredicateArity(query_rel.pred));
  return Atom{RelId{ans_pred, query_rel.peer}, query.atom.args};
}

Status RootNode::OnMessage(const Message& message, Network& network) {
  if (message.kind == MessageKind::kAck) {
    ds_.OnReceiveAck();
    if (ds_.TryDisengage()) terminated_ = true;
    return Status::Ok();
  }
  // The root receives no data in these protocols, but DS requires every
  // basic message to be acknowledged.
  if (ds_.OnReceiveBasic(message.from)) {
    Message ack;
    ack.kind = MessageKind::kAck;
    ack.from = id_;
    ack.to = message.from;
    network.Send(std::move(ack));
  }
  return Status::Ok();
}

Cluster::Cluster(DatalogContext& ctx, const Program& program,
                 const ParsedQuery& query, uint64_t seed,
                 const EvalOptions& eval_options, Mode mode,
                 const FaultPlan& faults, size_t num_shards,
                 const WireBatchOptions& wire_batch)
    : network_(seed, faults),
      ctx_(&ctx),
      eval_options_(eval_options),
      wire_batch_(wire_batch) {
  DQSQ_CHECK_LE(num_shards, 1u)
      << "num_shards must be 1: one logical peer is one peer";
  network_.SetPeerNamer(
      [ctx = &ctx](SymbolId id) { return ctx->symbols().Name(id); });
  for (SymbolId id : ProgramPeers(program, query)) {
    auto peer =
        std::make_unique<DatalogPeer>(id, &ctx, eval_options, wire_batch_);
    network_.Register(id, peer.get());
    peers_.emplace(id, std::move(peer));
  }
  root_ = std::make_unique<RootNode>(ctx.symbols().Intern("ds_root"));
  network_.Register(root_->id(), root_.get());
  for (const Rule& rule : program.rules) {
    InstallRuleAt(*peers_.at(rule.head.rel.peer), rule, mode, ctx);
  }
  // Live peer migration (SimNetwork::MigratePeer): hand the network a
  // factory for replacement peer objects; the old object is retired, not
  // destroyed, and the map entry swaps to the replacement.
  network_.SetMigrationFactory([this](SymbolId id) -> PeerNode* {
    auto replacement =
        std::make_unique<DatalogPeer>(id, ctx_, eval_options_, wire_batch_);
    DatalogPeer* raw = replacement.get();
    auto it = peers_.find(id);
    DQSQ_CHECK(it != peers_.end()) << "migration of unknown peer";
    retired_.push_back(std::move(it->second));
    it->second = std::move(replacement);
    return raw;
  });
}

void Cluster::SeedDemand(std::vector<Message> messages) {
  for (Message& m : messages) root_->SendBasic(std::move(m), network_);
}

Status Cluster::RunUntilTermination(size_t max_steps) {
  for (size_t i = 0; i < max_steps; ++i) {
    if (root_->terminated()) {
      // On a faulty wire transport residue (duplicate copies, acks,
      // retransmits of delivered messages) may still be in flight; the
      // algorithm's safety property is that no undelivered payload is.
      if (!network_.LogicallyQuiescent()) {
        return InternalError(
            "Dijkstra-Scholten detected termination on a non-quiescent "
            "network (safety violation)");
      }
      // A peer may still be down at detection (all its obligations were
      // already met pre-crash). Restore it now so answer extraction reads
      // a live database. (Termination implies nothing undelivered exists,
      // so the restarts enqueue only re-handshake hellos.)
      network_.RestoreDownPeers();
      return Status::Ok();
    }
    DQSQ_ASSIGN_OR_RETURN(bool delivered, network_.Step());
    if (!delivered) {
      return InternalError(
          "network quiesced before the root detected termination (lost "
          "acknowledgment)");
    }
  }
  return ResourceExhaustedError("network did not terminate within budget");
}

size_t Cluster::TotalFacts() const {
  size_t total = 0;
  for (const auto& [id, peer] : peers_) total += peer->db().TotalFacts();
  return total;
}

std::map<std::string, size_t> Cluster::RelationCounts() const {
  std::map<std::string, size_t> out;
  for (const auto& [id, peer] : peers_) {
    const Database& db = peer->db();
    for (const RelId& rel : db.Relations()) {
      out[db.ctx().PredicateName(rel.pred)] += db.Find(rel)->size();
    }
  }
  return out;
}

size_t Cluster::CountFactsMatching(
    const std::function<bool(const std::string&)>& filter) const {
  size_t total = 0;
  for (const auto& [id, peer] : peers_) {
    total += peer->db().CountFactsMatching(filter);
  }
  return total;
}

}  // namespace dqsq::dist
