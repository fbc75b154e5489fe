#include "datalog/eval.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/metrics.h"
#include "datalog/join_kernel.h"

namespace dqsq {

namespace {

// Evaluation of one program over one database. Semi-naive bookkeeping is
// row-count based: each relation's rows appended during round r form the
// delta consumed in round r+1. Rounds are delta-driven (DESIGN.md,
// "Delta-driven rounds"): every relation a rule body reads has one
// Snapshot that lists its reader plans, heads log the snapshots they grow,
// and a semi-naive round visits only the readers of relations whose delta
// is non-empty. Rule bodies run through the batched join kernel
// (join_kernel.h); this class supplies the snapshot row ranges and the
// head emission.
class Evaluator : public JoinHost {
 public:
  Evaluator(const Program& program, Database& db, const EvalOptions& options)
      : program_(program), db_(db), options_(options) {}

  StatusOr<EvalStats> Run() {
    initial_facts_ = db_.TotalFacts();
    Status status = RunImpl();
    FlushMetrics();
    if (!status.ok()) return status;
    return stats_;
  }

 private:
  // The layer's view of one relation its rule bodies read.
  struct Snapshot {
    Relation* relation = nullptr;  // null until the relation exists
    size_t base = 0;      // rows before the previous round
    size_t cur = 0;       // rows at the start of this round
    bool grown = false;   // listed on grown_ (inserted into this round)
    std::vector<uint32_t> readers;  // plans reading it, ascending, once each
  };

  // Per-execution kernel context: where the delta is placed in the body
  // (body.size() = full snapshot scan, used by naive mode and round 0),
  // plus the snapshots of the plan's body atoms.
  struct EvalCtx {
    size_t delta_pos;
    Snapshot* const* snaps;
  };

  Status RunImpl() {
    // Stratified evaluation: rules of stratum 0, 1, ... to their own
    // fixpoints in order, so every negated relation is complete before it
    // is read. Positive programs form a single stratum.
    DQSQ_ASSIGN_OR_RETURN(std::vector<uint32_t> strata,
                          StratifyProgram(program_, db_.ctx()));
    uint32_t max_stratum = 0;
    for (uint32_t s : strata) max_stratum = std::max(max_stratum, s);
    std::vector<const Rule*> layer;
    for (uint32_t stratum = 0; stratum <= max_stratum; ++stratum) {
      layer.clear();
      for (size_t i = 0; i < program_.rules.size(); ++i) {
        if (strata[i] == stratum) layer.push_back(&program_.rules[i]);
      }
      if (layer.empty()) continue;
      DQSQ_RETURN_IF_ERROR(RunLayer(layer));
    }
    return Status::Ok();
  }

  // One registry update per evaluation (also on error paths): the hot
  // loops accumulate into plain size_t fields and the totals land here.
  void FlushMetrics() {
    auto& registry = MetricsRegistry::Global();
    Labels mode{{"mode", options_.seminaive ? "seminaive" : "naive"}};
    registry.GetCounter("datalog.eval.runs", mode).Increment();
    registry.GetCounter("datalog.eval.rounds", mode).Increment(stats_.rounds);
    registry.GetCounter("datalog.eval.facts_derived", mode, "facts")
        .Increment(stats_.facts_derived);
    registry.GetCounter("datalog.eval.rule_firings", mode)
        .Increment(stats_.rule_firings);
    registry.GetCounter("datalog.eval.join_probes", mode, "rows")
        .Increment(stats_.join_probes);
    registry.GetCounter("datalog.eval.depth_pruned", mode, "facts")
        .Increment(stats_.depth_pruned);
    registry.GetCounter("datalog.eval.delta_rows", mode, "rows")
        .Increment(delta_rows_);
    registry.GetGauge("datalog.eval.budget_facts_used", mode, "facts")
        .Set(static_cast<int64_t>(db_.TotalFacts()));
  }

  Status RunLayer(const std::vector<const Rule*>& layer) {
    // Compile each rule's body once per layer; the plans ground every
    // constant pattern up front, so the per-row loops never re-intern.
    std::vector<RulePlan> plans;
    plans.reserve(layer.size());
    size_t max_atoms = 0;
    for (const Rule* rule : layer) {
      plans.push_back(CompileRulePlan(*rule, {}, db_.ctx().arena()));
      max_atoms = std::max(max_atoms, rule->body.size());
    }
    if (scratch_.levels.size() < max_atoms) scratch_.levels.resize(max_atoms);
    BuildSnapshots(plans);

    for (size_t round = 0;; ++round) {
      if (round >= options_.max_rounds) {
        CountMetric("datalog.eval.budget_exhausted", 1,
                    {{"budget", "rounds"}});
        return ResourceExhaustedError("evaluation exceeded max_rounds");
      }
      ++stats_.rounds;
      TakeSnapshot();
      size_t before = stats_.facts_derived;
      if (options_.seminaive && round > 0) {
        // A plan with no delta at any body position would join nothing.
        CollectActivePlans();
        for (uint32_t i : visit_) {
          DQSQ_RETURN_IF_ERROR(EvalRule(plans[i], i, round));
        }
      } else {
        for (uint32_t i = 0; i < plans.size(); ++i) {
          DQSQ_RETURN_IF_ERROR(EvalRule(plans[i], i, round));
        }
      }
      if (options_.round_hook != nullptr) {
        options_.round_hook(options_.round_hook_ctx, round);
      }
      if (stats_.facts_derived == before) break;  // fixpoint
    }
    return Status::Ok();
  }

  // One snapshot per relation the layer's bodies read, with its readers;
  // every plan atom points at its relation's snapshot. Relations existing
  // now start on the grown list, so round 0 sees them in full.
  void BuildSnapshots(const std::vector<RulePlan>& plans) {
    size_t total_atoms = 0;
    for (const RulePlan& plan : plans) total_atoms += plan.atoms.size();
    snapshots_.clear();
    snapshots_.reserve(total_atoms);  // never reallocates: pointers stay valid
    atom_snaps_.clear();
    atom_snaps_.reserve(total_atoms);
    first_atom_.clear();
    head_snaps_.clear();
    std::unordered_map<RelId, Snapshot*, RelIdHash> by_rel;
    for (uint32_t i = 0; i < plans.size(); ++i) {
      first_atom_.push_back(atom_snaps_.size());
      for (const AtomPlan& atom : plans[i].atoms) {
        auto [it, inserted] = by_rel.try_emplace(atom.atom->rel, nullptr);
        if (inserted) {
          it->second = &snapshots_.emplace_back();
          it->second->relation = db_.FindMutable(atom.atom->rel);
        }
        std::vector<uint32_t>& readers = it->second->readers;
        if (readers.empty() || readers.back() != i) readers.push_back(i);
        atom_snaps_.push_back(it->second);
      }
    }
    for (const RulePlan& plan : plans) {
      auto it = by_rel.find(plan.rule->head.rel);
      head_snaps_.push_back(it == by_rel.end() ? nullptr : it->second);
    }
    active_.clear();
    active_.reserve(snapshots_.size());
    grown_.clear();
    grown_.reserve(snapshots_.size());
    for (Snapshot& snap : snapshots_) {
      if (snap.relation == nullptr || snap.relation->size() == 0) continue;
      snap.grown = true;
      grown_.push_back(&snap);
    }
    visit_.reserve(total_atoms);  // bounds every reader list put together
    layer_rows_ = 0;
  }

  // Delta = [base, cur): closes the previous round's deltas and advances
  // the snapshots inserted into since. Every other snapshot keeps an empty
  // delta without being touched.
  void TakeSnapshot() {
    // Rows entering some delta, over every relation (read or not): this
    // evaluator is the only writer, so the database grew by exactly the
    // facts derived since the last snapshot.
    size_t rows = initial_facts_ + stats_.facts_derived;
    delta_rows_ += rows - layer_rows_;
    layer_rows_ = rows;
    for (Snapshot* snap : active_) snap->base = snap->cur;
    for (Snapshot* snap : grown_) {
      snap->base = snap->cur;
      snap->cur = snap->relation->size();
      snap->grown = false;
    }
    active_.swap(grown_);
    grown_.clear();
  }

  // visit_ = the readers of this round's non-empty deltas, ascending (the
  // order a full visit would use, so insertion order is unchanged).
  void CollectActivePlans() {
    visit_.clear();
    for (const Snapshot* snap : active_) {
      visit_.insert(visit_.end(), snap->readers.begin(), snap->readers.end());
    }
    std::sort(visit_.begin(), visit_.end());
    visit_.erase(std::unique(visit_.begin(), visit_.end()), visit_.end());
  }

  Status EvalRule(const RulePlan& plan, uint32_t index, size_t round) {
    ++stats_.rule_visits;
    const Rule& rule = *plan.rule;
    // The head relation is looked up lazily on first emission (an eager
    // GetOrCreate would surface empty relations in Relations()/SaveState
    // and break distributed byte stability), then cached for the round —
    // node addresses in the relation map are stable across inserts.
    head_rel_ = nullptr;
    head_snap_ = head_snaps_[index];
    if (rule.body.empty()) {
      // Facts (and rules whose body is only ground negations/diseqs) fire
      // once, in round 0 of their stratum.
      if (round > 0) return Status::Ok();
      scratch_.Prepare(rule.num_vars, 0);
      if (!CheckDiseqs(rule)) return Status::Ok();
      if (!CheckNegatives(rule)) return Status::Ok();
      return EmitHead(rule);
    }
    Snapshot* const* snaps = atom_snaps_.data() + first_atom_[index];
    if (!options_.seminaive || round == 0) {
      // Full join over the snapshot extents (round 0 seeds the deltas).
      scratch_.Prepare(rule.num_vars, rule.body.size());
      EvalCtx ctx{rule.body.size(), snaps};
      return ExecuteRulePlan(plan, db_.ctx().arena(), *this, &ctx, scratch_,
                             &stats_.join_probes);
    }
    // Semi-naive: one pass per body position that has a non-empty delta.
    for (size_t d = 0; d < rule.body.size(); ++d) {
      if (snaps[d]->cur == snaps[d]->base) continue;
      scratch_.Prepare(rule.num_vars, rule.body.size());
      EvalCtx ctx{d, snaps};
      DQSQ_RETURN_IF_ERROR(ExecuteRulePlan(plan, db_.ctx().arena(), *this,
                                           &ctx, scratch_,
                                           &stats_.join_probes));
    }
    return Status::Ok();
  }

  // Snapshot ranges depend only on (plan, pos, delta_pos), all fixed for
  // one kernel execution: let the kernel resolve each atom once and cache.
  bool SourcesAreStatic() const override { return true; }

  // Row range an atom at position `pos` may scan when the delta is placed
  // at `delta_pos`: positions before the delta see only old rows, the
  // delta position sees exactly the delta, later positions see everything
  // up to the round snapshot. delta_pos == body.size() = full snapshot.
  Status ResolveSource(const RulePlan& plan, size_t pos, const void* ctx,
                       std::span<const TermId> /*key*/,
                       Source* out) override {
    const EvalCtx& ec = *static_cast<const EvalCtx*>(ctx);
    const Snapshot& snap = *ec.snaps[pos];
    size_t lo, hi;
    if (pos < ec.delta_pos) {
      lo = 0;
      hi = snap.base;  // old rows only
    } else if (pos == ec.delta_pos) {
      lo = snap.base;
      hi = snap.cur;
    } else {
      lo = 0;
      hi = snap.cur;
    }
    if (ec.delta_pos == plan.rule->body.size()) {
      lo = 0;
      hi = snap.cur;
    }
    out->rel = lo < hi ? snap.relation : nullptr;
    out->lo = static_cast<uint32_t>(lo);
    out->hi = static_cast<uint32_t>(hi);
    return Status::Ok();
  }

  Status OnMatch(const RulePlan& plan, const void* /*ctx*/,
                 JoinScratch& /*scratch*/) override {
    const Rule& rule = *plan.rule;
    if (!CheckDiseqs(rule)) return Status::Ok();
    if (!CheckNegatives(rule)) return Status::Ok();
    ++stats_.rule_firings;
    return EmitHead(rule);
  }

  // Safe, stratified negation: the negated atom is ground here and its
  // relation's stratum is already complete.
  bool CheckNegatives(const Rule& rule) {
    for (const Atom& atom : rule.negative) {
      scratch_.tuple.clear();
      for (const Pattern& p : atom.args) {
        scratch_.tuple.push_back(GroundPattern(p, scratch_.subst,
                                               db_.ctx().arena(),
                                               scratch_.ground_stack));
      }
      const Relation* rel = db_.Find(atom.rel);
      if (rel != nullptr && rel->Contains(scratch_.tuple)) return false;
    }
    return true;
  }

  bool CheckDiseqs(const Rule& rule) {
    for (const Diseq& d : rule.diseqs) {
      TermId lhs = TryGroundPattern(d.lhs, scratch_.subst, db_.ctx().arena(),
                                    scratch_.ground_stack);
      TermId rhs = TryGroundPattern(d.rhs, scratch_.subst, db_.ctx().arena(),
                                    scratch_.ground_stack);
      DQSQ_DCHECK(lhs != kNoTerm && rhs != kNoTerm);
      if (lhs == rhs) return false;
    }
    return true;
  }

  Status EmitHead(const Rule& rule) {
    scratch_.tuple.clear();
    for (const Pattern& p : rule.head.args) {
      // Plain head variables dominate; skip the grounding walk for them.
      TermId t = p.kind() == Pattern::Kind::kVar
                     ? scratch_.subst[p.var()]
                     : GroundPattern(p, scratch_.subst, db_.ctx().arena(),
                                     scratch_.ground_stack);
      DQSQ_DCHECK(t != kNoTerm);  // range restriction: head vars are bound
      if (options_.max_term_depth > 0 &&
          db_.ctx().arena().Depth(t) > options_.max_term_depth) {
        if (options_.depth_policy == EvalOptions::DepthPolicy::kError) {
          CountMetric("datalog.eval.budget_exhausted", 1,
                      {{"budget", "depth"}});
          return ResourceExhaustedError("term depth budget exceeded");
        }
        ++stats_.depth_pruned;
        return Status::Ok();
      }
      scratch_.tuple.push_back(t);
    }
    if (head_rel_ == nullptr) {
      head_rel_ = &db_.GetOrCreate(rule.head.rel);
      // A relation born mid-layer: its readers see it from the next round.
      if (head_snap_ != nullptr) head_snap_->relation = head_rel_;
    }
    if (head_rel_->Insert(scratch_.tuple)) {
      ++stats_.facts_derived;
      if (head_snap_ != nullptr && !head_snap_->grown) {
        head_snap_->grown = true;
        grown_.push_back(head_snap_);
      }
      // TotalFacts() == initial_facts_ + facts_derived: this evaluator is
      // the only writer, and every successful insert is counted above.
      if (initial_facts_ + stats_.facts_derived > options_.max_facts) {
        CountMetric("datalog.eval.budget_exhausted", 1,
                    {{"budget", "facts"}});
        return ResourceExhaustedError("evaluation exceeded max_facts");
      }
    }
    return Status::Ok();
  }

  const Program& program_;
  Database& db_;
  const EvalOptions& options_;
  EvalStats stats_;
  size_t initial_facts_ = 0;       // db size when evaluation began
  Relation* head_rel_ = nullptr;   // per-EvalRule cache (lazy)
  Snapshot* head_snap_ = nullptr;  // the EvalRule head's snapshot, if read
  size_t delta_rows_ = 0;  // rows that entered some round's delta
  size_t layer_rows_ = 0;  // database rows at the layer's last snapshot
  // Per layer (BuildSnapshots): snapshots, plan i's body-atom snapshots at
  // atom_snaps_[first_atom_[i]...], each plan's head snapshot (null when no
  // body reads the head), and the round's delta bookkeeping.
  std::vector<Snapshot> snapshots_;
  std::vector<Snapshot*> atom_snaps_;
  std::vector<size_t> first_atom_;
  std::vector<Snapshot*> head_snaps_;
  std::vector<Snapshot*> active_;  // snapshots with a non-empty delta
  std::vector<Snapshot*> grown_;   // snapshots inserted into this round
  std::vector<uint32_t> visit_;    // this round's plans, ascending
  JoinScratch scratch_;
};

}  // namespace

StatusOr<EvalStats> Evaluate(const Program& program, Database& db,
                             const EvalOptions& options) {
  return Evaluator(program, db, options).Run();
}

std::vector<Tuple> Ask(Database& db, const Atom& query, uint32_t num_vars) {
  std::vector<Tuple> out;
  Relation* rel = db.FindMutable(query.rel);
  if (rel == nullptr) return out;
  std::vector<VarId> query_vars;
  for (const Pattern& p : query.args) p.CollectVars(&query_vars);
  std::sort(query_vars.begin(), query_vars.end());
  query_vars.erase(std::unique(query_vars.begin(), query_vars.end()),
                   query_vars.end());
  Substitution subst(num_vars, kNoTerm);
  std::vector<VarId> trail;
  for (size_t row = 0; row < rel->size(); ++row) {
    size_t mark = trail.size();
    bool ok = true;
    for (uint32_t c = 0; c < query.args.size(); ++c) {
      if (!MatchPattern(query.args[c], rel->At(row, c), db.ctx().arena(),
                        subst, trail)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      Tuple t;
      t.reserve(query_vars.size());
      for (VarId v : query_vars) t.push_back(subst[v]);
      out.push_back(std::move(t));
    }
    UndoTrail(subst, trail, mark);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace dqsq
