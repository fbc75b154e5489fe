#include "datalog/eval.h"

#include <algorithm>
#include <unordered_map>

#include "common/bitset.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "datalog/join_kernel.h"

namespace dqsq {

namespace {

// EvalStats fields published as datalog.eval.*{mode} counters.
constexpr StatCounter<EvalStats> kEvalCounters[] = {
    {"datalog.eval.rounds", "", &EvalStats::rounds},
    {"datalog.eval.facts_derived", "facts", &EvalStats::facts_derived},
    {"datalog.eval.rule_firings", "", &EvalStats::rule_firings},
    {"datalog.eval.join_probes", "rows", &EvalStats::join_probes},
    {"datalog.eval.depth_pruned", "facts", &EvalStats::depth_pruned},
    {"datalog.eval.delta_rows", "rows", &EvalStats::delta_rows},
};

// One evaluation mode's registry handles, resolved on the mode's first
// run. Every run publishes all eight metrics, zero-valued or not.
struct ModeCounters {
  explicit ModeCounters(const char* mode)
      : fields(kEvalCounters, {{"mode", mode}}),
        runs(MetricsRegistry::Global().GetCounter("datalog.eval.runs",
                                                  {{"mode", mode}})),
        budget_facts_used(MetricsRegistry::Global().GetGauge(
            "datalog.eval.budget_facts_used", {{"mode", mode}}, "facts")) {
    fields.RegisterAll();
  }
  StatsPublisher<EvalStats> fields;
  Counter& runs;
  Gauge& budget_facts_used;
};

ModeCounters& CountersFor(bool seminaive) {
  if (seminaive) {
    static ModeCounters counters("seminaive");
    return counters;
  }
  static ModeCounters counters("naive");
  return counters;
}

// Evaluation of one program over one database in watermarked passes
// (DESIGN.md §5a, "Watermarked passes"). Each plan remembers, per body
// position, how many rows of that relation it has already joined; a visit
// joins exactly the row combinations holding at least one row past those
// watermarks, then advances them. A pass visits the dirty plans in
// ascending rule order, and a head insertion marks the relation's readers
// dirty: readers after the inserting rule run later in the same pass, the
// others in the next one. Rule bodies run through the batched join kernel
// (join_kernel.h); this class supplies the row ranges and the head
// emission.
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
  // A relation the layer's rule bodies read.
  struct RelState {
    Relation* relation = nullptr;   // null until the relation exists
    std::vector<uint32_t> readers;  // plans reading it, ascending, once each
  };

  // One body position of one plan.
  struct AtomState {
    RelState* rel = nullptr;
    uint32_t mark = 0;  // rows [0, mark) already joined at this position
    uint32_t cur = 0;   // rows present when the current visit started
  };

  // Per-execution kernel context: the position that reads only rows past
  // its watermark, plus the plan's atom states.
  struct EvalCtx {
    size_t delta_pos;
    const AtomState* atoms;
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
  // loops accumulate into stats_ and the run's totals are published here.
  void FlushMetrics() {
    ModeCounters& counters = CountersFor(options_.seminaive);
    counters.runs.Increment();
    counters.fields.Add(EvalStats{}, stats_);
    counters.budget_facts_used.Set(static_cast<int64_t>(db_.TotalFacts()));
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
    BuildLayerState(plans);

    // Semi-naive: a pass ends the layer's fixpoint when no plan is dirty.
    // Naive: every plan is dirty every pass, until a pass derives nothing.
    size_t before = 0;
    for (size_t pass = 0;; ++pass) {
      bool done = options_.seminaive ? dirty_.FindNext(0) == DynBitset::npos
                                     : stats_.facts_derived == before;
      if (pass > 0 && done) break;
      if (pass >= options_.max_rounds) {
        CountMetric("datalog.eval.budget_exhausted", 1,
                    {{"budget", "rounds"}});
        return ResourceExhaustedError("evaluation exceeded max_rounds");
      }
      ++stats_.rounds;
      CountDeltaRows();
      before = stats_.facts_derived;
      if (!options_.seminaive) {
        for (size_t i = 0; i < plans.size(); ++i) dirty_.Set(i);
      }
      for (size_t i = dirty_.FindNext(0); i != DynBitset::npos;
           i = dirty_.FindNext(i + 1)) {
        dirty_.Clear(i);
        DQSQ_RETURN_IF_ERROR(
            VisitPlan(plans[i], static_cast<uint32_t>(i), pass));
      }
      if (options_.round_hook != nullptr) {
        options_.round_hook(options_.round_hook_ctx, pass);
      }
    }
    CountDeltaRows();
    return Status::Ok();
  }

  // One RelState per relation the layer's bodies read, with its readers;
  // every plan atom points at its relation's state, with a zero
  // watermark. The first pass's dirty plans: the readers of every relation
  // holding rows now, and the body-less rules.
  void BuildLayerState(const std::vector<RulePlan>& plans) {
    size_t total_atoms = 0;
    for (const RulePlan& plan : plans) total_atoms += plan.atoms.size();
    rels_.clear();
    rels_.reserve(total_atoms);  // never reallocates: pointers stay valid
    atoms_.clear();
    atoms_.reserve(total_atoms);
    first_atom_.clear();
    head_rels_.clear();
    dirty_ = DynBitset(plans.size());
    std::unordered_map<RelId, RelState*, RelIdHash> by_rel;
    for (uint32_t i = 0; i < plans.size(); ++i) {
      first_atom_.push_back(atoms_.size());
      if (plans[i].atoms.empty()) dirty_.Set(i);
      for (const AtomPlan& atom : plans[i].atoms) {
        auto [it, inserted] = by_rel.try_emplace(atom.atom->rel, nullptr);
        if (inserted) {
          it->second = &rels_.emplace_back();
          it->second->relation = db_.FindMutable(atom.atom->rel);
        }
        std::vector<uint32_t>& readers = it->second->readers;
        if (readers.empty() || readers.back() != i) readers.push_back(i);
        atoms_.push_back(AtomState{it->second});
      }
    }
    for (const RulePlan& plan : plans) {
      auto it = by_rel.find(plan.rule->head.rel);
      head_rels_.push_back(it == by_rel.end() ? nullptr : it->second);
    }
    for (const RelState& rel : rels_) {
      if (rel.relation != nullptr && rel.relation->size() > 0) {
        MarkReaders(rel);
      }
    }
    layer_rows_ = 0;
  }

  void MarkReaders(const RelState& rel) {
    for (uint32_t plan : rel.readers) dirty_.Set(plan);
  }

  // Rows entering the layer since its last count, over every relation
  // (read or not): this evaluator is the only writer, so the database grew
  // by exactly the facts derived since. Counted at each pass start and at
  // the layer's end, so a layer adds the database's size at its end.
  void CountDeltaRows() {
    size_t rows = initial_facts_ + stats_.facts_derived;
    stats_.delta_rows += rows - layer_rows_;
    layer_rows_ = rows;
  }

  Status VisitPlan(const RulePlan& plan, uint32_t index, size_t pass) {
    ++stats_.rule_visits;
    const Rule& rule = *plan.rule;
    // The head relation is looked up lazily on first emission (an eager
    // GetOrCreate would surface empty relations in Relations()/SaveState
    // and break distributed byte stability), then cached for the visit —
    // node addresses in the relation map are stable across inserts.
    head_rel_ = nullptr;
    head_state_ = head_rels_[index];
    head_marked_ = false;
    if (rule.body.empty()) {
      // Facts (and rules whose body is only ground negations/diseqs) fire
      // once, in the first pass of their stratum.
      if (pass > 0) return Status::Ok();
      scratch_.Prepare(rule.num_vars, 0);
      if (!CheckDiseqs(rule)) return Status::Ok();
      if (!CheckNegatives(rule)) return Status::Ok();
      return EmitHead(rule);
    }
    const size_t n = rule.body.size();
    AtomState* atoms = atoms_.data() + first_atom_[index];
    // Combinations past the watermarks, one execution per grown position
    // d: positions before d read [0, mark), d reads [mark, cur), later
    // positions read [0, cur). An execution with an empty range joins
    // nothing and is skipped: every cur must be non-zero, and d may not
    // pass the first position whose watermark is still zero.
    bool all_present = true;
    size_t last_delta = n - 1;
    for (size_t p = 0; p < n; ++p) {
      const Relation* rel = atoms[p].rel->relation;
      atoms[p].cur = rel == nullptr ? 0 : static_cast<uint32_t>(rel->size());
      all_present = all_present && atoms[p].cur > 0;
      if (atoms[p].mark == 0) last_delta = std::min(last_delta, p);
    }
    if (all_present) {
      for (size_t d = 0; d <= last_delta; ++d) {
        if (atoms[d].cur == atoms[d].mark) continue;
        scratch_.Prepare(rule.num_vars, n);
        EvalCtx ctx{d, atoms};
        DQSQ_RETURN_IF_ERROR(ExecuteRulePlan(plan, db_.ctx().arena(), *this,
                                             &ctx, scratch_,
                                             &stats_.join_probes));
      }
    }
    // Naive mode keeps every watermark at zero: each visit is a full join.
    if (options_.seminaive) {
      for (size_t p = 0; p < n; ++p) atoms[p].mark = atoms[p].cur;
    }
    return Status::Ok();
  }

  // A visit's ranges depend only on (plan, pos, delta_pos), all fixed for
  // one kernel execution: let the kernel resolve each atom once and cache.
  bool SourcesAreStatic() const override { return true; }

  Status ResolveSource(const RulePlan& /*plan*/, size_t pos, const void* ctx,
                       std::span<const TermId> /*key*/,
                       Source* out) override {
    const EvalCtx& ec = *static_cast<const EvalCtx*>(ctx);
    const AtomState& atom = ec.atoms[pos];
    uint32_t lo = pos == ec.delta_pos ? atom.mark : 0;
    uint32_t hi = pos < ec.delta_pos ? atom.mark : atom.cur;
    out->rel = lo < hi ? atom.rel->relation : nullptr;
    out->lo = lo;
    out->hi = hi;
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
      // A relation born mid-layer: its readers' next visits see it.
      if (head_state_ != nullptr) head_state_->relation = head_rel_;
    }
    if (head_rel_->Insert(scratch_.tuple)) {
      ++stats_.facts_derived;
      if (head_state_ != nullptr && !head_marked_) {
        head_marked_ = true;
        MarkReaders(*head_state_);
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
  size_t initial_facts_ = 0;        // db size when evaluation began
  Relation* head_rel_ = nullptr;    // per-visit cache (lazy)
  RelState* head_state_ = nullptr;  // the visited head's state, if read
  bool head_marked_ = false;        // its readers marked by this visit
  size_t layer_rows_ = 0;  // database rows at the layer's last count
  // Per layer (BuildLayerState): relation states, plan i's body-atom states
  // at atoms_[first_atom_[i]...], each plan's head state (null when no
  // body reads the head), and the dirty plans.
  std::vector<RelState> rels_;
  std::vector<AtomState> atoms_;
  std::vector<size_t> first_atom_;
  std::vector<RelState*> head_rels_;
  DynBitset dirty_;
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
