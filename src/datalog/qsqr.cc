#include "datalog/qsqr.h"

#include <algorithm>
#include <map>
#include <memory>

#include "common/logging.h"
#include "common/metrics.h"
#include "datalog/adornment.h"
#include "datalog/join_kernel.h"
#include "datalog/qsq_rewrite.h"

namespace dqsq {

namespace {

class QsqrEngine : public JoinHost {
 public:
  QsqrEngine(const Program& program, Database& db,
             const EvalOptions& options)
      : program_(program), db_(db), options_(options) {}

  StatusOr<QsqrResult> Run(const ParsedQuery& query) {
    // Index rules by head relation.
    for (size_t i = 0; i < program_.rules.size(); ++i) {
      const RelId& rel = program_.rules[i].head.rel;
      rules_by_head_[{rel.pred, rel.peer}].push_back(i);
    }

    // Seed the query's call pattern.
    Adornment adornment = QueryAdornment(query.atom);
    std::vector<TermId> seed;
    for (size_t i = 0; i < query.atom.args.size(); ++i) {
      if (!adornment[i]) continue;
      seed.push_back(GroundPattern(query.atom.args[i], Substitution(),
                                   db_.ctx().arena()));
    }
    RelId query_rel = query.atom.rel;
    DQSQ_RETURN_IF_ERROR(AddInput(query_rel, adornment, seed));

    // Global restart loop: recursive processing joins against answer
    // tables that may still be growing, so re-process every input until
    // nothing changes (the classical QSQR iteration).
    QsqrResult result;
    Tuple row_copy;
    for (;;) {
      if (++result.passes > options_.max_rounds) {
        return ResourceExhaustedError("QSQR exceeded max_rounds");
      }
      changed_ = false;
      // Patterns may be added while iterating: index-stable loop.
      for (size_t p = 0; p < patterns_.size(); ++p) {
        Pattern_ pat = patterns_[p];  // copy: vector may grow
        const Relation* in = db_.Find(pat.input);
        if (in == nullptr) continue;
        for (size_t row = 0; row < in->size(); ++row) {
          row_copy.resize(in->arity());
          for (uint32_t c = 0; c < in->arity(); ++c) {
            row_copy[c] = in->At(row, c);
          }
          DQSQ_RETURN_IF_ERROR(ProcessInput(pat, row_copy));
        }
      }
      if (!changed_) break;
    }

    // Extract answers for the query pattern.
    PatternKey key{query_rel.pred, query_rel.peer, adornment};
    Atom answer_atom{pattern_by_key_.at(key).answers, query.atom.args};
    result.answers = Ask(db_, answer_atom, query.num_vars);
    for (const Pattern_& pat : patterns_) {
      const Relation* ans = db_.Find(pat.answers);
      const Relation* in = db_.Find(pat.input);
      if (ans != nullptr) result.answer_facts += ans->size();
      if (in != nullptr) result.input_facts += in->size();
    }

    CountMetric("datalog.qsqr.runs");
    CountMetric("datalog.qsqr.passes", result.passes, {}, "passes");
    CountMetric("datalog.qsqr.call_patterns", patterns_.size(), {}, "patterns");
    CountMetric("datalog.qsqr.input_facts", result.input_facts, {}, "facts");
    CountMetric("datalog.qsqr.answer_facts", result.answer_facts, {}, "facts");
    return result;
  }

 private:
  struct PatternKey {
    PredicateId pred;
    SymbolId peer;
    Adornment adornment;
    friend auto operator<=>(const PatternKey&, const PatternKey&) = default;
  };
  struct Pattern_ {
    RelId rel;
    Adornment adornment;
    RelId input;    // in__R__<a>
    RelId answers;  // R__<a>
  };

  bool IsIdb(const RelId& rel) const {
    return rules_by_head_.contains({rel.pred, rel.peer});
  }

  /// Registers the call pattern (idempotent) and inserts one input tuple.
  /// New tuples are processed immediately (recursive QSQ).
  Status AddInput(const RelId& rel, const Adornment& adornment,
                  std::span<const TermId> tuple) {
    PatternKey key{rel.pred, rel.peer, adornment};
    auto it = pattern_by_key_.find(key);
    if (it == pattern_by_key_.end()) {
      Pattern_ pat;
      pat.rel = rel;
      pat.adornment = adornment;
      const std::string& base = db_.ctx().PredicateName(rel.pred);
      uint32_t bound = static_cast<uint32_t>(
          std::count(adornment.begin(), adornment.end(), true));
      pat.input = RelId{
          db_.ctx().InternPredicate(InputPredName(base, adornment), bound),
          rel.peer};
      pat.answers = RelId{db_.ctx().InternPredicate(
                              AnswerPredName(base, adornment),
                              db_.ctx().PredicateArity(rel.pred)),
                          rel.peer};
      it = pattern_by_key_.emplace(key, pat).first;
      patterns_.push_back(pat);
    }
    if (db_.Insert(it->second.input, tuple)) {
      changed_ = true;
      DQSQ_RETURN_IF_ERROR(CheckBudget());
      DQSQ_RETURN_IF_ERROR(ProcessInput(it->second, tuple));
    }
    return Status::Ok();
  }

  /// The compiled body plan for `rule_index` called with `adornment` (the
  /// initial bound set is the variables of the adorned head positions).
  const RulePlan& PlanFor(size_t rule_index, const Adornment& adornment) {
    auto key = std::make_pair(rule_index, adornment);
    auto it = plans_.find(key);
    if (it != plans_.end()) return it->second;
    const Rule& rule = program_.rules[rule_index];
    std::vector<VarId> initial_bound;
    for (size_t i = 0; i < rule.head.args.size(); ++i) {
      if (i < adornment.size() && adornment[i]) {
        rule.head.args[i].CollectVars(&initial_bound);
      }
    }
    return plans_
        .emplace(std::move(key),
                 CompileRulePlan(rule, initial_bound, db_.ctx().arena()))
        .first->second;
  }

  Status ProcessInput(const Pattern_& pattern,
                      std::span<const TermId> input) {
    auto rules = rules_by_head_.find({pattern.rel.pred, pattern.rel.peer});
    if (rules == rules_by_head_.end()) return Status::Ok();
    // Nested executions (recursive subqueries demanded while a body is
    // mid-join) each need their own scratch: index a pool by depth.
    size_t depth = depth_++;
    if (scratch_pool_.size() <= depth) {
      scratch_pool_.push_back(std::make_unique<JoinScratch>());
    }
    JoinScratch& scratch = *scratch_pool_[depth];
    Status status = Status::Ok();
    for (size_t rule_index : rules->second) {
      const Rule& rule = program_.rules[rule_index];
      const RulePlan& plan = PlanFor(rule_index, pattern.adornment);
      scratch.Prepare(rule.num_vars, rule.body.size());
      // Bind the bound head positions against the input tuple.
      bool ok = true;
      size_t next = 0;
      for (size_t i = 0; i < rule.head.args.size() && ok; ++i) {
        if (!pattern.adornment[i]) continue;
        ok = MatchPattern(rule.head.args[i], input[next++],
                          db_.ctx().arena(), scratch.subst, scratch.trail);
      }
      if (ok) {
        status = ExecuteRulePlan(plan, db_.ctx().arena(), *this, &pattern,
                                 scratch, /*probes=*/nullptr);
        if (!status.ok()) break;
      }
    }
    --depth_;
    return status;
  }

  Status ResolveSource(const RulePlan& plan, size_t pos, const void* /*ctx*/,
                       std::span<const TermId> key, Source* out) override {
    const AtomPlan& ap = plan.atoms[pos];
    const Atom& atom = *ap.atom;
    RelId source = atom.rel;
    if (IsIdb(atom.rel)) {
      // The key values of the bound columns are exactly the call's bound
      // arguments: demand the subquery, then join against its (current)
      // answer table.
      DQSQ_RETURN_IF_ERROR(AddInput(atom.rel, ap.adornment, key));
      PatternKey pkey{atom.rel.pred, atom.rel.peer, ap.adornment};
      source = pattern_by_key_.at(pkey).answers;
    }
    Relation* rel = db_.FindMutable(source);
    out->rel = rel;
    out->lo = 0;
    // Snapshot the extent: rows inserted by recursive subqueries below
    // this scan are picked up by the global restart loop, as before.
    out->hi = rel == nullptr ? 0 : static_cast<uint32_t>(rel->size());
    return Status::Ok();
  }

  Status OnMatch(const RulePlan& plan, const void* ctx,
                 JoinScratch& scratch) override {
    const Rule& rule = *plan.rule;
    const Pattern_& pattern = *static_cast<const Pattern_*>(ctx);
    for (const Diseq& d : rule.diseqs) {
      TermId lhs = GroundPattern(d.lhs, scratch.subst, db_.ctx().arena(),
                                 scratch.ground_stack);
      TermId rhs = GroundPattern(d.rhs, scratch.subst, db_.ctx().arena(),
                                 scratch.ground_stack);
      if (lhs == rhs) return Status::Ok();
    }
    scratch.tuple.clear();
    for (const Pattern& p : rule.head.args) {
      TermId t = GroundPattern(p, scratch.subst, db_.ctx().arena(),
                               scratch.ground_stack);
      if (options_.max_term_depth > 0 &&
          db_.ctx().arena().Depth(t) > options_.max_term_depth) {
        if (options_.depth_policy == EvalOptions::DepthPolicy::kError) {
          return ResourceExhaustedError("term depth budget exceeded");
        }
        return Status::Ok();
      }
      scratch.tuple.push_back(t);
    }
    if (db_.Insert(pattern.answers, scratch.tuple)) {
      changed_ = true;
      DQSQ_RETURN_IF_ERROR(CheckBudget());
    }
    return Status::Ok();
  }

  Status CheckBudget() {
    if (db_.TotalFacts() > options_.max_facts) {
      return ResourceExhaustedError("QSQR exceeded max_facts");
    }
    return Status::Ok();
  }

  const Program& program_;
  Database& db_;
  const EvalOptions& options_;
  std::map<std::pair<uint32_t, uint32_t>, std::vector<size_t>> rules_by_head_;
  std::map<PatternKey, Pattern_> pattern_by_key_;
  std::vector<Pattern_> patterns_;
  std::map<std::pair<size_t, Adornment>, RulePlan> plans_;
  std::vector<std::unique_ptr<JoinScratch>> scratch_pool_;
  size_t depth_ = 0;
  bool changed_ = false;
};

}  // namespace

StatusOr<QsqrResult> QsqrSolve(const Program& program, Database& db,
                               const ParsedQuery& query,
                               const EvalOptions& options) {
  DQSQ_RETURN_IF_ERROR(ValidateProgram(program, db.ctx()));
  for (const Rule& rule : program.rules) {
    if (!rule.negative.empty()) {
      return UnimplementedError("QSQR supports positive programs only");
    }
  }
  QsqrEngine engine(program, db, options);
  return engine.Run(query);
}

}  // namespace dqsq
