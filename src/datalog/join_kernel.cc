#include "datalog/join_kernel.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace dqsq {

RulePlan CompileRulePlan(const Rule& rule, std::span<const VarId> initial_bound,
                         TermArena& arena) {
  RulePlan plan;
  plan.rule = &rule;
  plan.atoms.reserve(rule.body.size());
  // bound_at[v]: 0 if v is bound before the body, i + 1 if body atom i
  // binds it first, kUnbound if nothing has bound it yet. While atom i
  // compiles, bound_at[v] <= i means bound before the atom and i + 1 means
  // bound by an earlier column of it (a duplicate occurrence checks
  // instead of binding).
  constexpr uint32_t kUnbound = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> bound_at(rule.num_vars, kUnbound);
  for (VarId v : initial_bound) bound_at[v] = 0;
  Substitution empty_subst;
  std::vector<VarId> vars;
  for (uint32_t i = 0; i < rule.body.size(); ++i) {
    const Atom& atom = rule.body[i];
    AtomPlan ap;
    ap.atom = &atom;
    const size_t ncols = atom.args.size();
    ap.adornment.reserve(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      const Pattern& p = atom.args[c];
      vars.clear();
      p.CollectVars(&vars);
      bool bound_before = true;
      for (VarId v : vars) bound_before = bound_before && bound_at[v] <= i;
      ColStep step;
      step.col = c;
      if (bound_before) {
        if (vars.empty()) {
          step.kind = ColStep::Kind::kKeyConst;
          step.value = GroundPattern(p, empty_subst, arena);
        } else if (p.kind() == Pattern::Kind::kVar) {
          step.kind = ColStep::Kind::kKeyVar;
          step.var = p.var();
        } else {
          step.kind = ColStep::Kind::kKeyComplex;
          step.pattern = &p;
        }
        ap.key_steps.push_back(step);
        ap.adornment.push_back(true);
      } else {
        if (p.kind() == Pattern::Kind::kVar) {
          step.kind = bound_at[p.var()] != kUnbound ? ColStep::Kind::kCheckVar
                                                    : ColStep::Kind::kBind;
          step.var = p.var();
        } else {
          step.kind = ColStep::Kind::kMatch;
          step.pattern = &p;
        }
        ap.row_steps.push_back(step);
        ap.adornment.push_back(false);
      }
      for (VarId v : vars) bound_at[v] = std::min(bound_at[v], i + 1);
    }
    if (ncols <= 32) {
      for (const ColStep& s : ap.key_steps) ap.probe_mask |= 1u << s.col;
    }
    plan.atoms.push_back(std::move(ap));
  }
  return plan;
}

namespace {

// Row steps for one candidate row. Returns false on mismatch; bindings it
// made stay on the trail for the caller's UndoTrail.
inline bool ApplyRowSteps(const AtomPlan& ap, const Relation& rel,
                          uint32_t row, const TermArena& arena,
                          JoinScratch& scratch) {
  for (const ColStep& s : ap.row_steps) {
    TermId value = rel.At(row, s.col);
    switch (s.kind) {
      case ColStep::Kind::kBind:
        scratch.subst[s.var] = value;
        scratch.trail.push_back(s.var);
        break;
      case ColStep::Kind::kCheckVar:
        if (scratch.subst[s.var] != value) return false;
        break;
      case ColStep::Kind::kMatch:
        if (!MatchPattern(*s.pattern, value, arena, scratch.subst,
                          scratch.trail)) {
          return false;
        }
        break;
      default:
        DQSQ_CHECK(false);  // key kinds never appear in row_steps
    }
  }
  return true;
}

Status JoinLevel(const RulePlan& plan, size_t pos, TermArena& arena,
                 JoinHost& host, const void* ctx, bool static_sources,
                 JoinScratch& scratch, size_t* probes) {
  if (pos == plan.atoms.size()) return host.OnMatch(plan, ctx, scratch);
  const AtomPlan& ap = plan.atoms[pos];
  JoinScratch::Level& level = scratch.levels[pos];

  // Key values for the bound columns, in column order. This doubles as the
  // probe key (mask columns ascend) and as QSQ's demanded input tuple.
  level.key.clear();
  for (const ColStep& s : ap.key_steps) {
    switch (s.kind) {
      case ColStep::Kind::kKeyConst:
        level.key.push_back(s.value);
        break;
      case ColStep::Kind::kKeyVar:
        level.key.push_back(scratch.subst[s.var]);
        break;
      default: {
        TermId t = TryGroundPattern(*s.pattern, scratch.subst, arena,
                                    scratch.ground_stack);
        DQSQ_DCHECK(t != kNoTerm);
        level.key.push_back(t);
        break;
      }
    }
  }

  JoinSource src;
  if (static_sources && level.src_valid) {
    src = level.src;
  } else {
    DQSQ_RETURN_IF_ERROR(host.ResolveSource(plan, pos, ctx, level.key, &src));
    if (static_sources) {
      level.src = src;
      level.src_valid = true;
    }
  }
  if (src.rel == nullptr || src.lo >= src.hi) return Status::Ok();
  Relation& rel = *src.rel;

  if (ap.probe_mask != 0) {
    // Memoized probe: when consecutive parent bindings share the join key,
    // the previous result still holds — the probed window is immutable
    // under appends. Probed rows are counted either way, exactly like the
    // tuple-at-a-time evaluator's per-candidate counting.
    bool hit = level.memo_valid && level.memo_rel == &rel &&
               level.memo_lo == src.lo && level.memo_hi == src.hi &&
               level.memo_key == level.key;
    if (!hit) {
      rel.Probe(ap.probe_mask, level.key, level.rows, src.lo, src.hi);
      level.memo_rel = &rel;
      level.memo_key = level.key;
      level.memo_lo = src.lo;
      level.memo_hi = src.hi;
      level.memo_valid = true;
    }
    if (probes != nullptr) *probes += level.rows.size();
    for (size_t i = 0; i < level.rows.size(); ++i) {
      uint32_t row = level.rows[i];
      size_t mark = scratch.trail.size();
      Status s = Status::Ok();
      if (ApplyRowSteps(ap, rel, row, arena, scratch)) {
        s = JoinLevel(plan, pos + 1, arena, host, ctx, static_sources,
                      scratch, probes);
      }
      UndoTrail(scratch.subst, scratch.trail, mark);
      DQSQ_RETURN_IF_ERROR(s);
    }
    return Status::Ok();
  }

  // Scan: no usable index (nothing bound, or arity > 32). Key columns, if
  // any, are checked by direct value comparison — equivalent to matching
  // the ground pattern, since ground terms are hash-consed.
  if (probes != nullptr) *probes += src.hi - src.lo;
  for (uint32_t row = src.lo; row < src.hi; ++row) {
    bool key_ok = true;
    size_t k = 0;
    for (const ColStep& s : ap.key_steps) {
      if (rel.At(row, s.col) != level.key[k++]) {
        key_ok = false;
        break;
      }
    }
    if (!key_ok) continue;
    size_t mark = scratch.trail.size();
    Status s = Status::Ok();
    if (ApplyRowSteps(ap, rel, row, arena, scratch)) {
      s = JoinLevel(plan, pos + 1, arena, host, ctx, static_sources,
                    scratch, probes);
    }
    UndoTrail(scratch.subst, scratch.trail, mark);
    DQSQ_RETURN_IF_ERROR(s);
  }
  return Status::Ok();
}

}  // namespace

Status ExecuteRulePlan(const RulePlan& plan, TermArena& arena, JoinHost& host,
                       const void* ctx, JoinScratch& scratch, size_t* probes) {
  DQSQ_DCHECK(scratch.levels.size() >= plan.atoms.size());
  return JoinLevel(plan, 0, arena, host, ctx, host.SourcesAreStatic(),
                   scratch, probes);
}

}  // namespace dqsq
