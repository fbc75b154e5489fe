// Batched join kernel shared by semi-naive evaluation (eval.cc) and the
// recursive QSQ engine (qsqr.cc). A rule body is compiled once into a
// RulePlan: per atom, each column is classified against the statically
// known set of variables bound by earlier atoms, so the hot loop performs
// no per-row pattern grounding and no per-probe key re-interning. Probe
// results land in a reusable JoinScratch arena; consecutive probes with
// the same key at the same join level are memoized. Steady-state execution
// (all scratch buffers at capacity, all terms interned) allocates nothing.
//
// Ordering contract (DESIGN.md, "Columnar relation storage"): rows are
// enumerated in ascending row id order at every level — never re-sorted by
// key — so one execution emits derived facts in row order, left to right.
// Across rules, insertion order is the evaluator's pass order (DESIGN.md,
// "Watermarked passes"); the distributed byte-stability pins depend on
// both.
#ifndef DQSQ_DATALOG_JOIN_KERNEL_H_
#define DQSQ_DATALOG_JOIN_KERNEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "datalog/adornment.h"
#include "datalog/ast.h"
#include "datalog/relation.h"

namespace dqsq {

/// One column of a body atom, classified at plan-compile time. Key steps
/// (columns fully determined by earlier bindings) drive the index probe;
/// row steps run against each candidate row.
struct ColStep {
  enum class Kind : uint8_t {
    kKeyConst,    // ground pattern; grounded once at compile time
    kKeyVar,      // variable bound by an earlier atom
    kKeyComplex,  // application whose variables are all bound earlier
    kBind,        // variable's first occurrence: bind to the row value
    kCheckVar,    // variable bound earlier in this same atom: equality
    kMatch,       // pattern with unbound variables: structural match
  };
  Kind kind;
  uint32_t col = 0;                  // column in the atom
  VarId var = 0;                     // kKeyVar / kBind / kCheckVar
  TermId value = kNoTerm;            // kKeyConst
  const Pattern* pattern = nullptr;  // kKeyComplex / kMatch
};

struct AtomPlan {
  const Atom* atom = nullptr;
  /// Index probe mask over the key columns; 0 when no column is bound or
  /// the arity exceeds 32 (then the kernel scans and checks key columns
  /// directly).
  uint32_t probe_mask = 0;
  std::vector<ColStep> key_steps;  // column order
  std::vector<ColStep> row_steps;  // column order
  /// Boundness per column (adornment[c] iff column c is a key column);
  /// covers all columns even past 32 — QSQ uses it as the call adornment.
  Adornment adornment;
};

struct RulePlan {
  const Rule* rule = nullptr;
  std::vector<AtomPlan> atoms;
};

/// Compiles `rule`'s body against the variables in `initial_bound` (bound
/// before the body starts: empty for bottom-up evaluation, the adorned
/// head variables for QSQ). Binding is deterministic left-to-right, so the
/// static classification coincides with what per-row grounding would have
/// computed. Ground patterns are interned into `arena` here, once.
RulePlan CompileRulePlan(const Rule& rule, std::span<const VarId> initial_bound,
                         TermArena& arena);

/// Relation + row range an atom joins against. Relations are append-only,
/// so rows within [lo, hi) are immutable once resolved.
struct JoinSource {
  Relation* rel = nullptr;  // nullptr => no rows to scan
  uint32_t lo = 0;          // row range [lo, hi)
  uint32_t hi = 0;
};

/// Reusable per-execution state. All buffers keep their capacity across
/// rules and passes; once warm, executions allocate nothing.
struct JoinScratch {
  struct Level {
    std::vector<uint32_t> rows;  // probe result (ascending row ids)
    std::vector<TermId> key;     // key values, column order
    // Memo of the probe that produced `rows`: consecutive parent bindings
    // sharing a join key reuse the result without re-probing. Valid across
    // concurrent appends because the probed window is immutable.
    const Relation* memo_rel = nullptr;
    std::vector<TermId> memo_key;
    uint32_t memo_lo = 0;
    uint32_t memo_hi = 0;
    bool memo_valid = false;
    // Cached source for hosts whose sources are static per execution.
    JoinSource src;
    bool src_valid = false;
  };
  std::vector<Level> levels;
  Substitution subst;
  std::vector<VarId> trail;
  std::vector<TermId> ground_stack;  // TryGroundPattern scratch
  std::vector<TermId> tuple;         // head / negated-atom tuple buffer

  /// Prepares for executing a rule with `num_vars` variables and
  /// `num_atoms` body atoms: clears bindings, invalidates memos.
  void Prepare(uint32_t num_vars, size_t num_atoms) {
    if (levels.size() < num_atoms) levels.resize(num_atoms);
    for (size_t i = 0; i < num_atoms; ++i) {
      levels[i].memo_valid = false;
      levels[i].src_valid = false;
    }
    subst.assign(num_vars, kNoTerm);
    trail.clear();
  }
};

/// Execution callbacks: the host owns source resolution (snapshot ranges
/// for semi-naive, demand + answer tables for QSQ) and what happens on a
/// full body match. `ctx` is the host's per-execution state, threaded
/// through untouched so nested executions (QSQ recursion) stay reentrant.
class JoinHost {
 public:
  using Source = JoinSource;

  virtual ~JoinHost() = default;

  /// True when ResolveSource depends only on (plan, pos, ctx) — not on the
  /// key — and has no side effects, so the kernel may resolve each atom
  /// once per execution and cache the result (semi-naive snapshots). QSQ
  /// must keep per-binding resolution: resolving demands the subquery.
  virtual bool SourcesAreStatic() const { return false; }

  /// Relation + row range for atom `pos`, given the key values of its
  /// bound columns (column order). Called once per parent binding; may
  /// insert facts (QSQ demand propagation) before returning.
  virtual Status ResolveSource(const RulePlan& plan, size_t pos,
                               const void* ctx, std::span<const TermId> key,
                               Source* out) = 0;

  /// Full body match: `scratch.subst` holds the complete bindings.
  virtual Status OnMatch(const RulePlan& plan, const void* ctx,
                         JoinScratch& scratch) = 0;
};

/// Joins `plan`'s body left-to-right, calling `host.OnMatch` per full
/// match. Candidate rows counted into `*probes` (may be null) exactly as
/// the tuple-at-a-time evaluator counted them: probe path = rows in range,
/// scan path = every row in range. The caller must Prepare `scratch` (and
/// may pre-bind variables through it) before calling.
Status ExecuteRulePlan(const RulePlan& plan, TermArena& arena, JoinHost& host,
                       const void* ctx, JoinScratch& scratch, size_t* probes);

}  // namespace dqsq

#endif  // DQSQ_DATALOG_JOIN_KERNEL_H_
