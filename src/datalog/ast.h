// dDatalog abstract syntax (paper §3): atoms R@p(e1,...,en) where p is a
// constant peer name, rules with optional disequality constraints
// x != y, and programs as rule sets. A DatalogContext owns the shared
// symbol table, ground-term arena and predicate registry; every program,
// database and evaluator refers to one context.
#ifndef DQSQ_DATALOG_AST_H_
#define DQSQ_DATALOG_AST_H_

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/symbol_table.h"
#include "datalog/pattern.h"
#include "datalog/term.h"

namespace dqsq {

using PredicateId = uint32_t;

/// Identifies a relation instance: predicate R located at peer p (the pair
/// "R@p" of the paper). Centralized programs place everything at one peer.
struct RelId {
  PredicateId pred = 0;
  SymbolId peer = 0;

  /// Orders by pred, then peer (SaveState and flush order depend on it).
  friend auto operator<=>(const RelId&, const RelId&) = default;
};

struct RelIdHash {
  size_t operator()(const RelId& r) const {
    return (static_cast<size_t>(r.pred) << 32) ^ r.peer;
  }
};

/// Shared naming environment for programs, databases and evaluators.
class DatalogContext {
 public:
  DatalogContext();
  DatalogContext(const DatalogContext&) = delete;
  DatalogContext& operator=(const DatalogContext&) = delete;

  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }
  TermArena& arena() { return arena_; }
  const TermArena& arena() const { return arena_; }

  /// Interns predicate `name` with `arity`. Aborts if the name was
  /// previously interned with a different arity (one arity per name).
  PredicateId InternPredicate(std::string_view name, uint32_t arity);

  /// Returns the predicate id for `name`, or false if unknown.
  bool LookupPredicate(std::string_view name, PredicateId* id) const;

  const std::string& PredicateName(PredicateId id) const;
  uint32_t PredicateArity(PredicateId id) const;
  size_t num_predicates() const { return preds_.size(); }

  /// The default peer used by non-distributed ("local") programs.
  SymbolId local_peer() const { return local_peer_; }

  /// Interns a peer name.
  SymbolId InternPeer(std::string_view name) { return symbols_.Intern(name); }

  /// Interns a constant symbol and returns its ground term.
  TermId Constant(std::string_view name) {
    return arena_.MakeConstant(symbols_.Intern(name));
  }

 private:
  struct PredInfo {
    SymbolId name;
    uint32_t arity;
  };

  SymbolTable symbols_;
  TermArena arena_;
  std::vector<PredInfo> preds_;
  std::unordered_map<SymbolId, PredicateId> pred_index_;
  SymbolId local_peer_;
};

/// R@p(e1,...,en) with pattern arguments.
struct Atom {
  RelId rel;
  std::vector<Pattern> args;
};

/// A disequality constraint lhs != rhs between variables/constants.
struct Diseq {
  Pattern lhs;
  Pattern rhs;
};

/// head :- body, not negative..., diseqs. Variables are rule-local slots
/// 0..num_vars-1; var_names records source names for printing. Negated
/// atoms ("not R(x)") must be safe: every variable they use appears in the
/// positive body. Programs with negation must be stratified (paper Remark
/// 4 discusses why the diagnosis encoding avoids this: its negation is
/// only LOCALLY stratified, through the term depth, which predicate-level
/// stratification cannot express).
struct Rule {
  Atom head;
  std::vector<Atom> body;
  std::vector<Atom> negative;
  std::vector<Diseq> diseqs;
  uint32_t num_vars = 0;
  std::vector<std::string> var_names;

  bool IsFact() const {
    return body.empty() && negative.empty() && diseqs.empty();
  }
};

/// A finite set of rules (paper Def.: program). Rules "at site p" are those
/// whose head is located at p.
struct Program {
  std::vector<Rule> rules;
};

/// Renders an atom as "R@p(args)" (omitting "@p" when p is the local peer).
std::string AtomToString(const Atom& atom, const DatalogContext& ctx,
                         const std::vector<std::string>* var_names);

/// Renders "head :- body, d1 != d2." (or "head." for facts).
std::string RuleToString(const Rule& rule, const DatalogContext& ctx);

/// Renders all rules, one per line.
std::string ProgramToString(const Program& program, const DatalogContext& ctx);

/// Checks well-formedness: head variables appear in the body (range
/// restriction, required by the paper), disequality operands appear in the
/// body, negated atoms are safe, argument counts match predicate arities,
/// var slots < num_vars.
Status ValidateProgram(const Program& program, const DatalogContext& ctx);

/// Computes a stratification: strata[i] = stratum of program.rules[i],
/// where every positive dependency is satisfied at the same or a lower
/// stratum and every negative dependency strictly lower. Fails if the
/// program is not stratifiable (negation through recursion).
StatusOr<std::vector<uint32_t>> StratifyProgram(const Program& program,
                                                const DatalogContext& ctx);

/// Returns the set of relations defined by some rule head (the intensional
/// relations of the program).
std::vector<RelId> IdbRelations(const Program& program);

}  // namespace dqsq

#endif  // DQSQ_DATALOG_AST_H_
