// Hash-consed arena of ground terms. dDatalog needs function symbols (the
// paper's Skolem terms f(c,u,v), g(x,c), h(z,x) create unfolding nodes), so
// ground values are trees. Hash-consing gives each distinct ground term a
// unique dense 32-bit id: equality is integer comparison, structural matching
// decomposes nodes in O(1) per level, and depth is cached for evaluation
// budgets.
#ifndef DQSQ_DATALOG_TERM_H_
#define DQSQ_DATALOG_TERM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/symbol_table.h"

namespace dqsq {

using TermId = uint32_t;
inline constexpr TermId kNoTerm = 0xffffffffu;

class TermArena {
 public:
  TermArena() = default;
  TermArena(const TermArena&) = delete;
  TermArena& operator=(const TermArena&) = delete;

  /// Interns the constant `symbol` as a leaf term.
  TermId MakeConstant(SymbolId symbol);

  /// Interns the application `fn(args...)`. `args` must all be valid ids.
  TermId MakeApp(SymbolId fn, std::span<const TermId> args);
  TermId MakeApp(SymbolId fn, std::initializer_list<TermId> args) {
    return MakeApp(fn, std::span<const TermId>(args.begin(), args.size()));
  }

  /// True iff `term` is a constant (leaf).
  bool IsConstant(TermId term) const { return node(term).num_args == 0 && !node(term).is_app; }

  /// True iff `term` is a function application.
  bool IsApp(TermId term) const { return node(term).is_app; }

  /// The constant's symbol (leaf) or the application's function symbol.
  SymbolId Symbol(TermId term) const { return node(term).symbol; }

  /// Argument subterms of an application (empty span for constants).
  std::span<const TermId> Args(TermId term) const;

  /// Nesting depth: constants have depth 1, f(args) has 1 + max arg depth.
  uint32_t Depth(TermId term) const { return node(term).depth; }

  /// Renders the term using `symbols` for names, e.g. "f(c1,g(r,c2))".
  std::string ToString(TermId term, const SymbolTable& symbols) const;

  size_t size() const { return nodes_.size(); }

 private:
  struct Node {
    SymbolId symbol;
    uint32_t first_arg;  // offset into args_
    uint16_t num_args;
    bool is_app;
    uint32_t depth;
  };

  // One slot of the application table: a term id (kNoTerm = empty) and
  // its key hash, so a probe reads a node only on a hash match and growth
  // rehashes without re-reading arguments.
  struct Slot {
    TermId id = kNoTerm;
    uint32_t hash = 0;
  };

  const Node& node(TermId term) const;
  static uint32_t HashApp(SymbolId fn, std::span<const TermId> args);
  bool AppEquals(TermId term, SymbolId fn,
                 std::span<const TermId> args) const;
  void GrowApps();

  std::vector<Node> nodes_;
  std::vector<TermId> args_;
  // Interning tables; ids are assigned in creation order either way.
  std::vector<TermId> constants_;  // by symbol id; kNoTerm = not interned
  std::vector<Slot> apps_;  // open-addressed, power-of-two size, load <= 1/2
  size_t num_apps_ = 0;
};

}  // namespace dqsq

#endif  // DQSQ_DATALOG_TERM_H_
