// Small helper for building rules programmatically (the encoder and the
// supervisor generate hundreds of rules; the text parser would be noise).
#ifndef DQSQ_DIAGNOSIS_RULE_BUILDER_H_
#define DQSQ_DIAGNOSIS_RULE_BUILDER_H_

#include <map>
#include <string>
#include <vector>

#include "datalog/ast.h"

namespace dqsq::diagnosis {

class RuleBuilder {
 public:
  explicit RuleBuilder(DatalogContext* ctx) : ctx_(ctx) {}

  /// Rule-local variable by name (slot allocated on first use).
  Pattern V(const std::string& name) {
    auto it = slots_.find(name);
    if (it == slots_.end()) {
      it = slots_.emplace(name, static_cast<VarId>(names_.size())).first;
      names_.push_back(name);
    }
    return Pattern::Var(it->second);
  }

  Pattern C(const std::string& name) {
    return Pattern::Const(ctx_->symbols().Intern(name));
  }

  Pattern App(const std::string& fn, std::vector<Pattern> args) {
    return Pattern::App(ctx_->symbols().Intern(fn), std::move(args));
  }

  Atom MakeAtom(const std::string& pred, const std::string& peer,
                std::vector<Pattern> args) {
    Atom atom;
    atom.rel.pred = ctx_->InternPredicate(
        pred, static_cast<uint32_t>(args.size()));
    atom.rel.peer = ctx_->symbols().Intern(peer);
    atom.args = std::move(args);
    return atom;
  }

  /// Finalizes the rule and resets the variable scope.
  Rule Build(Atom head, std::vector<Atom> body,
             std::vector<Diseq> diseqs = {}) {
    Rule rule;
    rule.head = std::move(head);
    rule.body = std::move(body);
    rule.diseqs = std::move(diseqs);
    rule.num_vars = static_cast<uint32_t>(names_.size());
    rule.var_names =
        std::make_shared<const std::vector<std::string>>(std::move(names_));
    slots_.clear();
    names_.clear();
    return rule;
  }

 private:
  DatalogContext* ctx_;
  std::map<std::string, VarId> slots_;
  std::vector<std::string> names_;
};

}  // namespace dqsq::diagnosis

#endif  // DQSQ_DIAGNOSIS_RULE_BUILDER_H_
