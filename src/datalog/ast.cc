#include "datalog/ast.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "common/logging.h"

namespace dqsq {

DatalogContext::DatalogContext() {
  local_peer_ = symbols_.Intern("local");
}

PredicateId DatalogContext::InternPredicate(std::string_view name,
                                            uint32_t arity) {
  SymbolId sym = symbols_.Intern(name);
  auto it = pred_index_.find(sym);
  if (it != pred_index_.end()) {
    DQSQ_CHECK_EQ(preds_[it->second].arity, arity)
        << "predicate " << name << " re-declared with different arity";
    return it->second;
  }
  PredicateId id = static_cast<PredicateId>(preds_.size());
  preds_.push_back(PredInfo{sym, arity});
  pred_index_.emplace(sym, id);
  return id;
}

bool DatalogContext::LookupPredicate(std::string_view name,
                                     PredicateId* id) const {
  SymbolId sym;
  if (!symbols_.Lookup(name, &sym)) return false;
  auto it = pred_index_.find(sym);
  if (it == pred_index_.end()) return false;
  *id = it->second;
  return true;
}

const std::string& DatalogContext::PredicateName(PredicateId id) const {
  DQSQ_CHECK_LT(id, preds_.size());
  return symbols_.Name(preds_[id].name);
}

uint32_t DatalogContext::PredicateArity(PredicateId id) const {
  DQSQ_CHECK_LT(id, preds_.size());
  return preds_[id].arity;
}

const std::vector<std::string>& VarNameList(const VarNames& names) {
  static const std::vector<std::string> kNone;
  return names != nullptr ? *names : kNone;
}

std::string AtomToString(const Atom& atom, const DatalogContext& ctx,
                         const std::vector<std::string>* var_names) {
  std::string out = ctx.PredicateName(atom.rel.pred);
  if (atom.rel.peer != ctx.local_peer()) {
    out += "@";
    out += ctx.symbols().Name(atom.rel.peer);
  }
  out += "(";
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (i > 0) out += ",";
    out += atom.args[i].ToString(ctx.symbols(), var_names);
  }
  out += ")";
  return out;
}

std::string RuleToString(const Rule& rule, const DatalogContext& ctx) {
  std::string out = AtomToString(rule.head, ctx, rule.var_names.get());
  if (rule.IsFact()) return out + ".";
  out += " :- ";
  bool first = true;
  for (const Atom& a : rule.body) {
    if (!first) out += ", ";
    first = false;
    out += AtomToString(a, ctx, rule.var_names.get());
  }
  for (const Atom& a : rule.negative) {
    if (!first) out += ", ";
    first = false;
    out += "not ";
    out += AtomToString(a, ctx, rule.var_names.get());
  }
  for (const Diseq& d : rule.diseqs) {
    if (!first) out += ", ";
    first = false;
    out += d.lhs.ToString(ctx.symbols(), rule.var_names.get());
    out += " != ";
    out += d.rhs.ToString(ctx.symbols(), rule.var_names.get());
  }
  return out + ".";
}

std::string ProgramToString(const Program& program,
                            const DatalogContext& ctx) {
  std::string out;
  for (const Rule& r : program.rules) {
    out += RuleToString(r, ctx);
    out += "\n";
  }
  return out;
}

namespace {

void CollectAtomVars(const Atom& atom, std::vector<VarId>* vars) {
  for (const Pattern& p : atom.args) p.CollectVars(vars);
}

}  // namespace

Status ValidateProgram(const Program& program, const DatalogContext& ctx) {
  // One variable buffer and one body-variable bitmap serve every rule.
  std::vector<VarId> vars;
  std::vector<char> in_body;
  for (const Rule& rule : program.rules) {
    // Checks `atom` and leaves its variables in `vars`.
    auto check_atom = [&](const Atom& atom) -> Status {
      if (atom.args.size() != ctx.PredicateArity(atom.rel.pred)) {
        return InvalidArgumentError(
            "arity mismatch in atom of predicate " +
            ctx.PredicateName(atom.rel.pred));
      }
      vars.clear();
      CollectAtomVars(atom, &vars);
      for (VarId v : vars) {
        if (v >= rule.num_vars) {
          return InvalidArgumentError("variable slot out of range in rule " +
                                      RuleToString(rule, ctx));
        }
      }
      return Status::Ok();
    };
    // Disequality operands are not range-checked, so test the slot first.
    auto bound_by_body = [&](VarId v) {
      return v < in_body.size() && in_body[v] != 0;
    };
    DQSQ_RETURN_IF_ERROR(check_atom(rule.head));
    in_body.assign(rule.num_vars, 0);
    for (const Atom& a : rule.body) {
      DQSQ_RETURN_IF_ERROR(check_atom(a));
      for (VarId v : vars) in_body[v] = 1;
    }
    vars.clear();
    CollectAtomVars(rule.head, &vars);
    for (VarId v : vars) {
      if (!bound_by_body(v)) {
        return InvalidArgumentError(
            "rule is not range-restricted (head variable not in body): " +
            RuleToString(rule, ctx));
      }
    }
    for (const Atom& a : rule.negative) {
      DQSQ_RETURN_IF_ERROR(check_atom(a));
      for (VarId v : vars) {
        if (!bound_by_body(v)) {
          return InvalidArgumentError(
              "negated atom uses a variable not bound by the positive "
              "body (unsafe negation): " +
              RuleToString(rule, ctx));
        }
      }
    }
    for (const Diseq& d : rule.diseqs) {
      vars.clear();
      d.lhs.CollectVars(&vars);
      d.rhs.CollectVars(&vars);
      for (VarId v : vars) {
        if (!bound_by_body(v)) {
          return InvalidArgumentError(
              "disequality uses a variable not bound by the body: " +
              RuleToString(rule, ctx));
        }
      }
    }
  }
  return Status::Ok();
}

StatusOr<std::vector<uint32_t>> StratifyProgram(const Program& program,
                                                const DatalogContext& ctx) {
  // Without negation every dependency is satisfied at stratum 0.
  if (std::all_of(program.rules.begin(), program.rules.end(),
                  [](const Rule& rule) { return rule.negative.empty(); })) {
    return std::vector<uint32_t>(program.rules.size(), 0);
  }
  // Relation-level strata computed by iterated relaxation:
  //   stratum(head) >= stratum(positive body relation)
  //   stratum(head) >= stratum(negated body relation) + 1
  // A program is stratifiable iff this reaches a fixpoint below |rules|+1.
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> stratum;
  auto key = [](const RelId& rel) {
    return std::make_pair(rel.pred, rel.peer);
  };
  const uint32_t limit = static_cast<uint32_t>(program.rules.size()) + 1;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Rule& rule : program.rules) {
      uint32_t need = 0;
      for (const Atom& a : rule.body) {
        need = std::max(need, stratum[key(a.rel)]);
      }
      for (const Atom& a : rule.negative) {
        need = std::max(need, stratum[key(a.rel)] + 1);
      }
      uint32_t& current = stratum[key(rule.head.rel)];
      if (need > current) {
        if (need > limit) {
          return InvalidArgumentError(
              "program is not stratifiable (negation through recursion "
              "involving " +
              ctx.PredicateName(rule.head.rel.pred) + ")");
        }
        current = need;
        changed = true;
      }
    }
  }
  std::vector<uint32_t> out;
  out.reserve(program.rules.size());
  for (const Rule& rule : program.rules) {
    out.push_back(stratum[key(rule.head.rel)]);
  }
  return out;
}

std::vector<RelId> IdbRelations(const Program& program) {
  std::vector<RelId> out;
  std::unordered_set<size_t> seen;
  for (const Rule& r : program.rules) {
    size_t key = RelIdHash{}(r.head.rel);
    // Collisions only cause duplicate suppression misses; verify equality.
    bool found = false;
    if (seen.contains(key)) {
      for (const RelId& existing : out) {
        if (existing == r.head.rel) {
          found = true;
          break;
        }
      }
    }
    if (!found) {
      seen.insert(key);
      out.push_back(r.head.rel);
    }
  }
  return out;
}

}  // namespace dqsq
