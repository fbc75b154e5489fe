#include "datalog/adornment.h"

#include <deque>
#include <map>
#include <set>

#include "common/logging.h"

namespace dqsq {

std::string AdornmentSuffix(const Adornment& adornment) {
  std::string out;
  out.reserve(adornment.size());
  for (bool b : adornment) out += b ? 'b' : 'f';
  return out;
}

Adornment AdornAtom(const Atom& atom, const std::vector<bool>& bound_vars) {
  Adornment out;
  out.reserve(atom.args.size());
  std::vector<VarId> vars;
  for (const Pattern& p : atom.args) {
    vars.clear();
    p.CollectVars(&vars);
    bool bound = true;
    for (VarId v : vars) {
      if (v >= bound_vars.size() || !bound_vars[v]) {
        bound = false;
        break;
      }
    }
    out.push_back(bound);
  }
  return out;
}

Adornment QueryAdornment(const Atom& query) {
  Adornment out;
  out.reserve(query.args.size());
  for (const Pattern& p : query.args) out.push_back(p.IsGround());
  return out;
}

StatusOr<AdornedProgram> AdornProgram(const Program& program,
                                      const RelId& query_rel,
                                      const Adornment& query_adornment) {
  // Group rules by head relation.
  std::map<std::pair<uint32_t, uint32_t>, std::vector<size_t>> rules_by_head;
  for (size_t i = 0; i < program.rules.size(); ++i) {
    const RelId& rel = program.rules[i].head.rel;
    rules_by_head[{rel.pred, rel.peer}].push_back(i);
  }
  auto is_idb = [&](const RelId& rel) {
    return rules_by_head.contains({rel.pred, rel.peer});
  };

  AdornedProgram out;
  std::set<std::pair<std::pair<uint32_t, uint32_t>, Adornment>> visited;
  std::deque<std::pair<RelId, Adornment>> worklist;

  auto enqueue = [&](const RelId& rel, const Adornment& adornment) {
    auto key = std::make_pair(std::make_pair(rel.pred, rel.peer), adornment);
    if (visited.insert(key).second) {
      worklist.emplace_back(rel, adornment);
      out.call_patterns.emplace_back(rel, adornment);
    }
  };

  if (!is_idb(query_rel)) {
    return InvalidArgumentError(
        "query relation has no defining rules (extensional queries need no "
        "adornment)");
  }
  enqueue(query_rel, query_adornment);

  // Reused across rules.
  std::vector<bool> bound_vars;
  std::vector<VarId> vars;
  while (!worklist.empty()) {
    auto [rel, adornment] = worklist.front();
    worklist.pop_front();
    for (size_t rule_index :
         rules_by_head.at({rel.pred, rel.peer})) {
      const Rule& rule = program.rules[rule_index];
      DQSQ_CHECK_EQ(rule.head.args.size(), adornment.size());
      AdornedRule ar;
      ar.rule = &rule;
      ar.rule_index = rule_index;
      ar.head_adornment = adornment;
      ar.body_adornments.reserve(rule.body.size());
      ar.body_is_idb.reserve(rule.body.size());

      // Variables in bound head positions start out bound.
      bound_vars.assign(rule.num_vars, false);
      for (size_t i = 0; i < rule.head.args.size(); ++i) {
        if (!adornment[i]) continue;
        vars.clear();
        rule.head.args[i].CollectVars(&vars);
        for (VarId v : vars) bound_vars[v] = true;
      }

      // Left-to-right: each atom is adorned with the bindings accumulated
      // so far, after which all its variables are bound.
      for (const Atom& atom : rule.body) {
        Adornment a = AdornAtom(atom, bound_vars);
        bool idb = is_idb(atom.rel);
        if (idb) enqueue(atom.rel, a);
        ar.body_adornments.push_back(std::move(a));
        ar.body_is_idb.push_back(idb);
        vars.clear();
        for (const Pattern& p : atom.args) p.CollectVars(&vars);
        for (VarId v : vars) bound_vars[v] = true;
      }
      out.rules.push_back(std::move(ar));
    }
  }
  return out;
}

}  // namespace dqsq
