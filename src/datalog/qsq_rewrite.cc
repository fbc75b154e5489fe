#include "datalog/qsq_rewrite.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>

#include "common/metrics.h"

namespace dqsq {

namespace {

constexpr uint32_t kNeverBound = std::numeric_limits<uint32_t>::max();

/// Patterns at the bound positions of `atom` under `adornment`.
std::vector<Pattern> BoundArgPatterns(const Atom& atom,
                                      const Adornment& adornment) {
  std::vector<Pattern> out;
  out.reserve(std::count(adornment.begin(), adornment.end(), true));
  for (size_t i = 0; i < atom.args.size(); ++i) {
    if (adornment[i]) out.push_back(atom.args[i]);
  }
  return out;
}

/// Sup positions of one adorned rule's variables; the buffers are reused
/// across rules. first_bound[v] is the first sup position whose bindings
/// include v (0 for a bound head argument, j + 1 after body atom j), or
/// kNeverBound. needed_until[v] is one past the last sup position that
/// needs v, by a body atom at or after it, the head, or a disequality
/// attached there; 0 if none does.
struct VarPositions {
  std::vector<uint32_t> first_bound;
  std::vector<uint32_t> needed_until;
  std::vector<VarId> vars;  // the variables collected since the last clear

  void Reset(uint32_t num_vars) {
    first_bound.assign(num_vars, kNeverBound);
    needed_until.assign(num_vars, 0);
  }
  void BoundAt(uint32_t pos) {
    for (VarId v : vars) first_bound[v] = std::min(first_bound[v], pos);
  }
  void NeededAt(uint32_t pos) {
    for (VarId v : vars) needed_until[v] = std::max(needed_until[v], pos + 1);
  }
};

}  // namespace

std::string AnswerPredName(const std::string& base, const Adornment& a) {
  return base + "__" + AdornmentSuffix(a);
}

std::string InputPredName(const std::string& base, const Adornment& a) {
  return "in__" + base + "__" + AdornmentSuffix(a);
}

StatusOr<RewriteResult> QsqRewrite(const AdornedProgram& adorned,
                                   const RelId& query_rel,
                                   const Adornment& query_adornment,
                                   DatalogContext& ctx,
                                   const QsqOptions& options) {
  RewriteResult result;
  result.query_adornment = query_adornment;

  // Input and answer relations per call pattern, each named and interned
  // once, on first use (interning order fixes the predicate ids). Keys
  // point at adornments owned by `adorned` or the caller.
  struct CallKey {
    RelId rel;
    const Adornment* adornment;
  };
  struct CallKeyLess {
    bool operator()(const CallKey& a, const CallKey& b) const {
      if (a.rel != b.rel) return a.rel < b.rel;
      return *a.adornment < *b.adornment;
    }
  };
  struct CallRels {
    std::optional<RelId> input;
    std::optional<RelId> answer;
  };
  std::map<CallKey, CallRels, CallKeyLess> calls;
  auto input_rel = [&](const RelId& rel, const Adornment& a) {
    std::optional<RelId>& input = calls[CallKey{rel, &a}].input;
    if (!input.has_value()) {
      uint32_t bound =
          static_cast<uint32_t>(std::count(a.begin(), a.end(), true));
      input = RelId{ctx.InternPredicate(
                        InputPredName(ctx.PredicateName(rel.pred), a), bound),
                    rel.peer};
    }
    return *input;
  };
  auto answer_rel = [&](const RelId& rel, const Adornment& a) {
    std::optional<RelId>& answer = calls[CallKey{rel, &a}].answer;
    if (!answer.has_value()) {
      answer = RelId{
          ctx.InternPredicate(AnswerPredName(ctx.PredicateName(rel.pred), a),
                              ctx.PredicateArity(rel.pred)),
          rel.peer};
    }
    return *answer;
  };

  result.answer_rel = answer_rel(query_rel, query_adornment);
  result.input_rel = input_rel(query_rel, query_adornment);

  // Per adorned rule: A, then B (IDB atoms only) and C per body atom, then
  // D.
  size_t num_rules = 0;
  for (const AdornedRule& ar : adorned.rules) {
    num_rules += ar.rule->body.size() + 2;
    num_rules += std::count(ar.body_is_idb.begin(), ar.body_is_idb.end(), true);
  }
  std::vector<Rule>& rules = result.program.rules;
  rules.reserve(num_rules);

  const std::string tag =
      options.sup_prefix + (options.project_relevant_vars ? "sup" : "supall");
  VarPositions pos;
  std::vector<uint32_t> diseq_pos;
  std::vector<RelId> sup_rels;
  std::string sup_name;
  size_t sup_relations = 0;
  for (const AdornedRule& ar : adorned.rules) {
    const Rule& rule = *ar.rule;
    const uint32_t n = static_cast<uint32_t>(rule.body.size());
    sup_relations += n + 1;

    pos.Reset(rule.num_vars);
    pos.vars.clear();
    for (size_t i = 0; i < rule.head.args.size(); ++i) {
      if (ar.head_adornment[i]) rule.head.args[i].CollectVars(&pos.vars);
    }
    pos.BoundAt(0);
    for (uint32_t j = 0; j < n; ++j) {
      pos.vars.clear();
      for (const Pattern& p : rule.body[j].args) p.CollectVars(&pos.vars);
      pos.BoundAt(j + 1);
      pos.NeededAt(j);
    }
    pos.vars.clear();
    for (const Pattern& p : rule.head.args) p.CollectVars(&pos.vars);
    pos.NeededAt(n);
    // Each disequality attaches to the earliest sup position where all its
    // variables are bound, or to the last one if some variable never is.
    diseq_pos.clear();
    for (const Diseq& d : rule.diseqs) {
      pos.vars.clear();
      d.lhs.CollectVars(&pos.vars);
      d.rhs.CollectVars(&pos.vars);
      uint32_t at = 0;
      for (VarId v : pos.vars) at = std::max(at, pos.first_bound[v]);
      at = std::min(at, n);
      diseq_pos.push_back(at);
      pos.NeededAt(at);
    }

    // Schema of sup_{r,j}: the variables bound by position j that (when
    // projecting) are still needed at or after it, in ascending order.
    auto sup_args = [&](uint32_t j) {
      auto keep = [&](VarId v) {
        return pos.first_bound[v] <= j &&
               (!options.project_relevant_vars || pos.needed_until[v] > j);
      };
      size_t count = 0;
      for (VarId v = 0; v < rule.num_vars; ++v) count += keep(v);
      std::vector<Pattern> args;
      args.reserve(count);
      for (VarId v = 0; v < rule.num_vars; ++v) {
        if (keep(v)) args.push_back(Pattern::Var(v));
      }
      return args;
    };

    // sup_{r,j} is named and interned once, when its defining rule is
    // emitted. Placement: with atom j (its consumer), the final sup at the
    // head's peer.
    sup_name = tag + "__r" + std::to_string(ar.rule_index) + "__" +
               AdornmentSuffix(ar.head_adornment) + "__";
    const size_t sup_name_prefix = sup_name.size();
    sup_rels.resize(n + 1);
    auto sup_head = [&](uint32_t j) {
      std::vector<Pattern> args = sup_args(j);
      sup_name.resize(sup_name_prefix);
      sup_name += std::to_string(j);
      SymbolId peer = rule.head.rel.peer;
      if (options.distribute_sups && j < n) peer = rule.body[j].rel.peer;
      sup_rels[j] = RelId{
          ctx.InternPredicate(sup_name, static_cast<uint32_t>(args.size())),
          peer};
      return Atom{sup_rels[j], std::move(args)};
    };
    auto sup_body = [&](uint32_t j) { return Atom{sup_rels[j], sup_args(j)}; };

    auto add_rule = [&](Atom head, Atom first, Atom* second,
                        std::optional<uint32_t> diseqs_at) {
      Rule& r = rules.emplace_back();
      r.head = std::move(head);
      r.body.reserve(second != nullptr ? 2 : 1);
      r.body.push_back(std::move(first));
      if (second != nullptr) r.body.push_back(std::move(*second));
      if (diseqs_at.has_value()) {
        for (size_t k = 0; k < rule.diseqs.size(); ++k) {
          if (diseq_pos[k] == *diseqs_at) r.diseqs.push_back(rule.diseqs[k]);
        }
      }
      r.num_vars = rule.num_vars;
      r.var_names = rule.var_names;
    };

    // Rule A: sup_{r,0} from the input relation.
    Atom in_atom{input_rel(rule.head.rel, ar.head_adornment),
                 BoundArgPatterns(rule.head, ar.head_adornment)};
    add_rule(sup_head(0), std::move(in_atom), nullptr, 0);

    // Rules B and C per body atom.
    for (uint32_t j = 0; j < n; ++j) {
      const Atom& bj = rule.body[j];
      Atom joined = bj;  // rule C': the extensional relation directly
      if (ar.body_is_idb[j]) {
        // Rule B feeds the callee's input relation; rule C joins with its
        // answers.
        const Adornment& a = ar.body_adornments[j];
        add_rule(Atom{input_rel(bj.rel, a), BoundArgPatterns(bj, a)},
                 sup_body(j), nullptr, std::nullopt);
        joined.rel = answer_rel(bj.rel, a);
      }
      add_rule(sup_head(j + 1), sup_body(j), &joined, j + 1);
    }

    // Rule D: answers.
    add_rule(Atom{answer_rel(rule.head.rel, ar.head_adornment),
                  rule.head.args},
             sup_body(n), nullptr, std::nullopt);
  }

  DQSQ_RETURN_IF_ERROR(ValidateProgram(result.program, ctx));

  Labels variant{{"variant", options.project_relevant_vars ? "qsq" : "qsq_allvars"}};
  CountMetric("datalog.qsq.rewrites", 1, variant);
  CountMetric("datalog.qsq.sup_relations", sup_relations, variant, "relations");
  CountMetric("datalog.qsq.rules_emitted", result.program.rules.size(), variant,
              "rules");
  return result;
}

}  // namespace dqsq
