#include "diagnosis/supervisor.h"

#include "common/logging.h"
#include "diagnosis/explanation.h"
#include "diagnosis/rule_builder.h"

namespace dqsq::diagnosis {

using petri::PetriNet;
using petri::TransitionId;

AlarmAutomaton ChainAutomaton(const std::vector<std::string>& symbols) {
  AlarmAutomaton a;
  a.num_states = static_cast<uint32_t>(symbols.size()) + 1;
  for (uint32_t i = 0; i < symbols.size(); ++i) {
    a.edges.push_back({i, symbols[i], i + 1});
  }
  a.accepting = {a.num_states - 1};
  return a;
}

StatusOr<SupervisorProgram> BuildSupervisor(
    const PetriNet& net, const EncodedNet& encoded,
    const std::map<std::string, AlarmAutomaton>& automata,
    const SupervisorOptions& options, DatalogContext& ctx) {
  SupervisorProgram out;
  const std::string& sup = options.supervisor_peer;
  out.supervisor = ctx.symbols().Intern(sup);
  RuleBuilder b(&ctx);
  Program& prog = out.program;

  // Ordered peer list = positions of the configuration index.
  std::vector<std::string> observed;
  for (const auto& [peer, automaton] : automata) {
    observed.push_back(peer);
    if (!options.open_automata && automaton.accepting.empty()) {
      return InvalidArgumentError("automaton of peer " + peer +
                                  " has no accepting state");
    }
  }
  const size_t m = observed.size();
  const bool hidden = options.max_hidden > 0;

  auto state_const = [](const std::string& peer, uint32_t s) {
    return "st_" + peer + "_" + std::to_string(s);
  };
  auto hb_const = [](uint32_t l) { return "hb_" + std::to_string(l); };

  // Automaton facts.
  for (const auto& [peer, automaton] : automata) {
    for (const auto& edge : automaton.edges) {
      prog.rules.push_back(b.Build(
          b.MakeAtom("aedge_" + peer, sup,
                     {b.C(state_const(peer, edge.from)),
                      b.C("al_" + edge.symbol),
                      b.C(state_const(peer, edge.to))}),
          {}));
    }
    if (options.open_automata) continue;  // the query binds positions
    for (uint32_t s : automaton.accepting) {
      prog.rules.push_back(b.Build(
          b.MakeAtom("aaccept_" + peer, sup, {b.C(state_const(peer, s))}),
          {}));
    }
  }
  if (hidden) {
    for (uint32_t l = 0; l < options.max_hidden; ++l) {
      prog.rules.push_back(b.Build(
          b.MakeAtom("hbnext", sup, {b.C(hb_const(l)), b.C(hb_const(l + 1))}),
          {}));
    }
  }

  // Initial configuration: empty, id h(r), all automata in state 0.
  {
    std::vector<Pattern> args{b.App("h", {b.C("r")}), b.App("h", {b.C("r")}),
                              b.C("r")};
    for (const std::string& peer : observed) {
      args.push_back(b.C(state_const(peer, 0)));
    }
    if (hidden) args.push_back(b.C(hb_const(0)));
    prog.rules.push_back(b.Build(b.MakeAtom("cfgp", sup, std::move(args)), {}));
  }
  prog.rules.push_back(b.Build(
      b.MakeAtom("inconf", sup, {b.App("h", {b.C("r")}), b.C("r")}), {}));

  // Index variables I0..I{m-1} for the cfgp body, with position j replaced.
  auto index_vars = [&](int replaced, const std::string& with) {
    std::vector<Pattern> out_vars;
    for (size_t j = 0; j < m; ++j) {
      if (static_cast<int>(j) == replaced) {
        out_vars.push_back(b.V(with));
      } else {
        out_vars.push_back(b.V("I" + std::to_string(j)));
      }
    }
    return out_vars;
  };

  // Extension rules.
  for (TransitionId t = 0; t < net.num_transitions(); ++t) {
    const petri::Transition& tr = net.transition(t);
    const std::string p = net.peer_name(tr.peer);
    const uint32_t k = static_cast<uint32_t>(tr.pre.size());

    int pos = -1;
    for (size_t j = 0; j < m; ++j) {
      if (observed[j] == p) pos = static_cast<int>(j);
    }

    if (tr.observable) {
      if (pos < 0) continue;  // silent peer: observable firings impossible
      if (!options.open_automata) {
        // Only worth generating if the automaton mentions this symbol.
        bool mentioned = false;
        for (const auto& edge : automata.at(p).edges) {
          mentioned |= (edge.symbol == tr.alarm);
        }
        if (!mentioned) continue;
      }
    } else if (!hidden) {
      continue;
    }

    std::vector<Atom> body;
    if (tr.observable) {
      body.push_back(b.MakeAtom("aedge_" + p, sup,
                                {b.V("J"), b.C("al_" + tr.alarm), b.V("J2")}));
    } else {
      body.push_back(b.MakeAtom("hbnext", sup, {b.V("H"), b.V("H2")}));
    }
    {
      std::vector<Pattern> args{b.V("Z"), b.V("W"), b.V("Y")};
      for (Pattern& ip : index_vars(tr.observable ? pos : -1, "J")) {
        args.push_back(std::move(ip));
      }
      if (hidden) args.push_back(b.V("H"));
      body.push_back(b.MakeAtom("cfgp", sup, std::move(args)));
    }
    for (uint32_t i = 0; i < k; ++i) {
      body.push_back(
          b.MakeAtom("inconf", sup, {b.V("Z"), b.V("U" + std::to_string(i))}));
    }
    for (uint32_t i = 0; i < k; ++i) {
      body.push_back(b.MakeAtom(
          "notparent", sup,
          {b.V("Z"), b.App("g", {b.V("U" + std::to_string(i)),
                                 b.C(PlaceConstant(net, tr.pre[i]))})}));
    }
    // The event is named by its full Skolem term f(tr_t, g(U0,c0), ...):
    // demanding the ground id (all-bound pattern) materializes exactly
    // this transition's instance — a sibling transition with the same
    // preset but a different alarm is not touched (Theorem 4 exactness).
    auto event_term = [&]() {
      std::vector<Pattern> args{b.C(TransitionConstant(net, t))};
      for (uint32_t i = 0; i < k; ++i) {
        args.push_back(b.App("g", {b.V("U" + std::to_string(i)),
                                   b.C(PlaceConstant(net, tr.pre[i]))}));
      }
      return b.App("f", std::move(args));
    };
    {
      std::vector<Pattern> args{event_term()};
      for (uint32_t i = 0; i < k; ++i) {
        args.push_back(b.App("g", {b.V("U" + std::to_string(i)),
                                   b.C(PlaceConstant(net, tr.pre[i]))}));
      }
      body.push_back(b.MakeAtom(TransPredName(k), p, std::move(args)));
    }
    // Head: extend Z with the event, advancing peer p's state (or the
    // hidden budget).
    std::vector<Pattern> head_args{b.App("h", {b.V("Z"), event_term()}),
                                   b.V("Z"), event_term()};
    for (Pattern& ip : index_vars(tr.observable ? pos : -1,
                                  tr.observable ? "J2" : "J")) {
      head_args.push_back(std::move(ip));
    }
    if (hidden) head_args.push_back(b.V(tr.observable ? "H" : "H2"));
    prog.rules.push_back(
        b.Build(b.MakeAtom("cfgp", sup, std::move(head_args)),
                std::move(body)));
  }

  // inconf: project the last event, then chase shorter prefixes.
  {
    std::vector<Pattern> args{b.V("Z"), b.V("W"), b.V("X")};
    for (size_t j = 0; j < m; ++j) args.push_back(b.V("I" + std::to_string(j)));
    if (hidden) args.push_back(b.V("H"));
    prog.rules.push_back(b.Build(
        b.MakeAtom("inconf", sup, {b.V("Z"), b.V("X")}),
        {b.MakeAtom("cfgp", sup, std::move(args))}));
  }
  {
    std::vector<Pattern> args{b.V("Z"), b.V("W"), b.V("Y")};
    for (size_t j = 0; j < m; ++j) args.push_back(b.V("I" + std::to_string(j)));
    if (hidden) args.push_back(b.V("H"));
    prog.rules.push_back(b.Build(
        b.MakeAtom("inconf", sup, {b.V("Z"), b.V("X")}),
        {b.MakeAtom("cfgp", sup, std::move(args)),
         b.MakeAtom("inconf", sup, {b.V("W"), b.V("X")})}));
  }

  // notparent: every condition is unconsumed in the empty configuration...
  for (SymbolId peer_sym : encoded.peer_symbol) {
    const std::string q_peer = ctx.symbols().Name(peer_sym);
    prog.rules.push_back(b.Build(
        b.MakeAtom("notparent", sup, {b.App("h", {b.C("r")}), b.V("M")}),
        {b.MakeAtom("uplaces", q_peer, {b.V("M"), b.V("W2")})}));
  }
  // ...and stays unconsumed when the extending event does not consume it.
  for (petri::PeerIndex pi = 0; pi < net.num_peers(); ++pi) {
    const std::string p = net.peer_name(pi);
    for (uint32_t k : encoded.arities) {
      std::vector<Atom> body;
      std::vector<Diseq> diseqs;
      {
        std::vector<Pattern> args{b.V("Z"), b.V("W"), b.V("Y")};
        for (size_t j = 0; j < m; ++j) {
          args.push_back(b.V("I" + std::to_string(j)));
        }
        if (hidden) args.push_back(b.V("H"));
        body.push_back(b.MakeAtom("cfgp", sup, std::move(args)));
      }
      {
        std::vector<Pattern> args{b.V("Y")};
        for (uint32_t i = 0; i < k; ++i) {
          args.push_back(b.V("U" + std::to_string(i)));
        }
        body.push_back(b.MakeAtom(TransPredName(k), p, std::move(args)));
      }
      for (uint32_t i = 0; i < k; ++i) {
        diseqs.push_back(Diseq{b.V("M"), b.V("U" + std::to_string(i))});
      }
      body.push_back(b.MakeAtom("notparent", sup, {b.V("W"), b.V("M")}));
      prog.rules.push_back(
          b.Build(b.MakeAtom("notparent", sup, {b.V("Z"), b.V("M")}),
                  std::move(body), std::move(diseqs)));
    }
  }

  out.observed_peers = observed;
  out.cfgp_arity = static_cast<uint32_t>(3 + m + (hidden ? 1 : 0));

  // The query: configurations whose every automaton accepts. With open
  // automata the positions F_j become arguments instead, bound per call.
  {
    std::vector<Atom> body;
    std::vector<Pattern> args{b.V("Z"), b.V("W"), b.V("Y")};
    for (size_t j = 0; j < m; ++j) args.push_back(b.V("F" + std::to_string(j)));
    if (hidden) args.push_back(b.V("H"));
    body.push_back(b.MakeAtom("cfgp", sup, std::move(args)));
    for (size_t j = 0; j < m && !options.open_automata; ++j) {
      body.push_back(b.MakeAtom("aaccept_" + observed[j], sup,
                                {b.V("F" + std::to_string(j))}));
    }
    body.push_back(b.MakeAtom("inconf", sup, {b.V("Z"), b.V("X")}));
    std::vector<Pattern> head{b.V("Z"), b.V("X")};
    for (size_t j = 0; j < m && options.open_automata; ++j) {
      head.push_back(b.V("F" + std::to_string(j)));
    }
    prog.rules.push_back(
        b.Build(b.MakeAtom("q", sup, std::move(head)), std::move(body)));
  }

  DQSQ_RETURN_IF_ERROR(ValidateProgram(prog, ctx));

  // The query atom: q@sup(Z, X [, F0..F{m-1}]) over fresh query variables.
  const Rule& q_rule = prog.rules.back();
  out.query.atom.rel = q_rule.head.rel;
  for (const Pattern& arg : q_rule.head.args) {
    out.query.atom.args.push_back(Pattern::Var(out.query.num_vars++));
    out.query.var_names.push_back((*q_rule.var_names)[arg.var()]);
  }
  return out;
}

StatusOr<SupervisorProgram> BuildSupervisorForSequence(
    const PetriNet& net, const EncodedNet& encoded,
    const petri::AlarmSequence& alarms, const SupervisorOptions& options,
    DatalogContext& ctx) {
  std::map<std::string, AlarmAutomaton> automata;
  for (const auto& [peer, symbols] : petri::SplitByPeer(alarms)) {
    automata[peer] = ChainAutomaton(symbols);
  }
  return BuildSupervisor(net, encoded, automata, options, ctx);
}

}  // namespace dqsq::diagnosis
