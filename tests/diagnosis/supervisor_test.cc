#include "diagnosis/supervisor.h"

#include <gtest/gtest.h>

#include "diagnosis/encoder.h"
#include "petri/examples.h"

namespace dqsq::diagnosis {
namespace {

struct Built {
  DatalogContext ctx;
  EncodedNet encoded;
  SupervisorProgram sup;
};

std::unique_ptr<Built> BuildFor(const petri::PetriNet& net,
                                const petri::AlarmSequence& alarms,
                                SupervisorOptions opts = {}) {
  auto out = std::make_unique<Built>();
  auto enc = EncodeNet(net, out->ctx);
  DQSQ_CHECK_OK(enc.status());
  out->encoded = *std::move(enc);
  auto sup = BuildSupervisorForSequence(net, out->encoded, alarms, opts,
                                        out->ctx);
  DQSQ_CHECK_OK(sup.status());
  out->sup = *std::move(sup);
  return out;
}

TEST(SupervisorTest, ChainAutomatonShape) {
  AlarmAutomaton a = ChainAutomaton({"x", "y", "x"});
  EXPECT_EQ(a.num_states, 4u);
  ASSERT_EQ(a.edges.size(), 3u);
  EXPECT_EQ(a.edges[0].from, 0u);
  EXPECT_EQ(a.edges[0].symbol, "x");
  EXPECT_EQ(a.edges[2].to, 3u);
  EXPECT_EQ(a.accepting, (std::vector<uint32_t>{3}));
}

TEST(SupervisorTest, CfgpArityTracksObservedPeers) {
  petri::PetriNet net = petri::MakePaperNet();
  // Both peers observed: cfgp has 3 + 2 columns.
  auto both = BuildFor(
      net, petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}}));
  EXPECT_EQ(both->sup.cfgp_arity, 5u);
  EXPECT_EQ(both->sup.observed_peers,
            (std::vector<std::string>{"p1", "p2"}));

  // Only p2 observed: 3 + 1.
  auto one = BuildFor(net, petri::MakeAlarms({{"a", "p2"}}));
  EXPECT_EQ(one->sup.cfgp_arity, 4u);
  EXPECT_EQ(one->sup.observed_peers, (std::vector<std::string>{"p2"}));
}

TEST(SupervisorTest, HiddenBudgetAddsColumn) {
  petri::PetriNet net = petri::MakePaperNet();
  SupervisorOptions opts;
  opts.max_hidden = 3;
  auto built = BuildFor(net, petri::MakeAlarms({{"b", "p1"}}), opts);
  EXPECT_EQ(built->sup.cfgp_arity, 3u + 1u + 1u);
  // hbnext facts: one per budget step.
  size_t hb_facts = 0;
  for (const Rule& rule : built->sup.program.rules) {
    if (rule.IsFact() &&
        built->ctx.PredicateName(rule.head.rel.pred) == "hbnext") {
      ++hb_facts;
    }
  }
  EXPECT_EQ(hb_facts, 3u);
}

TEST(SupervisorTest, SilentPeerObservableTransitionsGetNoRules) {
  petri::PetriNet net = petri::MakePaperNet();
  // Only p2 observed: no extension rule may mention p1's transitions.
  auto built = BuildFor(net, petri::MakeAlarms({{"a", "p2"}}));
  std::string text = ProgramToString(built->sup.program, built->ctx);
  EXPECT_EQ(text.find("tr_i,"), std::string::npos);   // i at p1
  EXPECT_EQ(text.find("tr_iii"), std::string::npos);  // iii at p1
  EXPECT_NE(text.find("tr_ii"), std::string::npos);   // ii at p2
}

TEST(SupervisorTest, UnmentionedSymbolsPrunedUnlessOpen) {
  petri::PetriNet net = petri::MakePaperNet();
  // Observation mentions only "a" at p2: rules for iv (c) and v (b)
  // are pruned...
  auto closed = BuildFor(net, petri::MakeAlarms({{"a", "p2"}}));
  std::string closed_text =
      ProgramToString(closed->sup.program, closed->ctx);
  EXPECT_EQ(closed_text.find("tr_iv"), std::string::npos);
  EXPECT_EQ(closed_text.find("tr_v,"), std::string::npos);

  // ...but kept under open automata (online diagnosis).
  SupervisorOptions open_opts;
  open_opts.open_automata = true;
  auto open = std::make_unique<Built>();
  auto enc = EncodeNet(net, open->ctx);
  ASSERT_TRUE(enc.ok());
  std::map<std::string, AlarmAutomaton> automata;
  automata["p2"] = AlarmAutomaton{};  // no edges, no accepting state
  auto sup = BuildSupervisor(net, *enc, automata, open_opts, open->ctx);
  ASSERT_TRUE(sup.ok());
  std::string open_text = ProgramToString(sup->program, open->ctx);
  EXPECT_NE(open_text.find("tr_iv"), std::string::npos);
  EXPECT_NE(open_text.find("tr_v,"), std::string::npos);
}

TEST(SupervisorTest, QueryRuleClosedAcceptsOpenBindsPositions) {
  petri::PetriNet net = petri::MakePaperNet();
  auto query_rule = [](const Built& built, const SupervisorProgram& sup) {
    for (const Rule& rule : sup.program.rules) {
      if (rule.head.rel == sup.query.atom.rel) {
        return RuleToString(rule, built.ctx);
      }
    }
    return std::string("<none>");
  };

  // Closed automata: q(Z, X) over the accepting states.
  auto closed = BuildFor(net, petri::MakeAlarms({{"a", "p2"}, {"b", "p1"}}));
  EXPECT_EQ(query_rule(*closed, closed->sup),
            "q@sup0(Z,X) :- cfgp@sup0(Z,W,Y,F0,F1), aaccept_p1@sup0(F0), "
            "aaccept_p2@sup0(F1), inconf@sup0(Z,X).");
  EXPECT_EQ(closed->sup.query.num_vars, 2u);

  // Open automata: the positions are query arguments; no aaccept facts.
  SupervisorOptions open_opts;
  open_opts.open_automata = true;
  Built open;
  auto enc = EncodeNet(net, open.ctx);
  ASSERT_TRUE(enc.ok());
  std::map<std::string, AlarmAutomaton> automata{{"p1", {}}, {"p2", {}}};
  auto sup = BuildSupervisor(net, *enc, automata, open_opts, open.ctx);
  ASSERT_TRUE(sup.ok()) << sup.status().ToString();
  EXPECT_EQ(query_rule(open, *sup),
            "q@sup0(Z,X,F0,F1) :- cfgp@sup0(Z,W,Y,F0,F1), inconf@sup0(Z,X).");
  EXPECT_EQ(sup->query.num_vars, 4u);
  EXPECT_EQ(sup->query.var_names,
            (std::vector<std::string>{"Z", "X", "F0", "F1"}));
  EXPECT_EQ(ProgramToString(sup->program, open.ctx).find("aaccept"),
            std::string::npos);
}

TEST(SupervisorTest, InitialConfigurationFact) {
  petri::PetriNet net = petri::MakePaperNet();
  auto built = BuildFor(net, petri::MakeAlarms({{"b", "p1"}}));
  bool found = false;
  for (const Rule& rule : built->sup.program.rules) {
    if (!rule.IsFact()) continue;
    if (built->ctx.PredicateName(rule.head.rel.pred) != "cfgp") continue;
    found = true;
    // cfgp(h(r), h(r), r, st_p1_0).
    EXPECT_EQ(AtomToString(rule.head, built->ctx, rule.var_names.get()),
              "cfgp@sup0(h(r),h(r),r,st_p1_0)");
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace dqsq::diagnosis
