#include "diagnosis/encoder.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "datalog/engine.h"
#include "datalog/eval.h"
#include "diagnosis/explanation.h"
#include "petri/examples.h"
#include "petri/random_net.h"
#include "petri/unfolding.h"

namespace dqsq::diagnosis {
namespace {

using petri::PetriNet;
using petri::Unfolding;

// Evaluates the unfolding program bottom-up (optionally depth-bounded) and
// returns the derived event terms, condition terms, and the database.
struct EncodedEval {
  DatalogContext ctx;
  std::unique_ptr<Database> db;
  std::set<std::string> events;
  std::set<std::string> conditions;
  std::vector<uint32_t> arities;

  void Run(const PetriNet& net, uint32_t max_term_depth) {
    auto encoded = EncodeNet(net, ctx);
    DQSQ_CHECK_OK(encoded.status());
    arities = encoded->arities;
    db = std::make_unique<Database>(&ctx);
    EvalOptions opts;
    opts.max_term_depth = max_term_depth;
    opts.max_facts = 2'000'000;
    DQSQ_CHECK_OK(Evaluate(encoded->program, *db, opts).status());
    for (const RelId& rel : db->Relations()) {
      const std::string& name = ctx.PredicateName(rel.pred);
      bool is_trans = name.rfind("utrans", 0) == 0;
      bool is_places = (name == "uplaces");
      if (!is_trans && !is_places) continue;
      const Relation* relation = db->Find(rel);
      for (size_t row = 0; row < relation->size(); ++row) {
        std::string term =
            ctx.arena().ToString(relation->Row(row)[0], ctx.symbols());
        (is_trans ? events : conditions).insert(std::move(term));
      }
    }
  }

  bool Holds(const std::string& pred, const std::string& peer,
             const std::string& arg1, const std::string& arg2) {
    // Looks up a binary fact whose arguments are rendered term strings.
    PredicateId pid;
    if (!ctx.LookupPredicate(pred, &pid)) return false;
    SymbolId psym;
    if (!ctx.symbols().Lookup(peer, &psym)) return false;
    const Relation* rel = db->Find(RelId{pid, psym});
    if (rel == nullptr) return false;
    for (size_t row = 0; row < rel->size(); ++row) {
      Tuple r = rel->Row(row);
      if (ctx.arena().ToString(r[0], ctx.symbols()) == arg1 &&
          ctx.arena().ToString(r[1], ctx.symbols()) == arg2) {
        return true;
      }
    }
    return false;
  }
};

// Canonical term sets of an explicit unfolding prefix.
void ExplicitTerms(const Unfolding& u, std::set<std::string>* events,
                   std::set<std::string>* conditions) {
  for (petri::EventId e = 0; e < u.num_events(); ++e) {
    events->insert(EventTerm(u, e));
  }
  for (petri::CondId c = 0; c < u.num_conditions(); ++c) {
    const petri::Condition& cond = u.condition(c);
    std::string producer = cond.producer == petri::kInvalidId
                               ? "r"
                               : EventTerm(u, cond.producer);
    conditions->insert("g(" + producer + "," +
                       petri::PlaceConstantName(u.net(), cond.place) + ")");
  }
}

TEST(EncoderTest, PaperNetTheorem2ExactNodeSets) {
  // The paper net's unfolding is finite; the bottom-up fixpoint of the
  // unfolding program must derive exactly its nodes (Theorem 2).
  PetriNet net = petri::MakePaperNet();
  auto u = Unfolding::Build(net, petri::UnfoldOptions{});
  ASSERT_TRUE(u.ok());
  ASSERT_TRUE(u->complete());

  EncodedEval eval;
  eval.Run(net, /*max_term_depth=*/0);  // finite: no bound needed

  std::set<std::string> expected_events, expected_conditions;
  ExplicitTerms(*u, &expected_events, &expected_conditions);
  EXPECT_EQ(eval.events, expected_events);
  EXPECT_EQ(eval.conditions, expected_conditions);
}

TEST(EncoderTest, PaperNetLemma1CausalityAndConflict) {
  PetriNet net = petri::MakePaperNet();
  auto u = Unfolding::Build(net, petri::UnfoldOptions{});
  ASSERT_TRUE(u.ok());
  EncodedEval eval;
  eval.Run(net, 0);

  // Lemma 1: ucausal(x, y) iff y <= x; unotConf(x, y) iff not x # y.
  for (petri::EventId e1 = 0; e1 < u->num_events(); ++e1) {
    for (petri::EventId e2 = 0; e2 < u->num_events(); ++e2) {
      const std::string p1 =
          u->net().peer_name(u->net().transition(u->event(e1).transition).peer);
      std::string t1 = EventTerm(*u, e1);
      std::string t2 = EventTerm(*u, e2);
      EXPECT_EQ(eval.Holds("ucausal", p1, t1, t2),
                u->CausallyPrecedes(e2, e1))
          << t1 << " vs " << t2;
      EXPECT_EQ(eval.Holds("unotConf", p1, t1, t2), !u->InConflict(e1, e2))
          << t1 << " vs " << t2;
    }
  }
}

TEST(EncoderTest, DepthBoundedFixpointOnInfiniteUnfolding) {
  // With the loop the unfolding is infinite; the depth-pruned fixpoint
  // must coincide with the explicit prefix of matching depth.
  PetriNet net = petri::MakePaperNet(/*with_loop=*/true);
  petri::UnfoldOptions uopts;
  uopts.max_depth = 3;
  auto u = Unfolding::Build(net, uopts);
  ASSERT_TRUE(u.ok());

  EncodedEval eval;
  // Event of unfolding depth d has term depth 2d+1; conditions 2d+2.
  eval.Run(net, /*max_term_depth=*/2 * 3 + 1);

  std::set<std::string> expected_events, expected_conditions;
  ExplicitTerms(*u, &expected_events, &expected_conditions);
  EXPECT_EQ(eval.events, expected_events);
}

TEST(EncoderTest, RandomNetsTheorem2Property) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    petri::RandomNetOptions ropts;
    ropts.num_peers = 2 + seed % 2;
    ropts.places_per_peer = 3;
    ropts.transitions_per_peer = 3;
    ropts.sync_probability = 0.4;
    PetriNet net = petri::MakeRandomNet(ropts, rng);

    petri::UnfoldOptions uopts;
    uopts.max_depth = 3;
    uopts.max_events = 2000;
    auto u = Unfolding::Build(net, uopts);
    ASSERT_TRUE(u.ok()) << "seed " << seed;
    if (!u->complete()) continue;

    EncodedEval eval;
    eval.Run(net, 2 * 3 + 1);
    std::set<std::string> expected_events, expected_conditions;
    ExplicitTerms(*u, &expected_events, &expected_conditions);
    EXPECT_EQ(eval.events, expected_events) << "seed " << seed;
  }
}

TEST(EncoderTest, RejectsInvalidNet) {
  PetriNet net;  // no places, no marking
  DatalogContext ctx;
  EXPECT_FALSE(EncodeNet(net, ctx).ok());
}

}  // namespace
}  // namespace dqsq::diagnosis
