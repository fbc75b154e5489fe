#include "diagnosis/online.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "diagnosis/diagnoser.h"
#include "petri/examples.h"

namespace dqsq::diagnosis {
namespace {

std::vector<Explanation> Batch(const petri::PetriNet& net,
                               const petri::AlarmSequence& alarms) {
  DiagnosisOptions opts;
  opts.engine = DiagnosisEngine::kCentralQsq;
  auto result = Diagnose(net, alarms, opts);
  DQSQ_CHECK_OK(result.status());
  return result->explanations;
}

TEST(OnlineDiagnoserTest, MatchesBatchOnEveryPrefix) {
  petri::PetriNet net = petri::MakePaperNet();
  petri::AlarmSequence alarms = petri::MakeAlarms(
      {{"b", "p1"}, {"a", "p2"}, {"c", "p1"}});
  auto online = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(online.ok()) << online.status().ToString();

  // Empty prefix.
  auto current = online->Current();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, Batch(net, {}));

  petri::AlarmSequence prefix;
  for (const petri::Alarm& alarm : alarms) {
    prefix.push_back(alarm);
    auto result = online->Observe(alarm);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, Batch(net, prefix))
        << "prefix " << petri::AlarmSequenceToString(prefix);
  }
  EXPECT_EQ(online->num_observed(), 3u);
}

TEST(OnlineDiagnoserTest, PrefixWithNoExplanationThenNothingLater) {
  petri::PetriNet net = petri::MakePaperNet();
  auto online = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(online.ok());
  // (c,p1) first: c needs place 2, never marked initially.
  auto r1 = online->Observe({"c", "p1"});
  ASSERT_TRUE(r1.ok());
  EXPECT_TRUE(r1->empty());
  auto r2 = online->Observe({"b", "p1"});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->empty());
}

TEST(OnlineDiagnoserTest, IncrementalStepsReuseMaterialization) {
  // The final step's incremental delta is smaller than what a from-scratch
  // batch run of the same prefix derives in total: the unfolding fragment
  // and cfgp prefixes materialized at earlier steps are reused.
  petri::PetriNet net = petri::MakePaperNet(/*with_loop=*/true);
  petri::AlarmSequence prefix = petri::MakeAlarms(
      {{"a", "p2"}, {"c", "p2"}, {"a", "p2"}});
  auto online = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(online.ok());
  for (const petri::Alarm& alarm : prefix) {
    ASSERT_TRUE(online->Observe(alarm).ok());
  }
  size_t last_delta = online->last_step_new_facts();
  EXPECT_GT(last_delta, 0u);

  DiagnosisOptions opts;
  opts.engine = DiagnosisEngine::kCentralQsq;
  auto fresh = Diagnose(net, prefix, opts);
  ASSERT_TRUE(fresh.ok());
  EXPECT_LT(last_delta, fresh->total_facts);
}

TEST(OnlineDiagnoserTest, UnknownPeerRejected) {
  petri::PetriNet net = petri::MakePaperNet();
  auto online = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(online.ok());
  auto result = online->Observe({"a", "nope"});
  EXPECT_FALSE(result.ok());
}

TEST(OnlineDiagnoserTest, CurrentIsCachedBetweenObserves) {
  petri::PetriNet net = petri::MakePaperNet();
  auto online = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(online.ok());
  ASSERT_TRUE(online->Observe({"b", "p1"}).ok());
  size_t facts = online->total_facts();
  auto again = online->Current();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(online->total_facts(), facts);  // no re-evaluation
}

TEST(OnlineDiagnoserTest, InterleavedPeersMatchBatch) {
  petri::PetriNet net = petri::MakePaperNet(/*with_loop=*/true);
  petri::AlarmSequence alarms = petri::MakeAlarms(
      {{"a", "p2"}, {"b", "p1"}, {"c", "p2"}, {"a", "p2"}});
  auto online = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(online.ok());
  petri::AlarmSequence prefix;
  for (const petri::Alarm& alarm : alarms) {
    prefix.push_back(alarm);
    auto result = online->Observe(alarm);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, Batch(net, prefix))
        << petri::AlarmSequenceToString(prefix);
  }
}

TEST(OnlineDiagnoserTest, ProgramKeepsAtMostOneQueryRule) {
  // The model's compiled program holds exactly one rule deriving the
  // query's answer relation, and sessions never add rules to it: each
  // alarm is a fact in the session's own database.
  petri::PetriNet net = petri::MakePaperNet();
  auto model = OnlineModel::Build(net);
  ASSERT_TRUE(model.ok());
  const Program& program = model->program->program;
  auto query_rules = [&] {
    size_t n = 0;
    for (const Rule& rule : program.rules) {
      n += rule.head.rel == model->program->answer_rel ? 1 : 0;
    }
    return n;
  };
  const size_t rules = program.rules.size();
  EXPECT_EQ(query_rules(), 1u);

  OnlineDiagnoser online = OnlineDiagnoser::CreateShared(*model, {});
  ASSERT_TRUE(online.Current().ok());
  ASSERT_TRUE(online.Current().ok());
  petri::AlarmSequence alarms =
      petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}, {"c", "p1"}});
  petri::AlarmSequence prefix;
  for (const petri::Alarm& alarm : alarms) {
    prefix.push_back(alarm);
    auto result = online.Observe(alarm);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, Batch(net, prefix));
  }
  EXPECT_EQ(online.num_observed(), 3u);
  EXPECT_EQ(program.rules.size(), rules);
  EXPECT_EQ(query_rules(), 1u);
}

TEST(OnlineDiagnoserTest, CompiledOnceAcrossSessionsAndAlarms) {
  // The QSQ rewrite runs in OnlineModel::Build and never again: every
  // evaluation of every session reuses it, and no evaluation interns a
  // per-step predicate.
  petri::PetriNet net = petri::MakePaperNet(/*with_loop=*/true);
  Counter& rewrites = MetricsRegistry::Global().GetCounter(
      "datalog.qsq.rewrites", {{"variant", "qsq"}});
  auto model = OnlineModel::Build(net);
  ASSERT_TRUE(model.ok());
  const uint64_t rewrites_after_build = rewrites.value();

  OnlineDiagnoser a = OnlineDiagnoser::CreateShared(*model, {});
  OnlineDiagnoser b = OnlineDiagnoser::CreateShared(*model, {});
  ASSERT_TRUE(a.Current().ok());
  const size_t predicates = model->ctx->num_predicates();

  petri::AlarmSequence stream_a =
      petri::MakeAlarms({{"a", "p2"}, {"b", "p1"}, {"c", "p2"}});
  petri::AlarmSequence stream_b =
      petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}, {"c", "p2"}});
  std::vector<std::vector<Explanation>> answers_a, answers_b;
  for (size_t i = 0; i < stream_a.size(); ++i) {
    auto ra = a.Observe(stream_a[i]);
    auto rb = b.Observe(stream_b[i]);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    answers_a.push_back(*ra);
    answers_b.push_back(*rb);
    EXPECT_EQ(rewrites.value(), rewrites_after_build) << "alarm " << i;
    EXPECT_EQ(model->ctx->num_predicates(), predicates) << "alarm " << i;
  }

  // Batch runs rewrite per call, so they are checked after the window.
  for (size_t i = 0; i < stream_a.size(); ++i) {
    petri::AlarmSequence prefix_a(stream_a.begin(), stream_a.begin() + i + 1);
    petri::AlarmSequence prefix_b(stream_b.begin(), stream_b.begin() + i + 1);
    EXPECT_EQ(answers_a[i], Batch(net, prefix_a));
    EXPECT_EQ(answers_b[i], Batch(net, prefix_b));
  }
}

TEST(OnlineDiagnoserTest, FailedObserveRollsBackAndRetrySucceeds) {
  // A budget-failed Observe must leave no trace (no alarm in the history),
  // and retrying the same alarm after raising the budget must succeed with
  // the same answers a fresh diagnoser computes.
  petri::PetriNet net = petri::MakePaperNet();
  OnlineOptions tiny;
  tiny.max_facts = 1;
  auto online = OnlineDiagnoser::Create(net, tiny);
  ASSERT_TRUE(online.ok());

  auto fail1 = online->Observe({"b", "p1"});
  ASSERT_FALSE(fail1.ok());
  EXPECT_EQ(online->num_observed(), 0u);

  // The retry is idempotent: same failure, still nothing observed.
  auto fail2 = online->Observe({"b", "p1"});
  ASSERT_FALSE(fail2.ok());
  EXPECT_EQ(online->num_observed(), 0u);

  online->set_max_facts(5'000'000);
  auto ok = online->Observe({"b", "p1"});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, Batch(net, petri::MakeAlarms({{"b", "p1"}})));
  EXPECT_EQ(online->num_observed(), 1u);
}

TEST(OnlineDiagnoserTest, FailedObserveLeavesNoStaleEdge) {
  // The session's database is materialized before the failing alarm, so
  // a rollback that kept it would keep the failed alarm's chain edge —
  // and a later alarm at the same position would see the failed one's
  // explanations. Dropping the database rules that out.
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_FALSE(Batch(net, petri::MakeAlarms({{"b", "p1"}})).empty());
  auto online = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(online.ok());
  ASSERT_TRUE(online->Current().ok());
  EXPECT_GT(online->total_facts(), 0u);

  online->set_max_facts(1);
  ASSERT_FALSE(online->Observe({"b", "p1"}).ok());
  EXPECT_EQ(online->num_observed(), 0u);

  online->set_max_facts(5'000'000);
  auto other = online->Observe({"c", "p1"});
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_EQ(*other, Batch(net, petri::MakeAlarms({{"c", "p1"}})));
  EXPECT_EQ(online->num_observed(), 1u);
}

TEST(OnlineDiagnoserTest, FailedCurrentRetryDoesNotDuplicateQueryRules) {
  petri::PetriNet net = petri::MakePaperNet();
  OnlineOptions tiny;
  tiny.max_facts = 1;
  auto online = OnlineDiagnoser::Create(net, tiny);
  ASSERT_TRUE(online.ok());

  ASSERT_FALSE(online->Current().ok());
  ASSERT_FALSE(online->Current().ok());

  online->set_max_facts(5'000'000);
  auto ok = online->Current();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, Batch(net, {}));
}

TEST(OnlineDiagnoserTest, SharedModelSessionsMatchIsolatedOnes) {
  // Two sessions over one OnlineModel share the term arena and symbol
  // table; their answers must equal a session with a private context.
  petri::PetriNet net = petri::MakePaperNet(/*with_loop=*/true);
  auto model = OnlineModel::Build(net);
  ASSERT_TRUE(model.ok());
  OnlineDiagnoser a = OnlineDiagnoser::CreateShared(*model, OnlineOptions{});
  OnlineDiagnoser b = OnlineDiagnoser::CreateShared(*model, OnlineOptions{});
  auto isolated = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(isolated.ok());

  petri::AlarmSequence alarms =
      petri::MakeAlarms({{"a", "p2"}, {"b", "p1"}, {"c", "p2"}});
  for (const petri::Alarm& alarm : alarms) {
    auto ra = a.Observe(alarm);
    auto rb = b.Observe(alarm);
    auto ri = isolated->Observe(alarm);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    ASSERT_TRUE(ri.ok());
    EXPECT_EQ(*ra, *ri);
    EXPECT_EQ(*rb, *ri);
  }
}

TEST(OnlineDiagnoserTest, ObserveCachedMatchesEvaluatedAnswers) {
  // ObserveCached advances the session without evaluating; a later cache
  // miss (here: Observe of a fresh alarm) must still produce the same
  // answers as a session that evaluated every step.
  petri::PetriNet net = petri::MakePaperNet();
  auto evaluated = OnlineDiagnoser::Create(net, OnlineOptions{});
  auto skipping = OnlineDiagnoser::Create(net, OnlineOptions{});
  ASSERT_TRUE(evaluated.ok());
  ASSERT_TRUE(skipping.ok());

  auto step1 = evaluated->Observe({"b", "p1"});
  ASSERT_TRUE(step1.ok());
  ASSERT_TRUE(skipping->ObserveCached({"b", "p1"}, *step1).ok());
  auto cached = skipping->Current();
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(*cached, *step1);
  EXPECT_EQ(skipping->last_step_new_facts(), 0u);  // nothing evaluated

  auto step2 = evaluated->Observe({"a", "p2"});
  auto fresh2 = skipping->Observe({"a", "p2"});
  ASSERT_TRUE(step2.ok());
  ASSERT_TRUE(fresh2.ok());
  EXPECT_EQ(*fresh2, *step2);
}

}  // namespace
}  // namespace dqsq::diagnosis
