#include "diagnosis/service.h"

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

TEST(DiagnosisServiceTest, RegisterOpenObserve) {
  DiagnosisService service;
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("plant-1", "paper").ok());

  petri::AlarmSequence prefix;
  for (const petri::Alarm& alarm :
       petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}, {"c", "p1"}})) {
    prefix.push_back(alarm);
    auto result = service.Observe("plant-1", alarm);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(*result, Batch(net, prefix));
  }
  auto observed = service.NumObserved("plant-1");
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(*observed, 3u);
}

TEST(DiagnosisServiceTest, RegistryAndSessionErrors) {
  DiagnosisService service;
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  EXPECT_FALSE(service.RegisterModel("paper", net).ok());   // duplicate
  EXPECT_FALSE(service.OpenSession("s", "nope").ok());      // unknown model
  ASSERT_TRUE(service.OpenSession("s", "paper").ok());
  EXPECT_FALSE(service.OpenSession("s", "paper").ok());     // duplicate
  EXPECT_FALSE(service.Observe("ghost", {"b", "p1"}).ok()); // unknown session
  EXPECT_FALSE(service.CloseSession("ghost").ok());
  ASSERT_TRUE(service.CloseSession("s").ok());
  EXPECT_EQ(service.num_sessions(), 0u);
}

TEST(DiagnosisServiceTest, AdmissionControlRejectsBeyondCap) {
  ServiceOptions opts;
  opts.max_sessions = 2;
  DiagnosisService service(opts);
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("s1", "paper").ok());
  ASSERT_TRUE(service.OpenSession("s2", "paper").ok());
  Status rejected = service.OpenSession("s3", "paper");
  EXPECT_FALSE(rejected.ok());
  EXPECT_FALSE(service.has_session("s3"));
  // A closed slot can be re-admitted.
  ASSERT_TRUE(service.CloseSession("s1").ok());
  EXPECT_TRUE(service.OpenSession("s3", "paper").ok());
}

TEST(DiagnosisServiceTest, UnknownPeerAlarmLeavesStateUntouched) {
  DiagnosisService service;
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("s", "paper").ok());
  ASSERT_TRUE(service.Observe("s", {"b", "p1"}).ok());

  auto bad = service.Observe("s", {"a", "not-a-peer"});
  EXPECT_FALSE(bad.ok());
  auto observed = service.NumObserved("s");
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(*observed, 1u);

  // The session keeps answering correctly after the rejected alarm.
  auto next = service.Observe("s", {"a", "p2"});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, Batch(net, petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}})));
}

TEST(DiagnosisServiceTest, BudgetExhaustedObserveRetryIsIdempotent) {
  ServiceOptions opts;
  opts.session_max_facts = 1;
  DiagnosisService service(opts);
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("s", "paper").ok());

  EXPECT_FALSE(service.Observe("s", {"b", "p1"}).ok());
  EXPECT_FALSE(service.Observe("s", {"b", "p1"}).ok());  // retry: same error
  auto observed = service.NumObserved("s");
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(*observed, 0u);

  ASSERT_TRUE(service.SetSessionBudget("s", 5'000'000).ok());
  auto ok = service.Observe("s", {"b", "p1"});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(*ok, Batch(net, petri::MakeAlarms({{"b", "p1"}})));
}

TEST(DiagnosisServiceTest, FailedObserveLeavesNoStaleEdge) {
  // The session's database exists before the budget failure; the failed
  // alarm's chain edge must not survive into the next, different alarm.
  DiagnosisService service;
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("s", "paper").ok());
  ASSERT_TRUE(service.Current("s").ok());

  ASSERT_TRUE(service.SetSessionBudget("s", 1).ok());
  EXPECT_FALSE(service.Observe("s", {"b", "p1"}).ok());
  ASSERT_TRUE(service.SetSessionBudget("s", 5'000'000).ok());
  auto other = service.Observe("s", {"c", "p1"});
  ASSERT_TRUE(other.ok()) << other.status().ToString();
  EXPECT_EQ(*other, Batch(net, petri::MakeAlarms({{"c", "p1"}})));
  auto observed = service.NumObserved("s");
  ASSERT_TRUE(observed.ok());
  EXPECT_EQ(*observed, 1u);
}

TEST(DiagnosisServiceTest, ForeignHibernationImageFailsCleanly) {
  // The durable store is caller-supplied: a well-formed image of another
  // session under this session's key must fail the wake, not abort, and
  // leave the session hibernated.
  dist::InMemoryDurableStore store;
  ServiceOptions opts;
  opts.store = &store;
  DiagnosisService service(opts);
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("a", "paper").ok());
  ASSERT_TRUE(service.OpenSession("b", "paper").ok());
  ASSERT_TRUE(service.Observe("a", {"b", "p1"}).ok());
  ASSERT_TRUE(service.Observe("b", {"a", "p2"}).ok());
  ASSERT_TRUE(service.Hibernate("a").ok());
  ASSERT_TRUE(service.Hibernate("b").ok());

  std::optional<std::string> own = store.Get("diag.session/a");
  std::optional<std::string> foreign = store.Get("diag.session/b");
  ASSERT_TRUE(own.has_value());
  ASSERT_TRUE(foreign.has_value());
  store.Put("diag.session/a", *foreign);
  EXPECT_FALSE(service.Observe("a", {"a", "p2"}).ok());
  EXPECT_FALSE(service.Current("a").ok());
  EXPECT_FALSE(service.is_resident("a"));

  // With its own image back, the session wakes and answers correctly.
  store.Put("diag.session/a", *own);
  auto next = service.Observe("a", {"a", "p2"});
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, Batch(net, petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}})));
}

TEST(DiagnosisServiceTest, HibernateRestoreRoundTripsByteIdentically) {
  dist::InMemoryDurableStore store;
  ServiceOptions opts;
  opts.store = &store;
  DiagnosisService service(opts);
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("plant", "paper").ok());
  ASSERT_TRUE(service.Observe("plant", {"b", "p1"}).ok());
  ASSERT_TRUE(service.Observe("plant", {"a", "p2"}).ok());

  ASSERT_TRUE(service.Hibernate("plant").ok());
  EXPECT_FALSE(service.is_resident("plant"));
  auto image1 = store.Get("diag.session/plant");
  ASSERT_TRUE(image1.has_value());

  // Current() restores the session from the image without evaluating,
  // and re-hibernating must reproduce the image byte for byte.
  auto current = service.Current("plant");
  ASSERT_TRUE(current.ok());
  EXPECT_TRUE(service.is_resident("plant"));
  EXPECT_EQ(*current, Batch(net, petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}})));

  ASSERT_TRUE(service.Hibernate("plant").ok());
  auto image2 = store.Get("diag.session/plant");
  ASSERT_TRUE(image2.has_value());
  EXPECT_EQ(*image1, *image2);

  // The restored session keeps diagnosing correctly.
  auto next = service.Observe("plant", {"c", "p1"});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, Batch(net, petri::MakeAlarms(
                                  {{"b", "p1"}, {"a", "p2"}, {"c", "p1"}})));
}

uint64_t EvalRuns() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  return registry.GetCounter("datalog.eval.runs", {{"mode", "seminaive"}})
             .value() +
         registry.GetCounter("datalog.eval.runs", {{"mode", "naive"}}).value();
}

TEST(DiagnosisServiceTest, CacheHitImageHoldsTheAnswerAndWakesWithoutEval) {
  // A session whose last alarm was a cache hit hibernates into the image
  // layout: name, model, fingerprint, alarm history, then the encoded
  // answer that hit returned. Waking it answers Current() from those bytes
  // without evaluating.
  dist::InMemoryDurableStore store;
  ServiceOptions opts;
  opts.store = &store;
  DiagnosisService service(opts);
  petri::PetriNet net = petri::MakePaperNet(/*with_loop=*/true);
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("leader", "paper").ok());
  ASSERT_TRUE(service.OpenSession("plant", "paper").ok());
  const petri::AlarmSequence alarms =
      petri::MakeAlarms({{"a", "p2"}, {"b", "p1"}, {"c", "p2"}});
  for (const petri::Alarm& alarm : alarms) {
    ASSERT_TRUE(service.Observe("leader", alarm).ok());
  }
  const uint64_t hits = service.cache("paper")->hits();
  std::vector<Explanation> answer;
  for (const petri::Alarm& alarm : alarms) {
    auto result = service.Observe("plant", alarm);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    answer = *result;
  }
  ASSERT_EQ(service.cache("paper")->hits(), hits + alarms.size());
  ASSERT_FALSE(answer.empty());
  EXPECT_EQ(answer, Batch(net, alarms));

  ASSERT_TRUE(service.Hibernate("plant").ok());
  std::optional<std::string> image = store.Get("diag.session/plant");
  ASSERT_TRUE(image.has_value());
  dist::SnapshotReader header(*image);
  ASSERT_EQ(header.Str(), "plant");
  ASSERT_EQ(header.Str(), "paper");
  dist::SnapshotWriter expected;
  expected.Str("plant");
  expected.Str("paper");
  expected.U64(header.U64());  // the model fingerprint
  expected.U64(alarms.size());
  for (const petri::Alarm& alarm : alarms) {
    expected.Str(alarm.symbol);
    expected.Str(alarm.peer);
  }
  expected.Bool(true);
  EncodeExplanations(answer, expected);
  EXPECT_EQ(*image, expected.bytes());

  const uint64_t runs = EvalRuns();
  auto current = service.Current("plant");
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  EXPECT_TRUE(service.is_resident("plant"));
  EXPECT_EQ(*current, answer);
  EXPECT_EQ(EvalRuns(), runs);
}

TEST(DiagnosisServiceTest, ClosedSessionsLeaveNoImageBehind) {
  dist::InMemoryDurableStore store;
  ServiceOptions opts;
  opts.store = &store;
  DiagnosisService service(opts);
  ASSERT_TRUE(service.RegisterModel("paper", petri::MakePaperNet()).ok());
  constexpr int kRounds = 1000;
  for (int i = 0; i < kRounds; ++i) {
    const std::string name = "s" + std::to_string(i);
    ASSERT_TRUE(service.OpenSession(name, "paper").ok());
    ASSERT_TRUE(service.Observe(name, {"b", "p1"}).ok());
    ASSERT_TRUE(service.Hibernate(name).ok());
    ASSERT_TRUE(store.Get("diag.session/" + name).has_value());
    ASSERT_TRUE(service.CloseSession(name).ok());
  }
  EXPECT_EQ(service.num_sessions(), 0u);
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_FALSE(store.Get("diag.session/s" + std::to_string(i)).has_value())
        << i;
  }
}

TEST(DiagnosisServiceTest, ColdSessionsEvictUnderResidencyCap) {
  ServiceOptions opts;
  opts.max_resident_sessions = 1;
  DiagnosisService service(opts);
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("s1", "paper").ok());
  ASSERT_TRUE(service.OpenSession("s2", "paper").ok());
  EXPECT_EQ(service.num_resident(), 1u);
  EXPECT_FALSE(service.is_resident("s1"));  // evicted by s2's admission

  // Alternating alarms churn hibernate/restore; answers stay correct.
  petri::AlarmSequence prefix;
  for (const petri::Alarm& alarm :
       petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}, {"c", "p1"}})) {
    prefix.push_back(alarm);
    auto r1 = service.Observe("s1", alarm);
    auto r2 = service.Observe("s2", alarm);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    EXPECT_EQ(*r1, Batch(net, prefix));
    EXPECT_EQ(*r2, Batch(net, prefix));
    EXPECT_EQ(service.num_resident(), 1u);
  }
}

TEST(DiagnosisServiceTest, SharedCacheMatchesIsolatedSessions) {
  // Two sessions sharing the model's prefix cache must answer exactly as
  // two fully isolated services; the second stream is served from cache.
  petri::PetriNet net = petri::MakePaperNet(/*with_loop=*/true);
  petri::AlarmSequence alarms = petri::MakeAlarms(
      {{"a", "p2"}, {"b", "p1"}, {"c", "p2"}, {"a", "p2"}});

  DiagnosisService shared;
  ASSERT_TRUE(shared.RegisterModel("m", net).ok());
  ASSERT_TRUE(shared.OpenSession("a", "m").ok());
  ASSERT_TRUE(shared.OpenSession("b", "m").ok());

  DiagnosisService isolated_a, isolated_b;
  ASSERT_TRUE(isolated_a.RegisterModel("m", net).ok());
  ASSERT_TRUE(isolated_b.RegisterModel("m", net).ok());
  ASSERT_TRUE(isolated_a.OpenSession("a", "m").ok());
  ASSERT_TRUE(isolated_b.OpenSession("b", "m").ok());

  for (const petri::Alarm& alarm : alarms) {
    auto sa = shared.Observe("a", alarm);
    auto sb = shared.Observe("b", alarm);
    auto ia = isolated_a.Observe("a", alarm);
    auto ib = isolated_b.Observe("b", alarm);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    ASSERT_TRUE(ia.ok());
    ASSERT_TRUE(ib.ok());
    EXPECT_EQ(*sa, *ia);
    EXPECT_EQ(*sb, *ib);
  }
  // Session b never evaluated: every one of its prefixes was a hit from a.
  const SubqueryCache* cache = shared.cache("m");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->hits(), alarms.size());
  EXPECT_EQ(cache->misses(), alarms.size());
}

TEST(DiagnosisServiceTest, CacheDisabledStillAnswers) {
  ServiceOptions opts;
  opts.cache_bytes = 0;
  DiagnosisService service(opts);
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("m", net).ok());
  ASSERT_TRUE(service.OpenSession("s", "m").ok());
  auto result = service.Observe("s", {"b", "p1"});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, Batch(net, petri::MakeAlarms({{"b", "p1"}})));
  EXPECT_EQ(service.cache("m")->entries(), 0u);
}

TEST(DiagnosisServiceTest, UnregisterHibernatesResidentsAndIdenticalNetWakes) {
  DiagnosisService service;
  petri::PetriNet net = petri::MakePaperNet();
  ASSERT_TRUE(service.RegisterModel("paper", net).ok());
  ASSERT_TRUE(service.OpenSession("s1", "paper").ok());
  ASSERT_TRUE(service.OpenSession("s2", "paper").ok());
  ASSERT_TRUE(service.Observe("s1", {"b", "p1"}).ok());
  EXPECT_FALSE(service.UnregisterModel("ghost").ok());

  // Resident diagnosers borrow the model's context: unregistering must
  // hibernate them first, while they stay admitted.
  ASSERT_TRUE(service.UnregisterModel("paper").ok());
  EXPECT_FALSE(service.is_resident("s1"));
  EXPECT_FALSE(service.is_resident("s2"));
  EXPECT_TRUE(service.has_session("s1"));
  EXPECT_EQ(service.cache("paper"), nullptr);

  // With no model registered, waking fails cleanly and is retryable.
  auto gone = service.Observe("s1", {"a", "p2"});
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kFailedPrecondition);

  // A structurally identical re-registration has the same fingerprint, so
  // the hibernated sessions wake and keep diagnosing correctly.
  ASSERT_TRUE(service.RegisterModel("paper", petri::MakePaperNet()).ok());
  auto next = service.Observe("s1", {"a", "p2"});
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(*next, Batch(net, petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}})));
  auto fresh = service.Observe("s2", {"b", "p1"});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
}

TEST(DiagnosisServiceTest, WakeAgainstReRegisteredDifferentModelFailsCleanly) {
  // Death-adjacent regression: a session hibernated under one plant model
  // must NOT wake against a structurally different net re-registered under
  // the same name — its alarm history would be replayed into the wrong
  // plant. The old behaviour was a process-killing consistency CHECK; now
  // admission fails with FAILED_PRECONDITION and the service stays usable.
  DiagnosisService service;
  ASSERT_TRUE(service.RegisterModel("paper", petri::MakePaperNet()).ok());
  ASSERT_TRUE(service.OpenSession("plant", "paper").ok());
  ASSERT_TRUE(service.Observe("plant", {"b", "p1"}).ok());
  ASSERT_TRUE(service.Hibernate("plant").ok());

  ASSERT_TRUE(service.UnregisterModel("paper").ok());
  petri::PetriNet redeployed = petri::MakePaperNet(/*with_loop=*/true);
  ASSERT_TRUE(service.RegisterModel("paper", redeployed).ok());

  auto woken = service.Observe("plant", {"a", "p2"});
  ASSERT_FALSE(woken.ok());
  EXPECT_EQ(woken.status().code(), StatusCode::kFailedPrecondition);
  auto current = service.Current("plant");
  ASSERT_FALSE(current.ok());
  EXPECT_EQ(current.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(service.is_resident("plant"));
  EXPECT_TRUE(service.has_session("plant"));

  // The rejection is per-session: new sessions of the redeployed model run
  // normally, and the stale session frees its admission slot on close.
  ASSERT_TRUE(service.OpenSession("plant-2", "paper").ok());
  auto fresh = service.Observe("plant-2", {"b", "p1"});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(*fresh, Batch(redeployed, petri::MakeAlarms({{"b", "p1"}})));
  EXPECT_TRUE(service.CloseSession("plant").ok());
}

TEST(DiagnosisServiceTest, PrefixKeyIsInterleavingInvariant) {
  auto k1 = ObservationPrefixKey(
      petri::MakeAlarms({{"b", "p1"}, {"a", "p2"}, {"c", "p1"}}));
  auto k2 = ObservationPrefixKey(
      petri::MakeAlarms({{"b", "p1"}, {"c", "p1"}, {"a", "p2"}}));
  auto k3 = ObservationPrefixKey(
      petri::MakeAlarms({{"c", "p1"}, {"b", "p1"}, {"a", "p2"}}));
  EXPECT_EQ(k1, k2);   // same per-peer subsequences
  EXPECT_NE(k1, k3);   // p1's order differs
}

TEST(DiagnosisServiceTest, PrefixKeyIsThePerPeerSplit) {
  // The key's bytes are pinned: the per-peer subsequences of
  // petri::SplitByPeer, in its sorted peer order.
  auto reference = [](const petri::AlarmSequence& history) {
    std::string key;
    for (const auto& [peer, symbols] : petri::SplitByPeer(history)) {
      key += peer + ":";
      for (const std::string& symbol : symbols) key += symbol + ",";
      key += "|";
    }
    return key;
  };
  EXPECT_EQ(ObservationPrefixKey({}), "");
  EXPECT_EQ(ObservationPrefixKey(petri::MakeAlarms(
                {{"b", "p1"}, {"a", "p2"}, {"c", "p1"}})),
            "p1:b,c,|p2:a,|");
  const petri::AlarmSequence long_history = petri::MakeAlarms(
      {{"x", "q"}, {"a", "p10"}, {"b", "p2"}, {"a", "p1"}, {"c", "q"},
       {"b", "p10"}, {"a", "p"}, {"a", "p1"}});
  for (size_t n = 0; n <= long_history.size(); ++n) {
    const petri::AlarmSequence prefix(long_history.begin(),
                                      long_history.begin() + n);
    EXPECT_EQ(ObservationPrefixKey(prefix), reference(prefix)) << n;
  }
}

}  // namespace
}  // namespace dqsq::diagnosis
