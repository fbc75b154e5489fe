// Tests of the benchmark's own pieces: the percentile rule, the span
// recorder, the traced pipelines (which must answer byte for byte like
// the public calls they decompose) and the Observe classifier.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "diagnosis/diagnosability.h"
#include "diagnosis/diagnoser.h"
#include "diagnosis/service.h"
#include "petri/examples.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dqsq;
using diagnosis::DiagnosisEngine;

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(PercentileTest, ReportedOnlyWithTenSamplesAbove) {
  EXPECT_FALSE(Percentile(OneTo(19), 0.5).has_value());
  ASSERT_TRUE(Percentile(OneTo(20), 0.5).has_value());
  EXPECT_EQ(*Percentile(OneTo(20), 0.5), 10.0);

  EXPECT_FALSE(Percentile(OneTo(99), 0.9).has_value());
  ASSERT_TRUE(Percentile(OneTo(100), 0.9).has_value());
  EXPECT_EQ(*Percentile(OneTo(100), 0.9), 90.0);

  EXPECT_FALSE(Percentile(OneTo(999), 0.99).has_value());
  ASSERT_TRUE(Percentile(OneTo(1000), 0.99).has_value());
  EXPECT_EQ(*Percentile(OneTo(1000), 0.99), 990.0);
}

TEST(PercentileTest, RejectsEmptyInputAndBadQuantiles) {
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
  EXPECT_FALSE(Percentile(OneTo(100), 0.0).has_value());
  EXPECT_FALSE(Percentile(OneTo(100), 1.0).has_value());
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(TracerTest, SelfTimeExcludesChildren) {
  Tracer tracer;
  tracer.BeginOperation();
  {
    ScopedSpan root(&tracer, "op.root");
    { ScopedSpan a(&tracer, "layer.a"); }
    {
      ScopedSpan b(&tracer, "layer.b");
      ScopedSpan c(&tracer, "layer.a");
    }
  }
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, 2);
  for (const Span& s : spans) EXPECT_EQ(s.op, 1u);

  const auto totals = tracer.Totals();
  EXPECT_EQ(totals.at("op.root").self_ns,
            spans[0].dur_ns - spans[1].dur_ns - spans[2].dur_ns);
  EXPECT_EQ(totals.at("layer.b").self_ns, spans[2].dur_ns - spans[3].dur_ns);
  EXPECT_EQ(totals.at("layer.a").self_ns, spans[1].dur_ns + spans[3].dur_ns);
  EXPECT_EQ(totals.at("layer.a").calls, 2u);
}

TEST(TracerTest, RenamesAndNullTracer) {
  Tracer tracer;
  {
    ScopedSpan s(&tracer, "service.observe");
    s.Rename("service.observe.miss");
  }
  EXPECT_STREQ(tracer.spans()[0].name, "service.observe.miss");
  ScopedSpan ignored(nullptr, "nothing");  // records nothing, must not crash
  ignored.Rename("still.nothing");
}

TEST(TracerTest, ChromeJsonHasOneCompleteEventPerSpan) {
  Tracer tracer;
  tracer.BeginOperation();
  {
    ScopedSpan root(&tracer, "op.root");
    ScopedSpan child(&tracer, "layer.a");
  }
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"op.root\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"layer.a\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":0"), std::string::npos);
  size_t events = 0;
  for (size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
       at = json.find("\"ph\":\"X\"", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 2u);
}

TEST(TracedDiagnoseTest, CentralQsqIsByteIdenticalToDiagnose) {
  auto pool = MakeDiagnosisPool(/*net_seed=*/7, /*run_seed=*/11, 10, 2, 4);
  diagnosis::DiagnosisOptions options;
  options.engine = DiagnosisEngine::kCentralQsq;
  for (const DiagnosisCase& c : pool) {
    auto expected = diagnosis::Diagnose(c.net, c.observation, options);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    Tracer tracer;
    LayerCounts counts;
    auto traced =
        TracedDiagnose(c.net, c.observation, options, &tracer, &counts);
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();
    EXPECT_EQ(RenderExplanations(traced->explanations),
              RenderExplanations(expected->explanations));
    EXPECT_EQ(traced->materialized_events, expected->materialized_events);
    EXPECT_EQ(traced->materialized_conditions,
              expected->materialized_conditions);
    EXPECT_EQ(traced->total_facts, expected->total_facts);
    EXPECT_GT(counts.rewrite_rules, 0u);
    EXPECT_EQ(counts.eval.runs, 1u);
    EXPECT_EQ(counts.dist_steps, 0u);
    EXPECT_EQ(tracer.Durations("datalog.eval").size(), 1u);
  }
}

TEST(TracedDiagnoseTest, DistQsqIsByteIdenticalToDiagnose) {
  auto pool = MakeDiagnosisPool(/*net_seed=*/7, /*run_seed=*/7, 6, 2, 3);
  for (size_t k = 0; k < pool.size(); ++k) {
    const DiagnosisCase& c = pool[k];
    diagnosis::DiagnosisOptions options;
    options.engine = DiagnosisEngine::kDistQsq;
    options.seed = 100 + k;
    auto expected = diagnosis::Diagnose(c.net, c.observation, options);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    Tracer tracer;
    LayerCounts counts;
    auto traced =
        TracedDiagnose(c.net, c.observation, options, &tracer, &counts);
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();
    EXPECT_EQ(RenderExplanations(traced->explanations),
              RenderExplanations(expected->explanations));
    // One Step delivers one message; the traced loop ships what the
    // public call ships.
    EXPECT_EQ(counts.dist_steps, expected->messages);
    EXPECT_EQ(counts.tuples_shipped, expected->tuples_shipped);
    EXPECT_EQ(tracer.Durations("dist.step").size(), counts.dist_steps);
    EXPECT_GT(counts.step_eval.runs, 0u);
    EXPECT_EQ(counts.rule_rounds, 0u);
  }
}

TEST(TracedDiagnoseTest, RejectsOtherEngines) {
  auto pool = MakeDiagnosisPool(7, 7, 1, 2, 2);
  diagnosis::DiagnosisOptions options;
  options.engine = DiagnosisEngine::kBfhj;
  EXPECT_FALSE(TracedDiagnose(pool[0].net, pool[0].observation, options,
                              nullptr, nullptr)
                   .ok());
}

TEST(TracedCheckDiagnosabilityTest, MatchesCheckDiagnosability) {
  auto pool = MakeVerifierPool(/*seed=*/3, 24);
  size_t undiagnosable = 0;
  for (const petri::PetriNet& net : pool) {
    auto expected = diagnosis::CheckDiagnosability(net);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    Tracer tracer;
    LayerCounts counts;
    auto traced = TracedCheckDiagnosability(net, &tracer, &counts);
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();
    EXPECT_EQ(traced->diagnosable, expected->diagnosable);
    EXPECT_EQ(traced->witness_anchors, expected->witness_anchors);
    EXPECT_EQ(traced->total_facts, expected->total_facts);
    EXPECT_EQ(traced->verifier_states, expected->verifier_states);
    ASSERT_EQ(traced->witness.has_value(), expected->witness.has_value());
    if (traced->witness.has_value()) {
      ++undiagnosable;
      EXPECT_EQ(traced->witness->anchor, expected->witness->anchor);
      EXPECT_EQ(tracer.Durations("petri.replay").size(), 1u);
    }
    EXPECT_EQ(tracer.Durations("datalog.parse").size(), 1u);
  }
  EXPECT_GT(undiagnosable, 0u);
  EXPECT_LT(undiagnosable, pool.size());
}

TEST(ObserveClassifiedTest, AgreesWithServiceCounters) {
  const petri::PetriNet net = petri::MakePaperNet(/*with_loop=*/true);
  const auto streams = MakeStreamPool(net, 4, 5, /*seed=*/5);
  diagnosis::ServiceOptions options;
  options.max_resident_sessions = 8;
  diagnosis::DiagnosisService service(options);
  ASSERT_TRUE(service.RegisterModel("plant", net).ok());
  const size_t kSessions = 24;
  for (size_t i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(service.OpenSession("s" + std::to_string(i), "plant").ok());
  }
  auto counter = [](const char* name) {
    return MetricsRegistry::Global().GetCounter(name).value();
  };
  const uint64_t restored0 = counter("diag.service.sessions_restored");
  const uint64_t hits0 = counter("diag.service.cache_hits");
  const uint64_t misses0 = counter("diag.service.cache_misses");

  // Blocks of four sessions (one per stream) run their streams
  // round-robin: the first block misses, the others hit the prefix cache,
  // first after a restore (opening 24 sessions hibernated most of them),
  // then while resident.
  size_t restored = 0, hits = 0, misses = 0, resident_hits = 0;
  Tracer tracer;
  for (size_t block = 0; block < kSessions; block += streams.size()) {
    for (size_t round = 0; round < 5; ++round) {
      for (size_t i = block; i < block + streams.size(); ++i) {
        const auto& stream = streams[i % streams.size()];
        if (round >= stream.size()) continue;
        ClassifiedObserve o = ObserveClassified(
            service, "plant", "s" + std::to_string(i), stream[round], &tracer);
        ASSERT_TRUE(o.result.ok()) << o.result.status().ToString();
        restored += o.restored ? 1 : 0;
        misses += o.cls == ObserveClass::kMiss ? 1 : 0;
        hits += o.cls == ObserveClass::kMiss ? 0 : 1;
        resident_hits += o.cls == ObserveClass::kResidentHit ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(restored, counter("diag.service.sessions_restored") - restored0);
  EXPECT_EQ(hits, counter("diag.service.cache_hits") - hits0);
  EXPECT_EQ(misses, counter("diag.service.cache_misses") - misses0);
  EXPECT_GT(restored, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
  EXPECT_GT(resident_hits, 0u);
  EXPECT_EQ(tracer.Durations("service.observe.resident_hit").size(),
            resident_hits);
  EXPECT_EQ(tracer.Durations("service.observe.miss").size(), misses);
}

}  // namespace
}  // namespace perfbench
