#include "common/metrics.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dqsq {
namespace {

// Each test uses its own registry instance (or resets the global one) so
// tests stay independent of instrumentation firing elsewhere.

TEST(LabelsTest, OrderInsensitiveAndSorted) {
  Labels a{{"engine", "dqsq"}, {"peer", "p1"}};
  Labels b{{"peer", "p1"}, {"engine", "dqsq"}};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ToString(), "{engine=dqsq,peer=p1}");
  EXPECT_EQ(Labels{}.ToString(), "");
}

TEST(LabelsTest, SetOverwritesAndFindLooksUp) {
  Labels l;
  l.Set("k", "v1");
  l.Set("k", "v2");
  ASSERT_NE(l.Find("k"), nullptr);
  EXPECT_EQ(*l.Find("k"), "v2");
  EXPECT_EQ(l.Find("missing"), nullptr);
}

TEST(CounterTest, IncrementAccumulates) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("test.counter");
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  // Same (name, labels) yields the same counter.
  EXPECT_EQ(&registry.GetCounter("test.counter"), &c);
  // Different labels yield a distinct counter.
  Counter& labeled = registry.GetCounter("test.counter", {{"x", "1"}});
  EXPECT_NE(&labeled, &c);
  EXPECT_EQ(labeled.value(), 0u);
}

TEST(GaugeTest, SetAndAddBothWays) {
  MetricsRegistry registry;
  Gauge& g = registry.GetGauge("test.gauge");
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(~0ull), 64u);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7u);
}

TEST(HistogramTest, RecordCountsSumAndBuckets) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("test.hist");
  h.Record(0);
  h.Record(1);
  h.Record(5);
  h.Record(5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 11u);
  EXPECT_EQ(h.bucket(0), 1u);  // the zero
  EXPECT_EQ(h.bucket(1), 1u);  // 1
  EXPECT_EQ(h.bucket(3), 2u);  // 4..7
}

TEST(ScopedTimerTest, RecordsOneSampleOnDestruction) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("test.timer");
  { ScopedTimer timer(h); }
  EXPECT_EQ(h.count(), 1u);
}

TEST(SnapshotTest, DiffSubtractsCountersAndKeepsGauges) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("runs");
  Gauge& g = registry.GetGauge("level");
  c.Increment(10);
  g.Set(3);
  MetricsSnapshot before = registry.Snapshot();
  c.Increment(7);
  g.Set(9);
  registry.GetCounter("fresh").Increment(2);  // absent from `before`
  MetricsSnapshot diff = registry.Snapshot().Diff(before);
  EXPECT_EQ(diff.Value("runs"), 7u);
  EXPECT_EQ(diff.Value("fresh"), 2u);
  const MetricSample* gauge = diff.Find("level");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->gauge_value, 9);
}

TEST(SnapshotTest, DiffSubtractsHistograms) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("lat");
  h.Record(4);
  MetricsSnapshot before = registry.Snapshot();
  h.Record(4);
  h.Record(100);
  MetricsSnapshot diff = registry.Snapshot().Diff(before);
  const MetricSample* s = diff.Find("lat");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 2u);
  EXPECT_EQ(s->sum, 104u);
}

TEST(SnapshotTest, TotalSumsAcrossLabelSets) {
  MetricsRegistry registry;
  registry.GetCounter("msgs", {{"peer", "a"}}).Increment(3);
  registry.GetCounter("msgs", {{"peer", "b"}}).Increment(4);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Total("msgs"), 7u);
  EXPECT_EQ(snap.Value("msgs", {{"peer", "a"}}), 3u);
  EXPECT_EQ(snap.Value("msgs"), 0u);  // no unlabeled variant
}

TEST(SnapshotTest, ToJsonMatchesGolden) {
  MetricsRegistry registry;
  registry.GetCounter("datalog.eval.facts_derived", {{"mode", "seminaive"}},
                      "facts")
      .Increment(123);
  registry.GetGauge("budget", {}, "facts").Set(-7);
  Histogram& h = registry.GetHistogram("solve.wall_ns", {{"strategy", "qsq"}});
  h.Record(0);
  h.Record(1000);
  h.Record(123456789);
  EXPECT_EQ(registry.Snapshot().ToJson(),
            R"({"schema_version":1,"metrics":[)"
            R"({"name":"budget","type":"gauge","unit":"facts",)"
            R"("labels":{},"value":-7},)"
            R"({"name":"datalog.eval.facts_derived","type":"counter",)"
            R"("unit":"facts","labels":{"mode":"seminaive"},"value":123},)"
            R"({"name":"solve.wall_ns","type":"histogram","unit":"ns",)"
            R"("labels":{"strategy":"qsq"},"count":3,"sum":123457789,)"
            R"("buckets":[{"le":0,"count":1},{"le":1023,"count":1},)"
            R"({"le":134217727,"count":1}]}]})");
}

TEST(JsonQuoteTest, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(JsonQuote(""), "\"\"");
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b\\c"), R"("a\"b\\c")");
  EXPECT_EQ(JsonQuote("l1\nl2\tx\ry"), R"("l1\nl2\tx\ry")");
  EXPECT_EQ(JsonQuote(std::string_view("\x01", 1)), R"("\u0001")");
  EXPECT_EQ(JsonQuote(std::string_view("\0", 1)), R"("\u0000")");
  // Bytes at or above 0x20, UTF-8 included, pass through unchanged.
  EXPECT_EQ(JsonQuote("caf\xc3\xa9 ~"), "\"caf\xc3\xa9 ~\"");
}

TEST(RegistryTest, TypeStableAcrossLookups) {
  MetricsRegistry registry;
  registry.GetCounter("n", {}, "facts");
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.samples.size(), 1u);
  EXPECT_EQ(snap.samples[0].type, MetricType::kCounter);
  EXPECT_EQ(snap.samples[0].unit, "facts");
}

TEST(RegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(RegistryTest, ResetForTestZeroesInPlace) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("c");
  Histogram& h = registry.GetHistogram("h");
  c.Increment(5);
  h.Record(9);
  registry.ResetForTest();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.bucket(Histogram::BucketIndex(9)), 0u);
}

TEST(RegistryTest, ConcurrentIncrementsAreExact) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("threads.counter");
  Histogram& h = registry.GetHistogram("threads.hist");
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &c, &h, t] {
      // Mix registration (locked) with updates (lock-free).
      Counter& mine = registry.GetCounter(
          "threads.per_thread", {{"t", std::to_string(t)}});
      for (int i = 0; i < kIters; ++i) {
        c.Increment();
        mine.Increment();
        h.Record(static_cast<uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kIters);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Total("threads.per_thread"),
            static_cast<uint64_t>(kThreads) * kIters);
}

}  // namespace
}  // namespace dqsq
