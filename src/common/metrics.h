// Process-wide metrics registry: named counters, gauges and log-bucket
// latency histograms with hierarchical labels (engine=dqsq, peer=p1).
// The paper's evaluation is constructive (Theorems 1-4 promise exact
// materialization and bounded communication), so every quantitative claim
// this repo makes rests on the counters defined here; docs/METRICS.md is
// the reference for each exported metric and the BENCH_*.json schema.
//
// Design:
//  * Registration (name + labels -> metric) takes a mutex once; callers
//    keep the returned reference, and every subsequent update is a single
//    relaxed std::atomic RMW — the lock-free fast path.
//  * Histograms use fixed power-of-two buckets (bucket i counts values in
//    [2^(i-1), 2^i)), so recording is a bit_width + two atomic adds and
//    snapshots are tiny.
//  * MetricsSnapshot captures the registry at a point in time; Diff()
//    subtracts an earlier snapshot (counters/histograms subtract, gauges
//    keep the later value), which is how per-run numbers are extracted
//    from the process-wide totals.
//  * ToJson() emits the stable schema consumed by bench/bench_report.h
//    (a golden string in the unit test pins it). JsonQuote() is the one
//    JSON string escaper; the bench and cluster reports use it too.
#ifndef DQSQ_COMMON_METRICS_H_
#define DQSQ_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dqsq {

/// A sorted set of key=value labels. Order-insensitive: {a=1,b=2} equals
/// {b=2,a=1}. Kept small (typically 0-2 entries), so a sorted vector wins
/// over a map.
class Labels {
 public:
  Labels() = default;
  Labels(std::initializer_list<std::pair<std::string, std::string>> kv) {
    for (auto& [k, v] : kv) Set(k, v);
  }

  /// Inserts or overwrites one label.
  void Set(const std::string& key, const std::string& value);

  /// Value of `key`, or nullptr.
  const std::string* Find(const std::string& key) const;

  bool empty() const { return entries_.size() == 0; }
  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  /// "{k1=v1,k2=v2}"; "" when empty.
  std::string ToString() const;

  friend bool operator==(const Labels& a, const Labels& b) {
    return a.entries_ == b.entries_;
  }
  friend bool operator<(const Labels& a, const Labels& b) {
    return a.entries_ < b.entries_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;  // sorted by key
};

enum class MetricType { kCounter, kGauge, kHistogram };

std::string MetricTypeName(MetricType type);

/// Monotonically increasing count. Relaxed atomics: totals are exact, but
/// no ordering is implied with respect to other memory.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<uint64_t> value_{0};
};

/// A value that can move both ways (e.g. current budget headroom).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<int64_t> value_{0};
};

/// Fixed log-bucket histogram: bucket 0 counts zeros, bucket i >= 1 counts
/// values v with bit_width(v) == i, i.e. v in [2^(i-1), 2^i). 64 buckets
/// cover the whole uint64_t range, so recording never clamps.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 65;  // zeros + one per bit width

  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Inclusive upper bound of bucket `i` (0 for bucket 0, 2^i - 1 above).
  static uint64_t BucketUpperBound(size_t i);
  /// Bucket index for `value` (bit_width, 0 for 0).
  static size_t BucketIndex(uint64_t value);

 private:
  friend class MetricsRegistry;
  void ResetForTest();
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Records the elapsed wall time (steady clock, nanoseconds) into a
/// histogram when it goes out of scope.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : histogram_(&histogram), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { histogram_->Record(ElapsedNs()); }

  uint64_t ElapsedNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// One metric's value at snapshot time. Histogram buckets are stored
/// sparsely as (inclusive upper bound, count) pairs.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricType type = MetricType::kCounter;
  std::string unit;  // "", "ns", "bytes", "facts", ...

  uint64_t value = 0;      // counter
  int64_t gauge_value = 0; // gauge

  uint64_t count = 0;  // histogram
  uint64_t sum = 0;    // histogram
  std::vector<std::pair<uint64_t, uint64_t>> buckets;  // (le, count)
};

/// A point-in-time copy of every registered metric, sorted by
/// (name, labels). Snapshots are plain data: they can be diffed,
/// serialized and parsed without touching the live registry.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// This snapshot minus `base`: counters and histograms subtract
  /// (metrics absent from `base` keep their full value), gauges keep this
  /// snapshot's value. Used to scope the process-wide registry to one run.
  MetricsSnapshot Diff(const MetricsSnapshot& base) const;

  /// Sample with exactly (name, labels), or nullptr.
  const MetricSample* Find(const std::string& name,
                           const Labels& labels = {}) const;

  /// Counter/gauge value of (name, labels); 0 when absent.
  uint64_t Value(const std::string& name, const Labels& labels = {}) const;

  /// Sum of `name` across every label set (counters and gauges).
  uint64_t Total(const std::string& name) const;

  /// Human-readable table, one metric per line.
  std::string ToTable() const;

  /// The stable JSON schema (docs/METRICS.md):
  ///   {"schema_version":1,"metrics":[{"name":...,"type":...,"unit":...,
  ///    "labels":{...},...value fields...}]}
  std::string ToJson() const;
};

/// `s` as a JSON string literal, quotes included: `"` and `\` are
/// backslash-escaped, \n \t \r get their short escapes and every other
/// control character becomes \u00XX.
std::string JsonQuote(std::string_view s);

/// The process-wide registry. Get*() registers on first use and returns a
/// reference that stays valid for the process lifetime; a (name, labels)
/// pair is permanently bound to one metric type and unit.
class MetricsRegistry {
 public:
  /// The singleton used by all instrumented subsystems.
  static MetricsRegistry& Global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& GetCounter(const std::string& name, const Labels& labels = {},
                      const std::string& unit = "");
  Gauge& GetGauge(const std::string& name, const Labels& labels = {},
                  const std::string& unit = "");
  Histogram& GetHistogram(const std::string& name, const Labels& labels = {},
                          const std::string& unit = "ns");

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric in place (references stay valid).
  /// Test isolation only — production code diffs snapshots instead.
  void ResetForTest();

 private:
  struct Entry {
    MetricType type;
    std::string unit;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& GetEntry(const std::string& name, const Labels& labels,
                  MetricType type, const std::string& unit);

  mutable std::mutex mu_;
  std::map<std::pair<std::string, Labels>, Entry> metrics_;
};

/// Shorthands for the common one-shot paths against the global registry.
inline void CountMetric(const std::string& name, uint64_t n = 1,
                        const Labels& labels = {},
                        const std::string& unit = "") {
  MetricsRegistry::Global().GetCounter(name, labels, unit).Increment(n);
}

inline Histogram& TimeMetric(const std::string& name,
                             const Labels& labels = {}) {
  return MetricsRegistry::Global().GetHistogram(name, labels, "ns");
}

}  // namespace dqsq

#endif  // DQSQ_COMMON_METRICS_H_
