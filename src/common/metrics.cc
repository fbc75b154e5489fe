#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>

#include "common/logging.h"

namespace dqsq {

// ---------------------------------------------------------------------------
// Labels

void Labels::Set(const std::string& key, const std::string& value) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (it != entries_.end() && it->first == key) {
    it->second = value;
  } else {
    entries_.insert(it, {key, value});
  }
}

const std::string* Labels::Find(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Labels::ToString() const {
  if (entries_.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ",";
    out += entries_[i].first + "=" + entries_[i].second;
  }
  out += "}";
  return out;
}

std::string MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Histogram

size_t Histogram::BucketIndex(uint64_t value) {
  return static_cast<size_t>(std::bit_width(value));  // 0 for 0
}

uint64_t Histogram::BucketUpperBound(size_t i) {
  if (i == 0) return 0;
  if (i >= 64) return ~uint64_t{0};
  return (uint64_t{1} << i) - 1;
}

void Histogram::Record(uint64_t value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

void Histogram::ResetForTest() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Registry

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::GetEntry(const std::string& name,
                                                  const Labels& labels,
                                                  MetricType type,
                                                  const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = metrics_.try_emplace({name, labels});
  Entry& entry = it->second;
  if (inserted) {
    entry.type = type;
    entry.unit = unit;
    switch (type) {
      case MetricType::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case MetricType::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricType::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
  } else {
    DQSQ_CHECK(entry.type == type)
        << "metric " << name << labels.ToString() << " registered as "
        << MetricTypeName(entry.type) << ", requested as "
        << MetricTypeName(type);
  }
  return entry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels,
                                     const std::string& unit) {
  return *GetEntry(name, labels, MetricType::kCounter, unit).counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels,
                                 const std::string& unit) {
  return *GetEntry(name, labels, MetricType::kGauge, unit).gauge;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels,
                                         const std::string& unit) {
  return *GetEntry(name, labels, MetricType::kHistogram, unit).histogram;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  snapshot.samples.reserve(metrics_.size());
  for (const auto& [key, entry] : metrics_) {
    MetricSample sample;
    sample.name = key.first;
    sample.labels = key.second;
    sample.type = entry.type;
    sample.unit = entry.unit;
    switch (entry.type) {
      case MetricType::kCounter:
        sample.value = entry.counter->value();
        break;
      case MetricType::kGauge:
        sample.gauge_value = entry.gauge->value();
        break;
      case MetricType::kHistogram: {
        sample.count = entry.histogram->count();
        sample.sum = entry.histogram->sum();
        for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
          uint64_t c = entry.histogram->bucket(i);
          if (c > 0) {
            sample.buckets.emplace_back(Histogram::BucketUpperBound(i), c);
          }
        }
        break;
      }
    }
    snapshot.samples.push_back(std::move(sample));
  }
  // std::map iteration is already (name, labels)-sorted.
  return snapshot;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : metrics_) {
    switch (entry.type) {
      case MetricType::kCounter:
        entry.counter->ResetForTest();
        break;
      case MetricType::kGauge:
        entry.gauge->ResetForTest();
        break;
      case MetricType::kHistogram:
        entry.histogram->ResetForTest();
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot

const MetricSample* MetricsSnapshot::Find(const std::string& name,
                                          const Labels& labels) const {
  for (const MetricSample& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::Value(const std::string& name,
                                const Labels& labels) const {
  const MetricSample* s = Find(name, labels);
  if (s == nullptr) return 0;
  if (s->type == MetricType::kGauge) {
    return s->gauge_value < 0 ? 0 : static_cast<uint64_t>(s->gauge_value);
  }
  return s->value;
}

uint64_t MetricsSnapshot::Total(const std::string& name) const {
  uint64_t total = 0;
  for (const MetricSample& s : samples) {
    if (s.name != name) continue;
    if (s.type == MetricType::kGauge) {
      if (s.gauge_value > 0) total += static_cast<uint64_t>(s.gauge_value);
    } else {
      total += s.value;
    }
  }
  return total;
}

MetricsSnapshot MetricsSnapshot::Diff(const MetricsSnapshot& base) const {
  MetricsSnapshot out;
  for (const MetricSample& cur : samples) {
    const MetricSample* old = base.Find(cur.name, cur.labels);
    MetricSample d = cur;
    if (old != nullptr) {
      switch (cur.type) {
        case MetricType::kCounter:
          d.value = cur.value >= old->value ? cur.value - old->value : 0;
          break;
        case MetricType::kGauge:
          break;  // gauges keep the later value
        case MetricType::kHistogram: {
          d.count = cur.count >= old->count ? cur.count - old->count : 0;
          d.sum = cur.sum >= old->sum ? cur.sum - old->sum : 0;
          std::map<uint64_t, uint64_t> buckets(cur.buckets.begin(),
                                               cur.buckets.end());
          for (const auto& [le, c] : old->buckets) {
            auto it = buckets.find(le);
            if (it != buckets.end()) {
              it->second = it->second >= c ? it->second - c : 0;
            }
          }
          d.buckets.clear();
          for (const auto& [le, c] : buckets) {
            if (c > 0) d.buckets.emplace_back(le, c);
          }
          break;
        }
      }
    }
    // Keep zero-valued samples: an explicit 0 in a per-run report is
    // information ("this path never ran"), and diff-of-diff stays stable.
    out.samples.push_back(std::move(d));
  }
  return out;
}

std::string MetricsSnapshot::ToTable() const {
  std::ostringstream out;
  for (const MetricSample& s : samples) {
    out << s.name << s.labels.ToString() << " ";
    switch (s.type) {
      case MetricType::kCounter:
        out << s.value;
        break;
      case MetricType::kGauge:
        out << s.gauge_value;
        break;
      case MetricType::kHistogram:
        out << "count=" << s.count << " sum=" << s.sum;
        if (s.count > 0) out << " mean=" << s.sum / s.count;
        break;
    }
    if (!s.unit.empty()) out << " " << s.unit;
    out << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// JSON serialization

std::string JsonQuote(std::string_view s) {
  std::string out = "\"";
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

void AppendLabelsJson(const Labels& labels, std::string* out) {
  out->push_back('{');
  bool first = true;
  for (const auto& [k, v] : labels.entries()) {
    if (!first) out->push_back(',');
    first = false;
    *out += JsonQuote(k);
    out->push_back(':');
    *out += JsonQuote(v);
  }
  out->push_back('}');
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"schema_version\":1,\"metrics\":[";
  bool first_sample = true;
  for (const MetricSample& s : samples) {
    if (!first_sample) out.push_back(',');
    first_sample = false;
    out += "{\"name\":";
    out += JsonQuote(s.name);
    out += ",\"type\":";
    out += JsonQuote(MetricTypeName(s.type));
    out += ",\"unit\":";
    out += JsonQuote(s.unit);
    out += ",\"labels\":";
    AppendLabelsJson(s.labels, &out);
    switch (s.type) {
      case MetricType::kCounter:
        out += ",\"value\":" + std::to_string(s.value);
        break;
      case MetricType::kGauge:
        out += ",\"value\":" + std::to_string(s.gauge_value);
        break;
      case MetricType::kHistogram: {
        out += ",\"count\":" + std::to_string(s.count);
        out += ",\"sum\":" + std::to_string(s.sum);
        out += ",\"buckets\":[";
        bool first_bucket = true;
        for (const auto& [le, c] : s.buckets) {
          if (!first_bucket) out.push_back(',');
          first_bucket = false;
          out += "{\"le\":" + std::to_string(le) +
                 ",\"count\":" + std::to_string(c) + "}";
        }
        out += "]";
        break;
      }
    }
    out.push_back('}');
  }
  out += "]}";
  return out;
}

}  // namespace dqsq
