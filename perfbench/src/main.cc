// perfbench_main: one run of one benchmark workload.
//
//   perfbench_main --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//                  [--trace-out FILE]
//
// Each workload is one single-threaded closed loop with one client: the
// next operation starts when the previous one returns. The loop makes
// whole passes over the workload's inputs, each from a fresh set-up,
// until at least --seconds have passed and the workload's minimum number
// of passes ran. An operation's time is its fastest call over the passes.
// Every answer is checked against an oracle outside the timed regions.
//
// --trace 0 times the top-level public calls (Diagnose,
// DiagnosisService::Observe, CheckDiagnosability) and prints the
// end-to-end metrics. --trace 1 spends half the time on the same untraced
// loop and half on the traced pipelines (workloads.h), prints the
// per-layer metrics and writes the spans as Chrome trace-event JSON.
// The last line of standard output is the result as one JSON object.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "dist/snapshot.h"
#include "petri/examples.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dqsq;
using diagnosis::DiagnosisEngine;

constexpr uint64_t kDefaultSeed = 20050613;
/// Generator seed of every workload's catalog of plants. --seed draws a
/// presentation of each plant (workloads.h, Present), not the plants
/// themselves: problem sizes, and so the figures, stay comparable across
/// seeds while every input byte changes.
constexpr uint64_t kCatalogSeed = 7;

/// Seed of the presentation of catalog entry `j` under run seed `seed`.
uint64_t EntrySeed(uint64_t seed, size_t j) { return seed * 1'000'003 + j; }

// ---- Metrics --------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},      {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"diagnosis.encode_ms", "ms"},
    {"diagnosis.supervisor_ms", "ms"},
    {"diagnosis.extract_ms", "ms"},
    {"diagnosis.verifier_text_ms", "ms"},
    {"datalog.parse_ms", "ms"},
    {"datalog.validate_ms", "ms"},
    {"datalog.adorn_ms", "ms"},
    {"datalog.rewrite_ms", "ms"},
    {"datalog.rewrite_rules", "count"},
    {"datalog.eval_ms", "ms"},
    {"datalog.eval_rounds", "count"},
    {"datalog.eval_probes", "count"},
    {"datalog.eval_firings", "count"},
    {"datalog.eval_facts", "count"},
    {"datalog.eval_rule_rounds", "count"},
    {"datalog.eval_facts_per_rule_round", "ratio"},
    {"datalog.eval_firings_per_probe", "ratio"},
    {"datalog.ask_ms", "ms"},
    {"petri.verifier_build_ms", "ms"},
    {"petri.replay_ms", "ms"},
    {"petri.oracle_ms", "ms"},
    {"dist.cluster_build_ms", "ms"},
    {"dist.step_us_p50", "us"},
    {"dist.step_us_p99", "us"},
    {"dist.steps", "count"},
    {"dist.eval_steps", "count"},
    {"dist.step_eval_runs", "count"},
    {"dist.step_eval_rounds", "count"},
    {"dist.tuples_shipped", "count"},
    {"dist.facts", "count"},
    {"service.register_ms", "ms"},
    {"service.open_us", "us"},
    {"service.observe_resident_hit_us_p50", "us"},
    {"service.observe_restore_hit_us_p50", "us"},
    {"service.observe_miss_us_p50", "us"},
    {"service.observe_us_p99", "us"},
    {"service.restore_share", "ratio"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.image_bytes", "bytes"},
    {"bench.op_self_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

/// Per-layer metrics read straight off the spans: mean self time per
/// operation of the span called `span`.
constexpr std::pair<const char*, const char*> kSpanMetrics[] = {
    {"diagnosis.encode_ms", "diagnosis.encode"},
    {"diagnosis.supervisor_ms", "diagnosis.supervisor"},
    {"diagnosis.extract_ms", "diagnosis.extract"},
    {"diagnosis.verifier_text_ms", "diagnosis.verifier_text"},
    {"datalog.parse_ms", "datalog.parse"},
    {"datalog.validate_ms", "datalog.validate"},
    {"datalog.adorn_ms", "datalog.adorn"},
    {"datalog.rewrite_ms", "datalog.rewrite"},
    {"datalog.eval_ms", "datalog.eval"},
    {"datalog.ask_ms", "datalog.ask"},
    {"petri.verifier_build_ms", "petri.verifier_build"},
    {"petri.replay_ms", "petri.replay"},
    {"dist.cluster_build_ms", "dist.cluster_build"},
};

using Metrics = std::map<std::string, double>;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A percentile of `samples` scaled by `scale`, or 0 when too few samples
/// lie above it to report one.
double PercentileOrZero(std::vector<double> samples, double q, double scale) {
  std::optional<double> p = Percentile(std::move(samples), q);
  return p.has_value() ? *p * scale : 0.0;
}

/// Peak resident set of this process image: VmHWM. (ru_maxrss would
/// also count the parent's resident set at the fork before exec, which
/// is the whole figure for the small workloads when run.py starts us.)
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- Workloads ------------------------------------------------------------

struct OpResult {
  double ms = 0;
  bool correct = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Set-ups before the first pass; with the one before every later pass
  /// their median is setup_s.
  virtual int setup_repeats() const { return 8; }
  /// Passes of an end-to-end run: every operation is timed at least this
  /// often.
  virtual size_t min_passes() const { return 3; }
  /// Builds the inputs from `seed` (and, for the service, the service
  /// with every session open). This is what setup_s times. Every pass
  /// starts from a fresh set-up, so every pass repeats the same
  /// operations on the same state.
  virtual void Setup(uint64_t seed, Tracer* tracer) = 0;
  /// Computes the oracle's answers for the current inputs. Untimed.
  virtual void PrepareOracle(Tracer* tracer) = 0;
  virtual size_t PassSize() const = 0;
  /// Runs operation `k` of a pass: the public call when `tracer` is null,
  /// the traced pipeline otherwise. Times only the call, then checks it.
  virtual OpResult Run(size_t k, Tracer* tracer, LayerCounts* counts) = 0;
  /// Per-layer metrics the span totals do not give, after a traced half.
  virtual void AddLayerMetrics(const Tracer& /*tracer*/, Metrics& /*out*/) {}
};

/// central_batch and dist_batch: a catalog of random telecom nets, each
/// with the observation of a real run, diagnosed one after another. For
/// dist_batch --seed also draws the network schedule of every diagnosis.
class DiagnosisBatch : public Workload {
 public:
  DiagnosisBatch(DiagnosisEngine engine, size_t pool_size,
                 uint32_t min_firings, uint32_t max_firings)
      : engine_(engine),
        pool_size_(pool_size),
        min_firings_(min_firings),
        max_firings_(max_firings) {}

  // A dist_batch pass is one operation per ~0.3 s; a fourth pass gives
  // its slowest operations one more chance at an unloaded CPU.
  size_t min_passes() const override {
    return engine_ == DiagnosisEngine::kDistQsq ? 4 : 3;
  }

  void Setup(uint64_t seed, Tracer* /*tracer*/) override {
    const std::vector<DiagnosisCase> catalog = MakeDiagnosisPool(
        kCatalogSeed, kCatalogSeed, pool_size_, min_firings_, max_firings_);
    pool_.clear();
    for (size_t j = 0; j < catalog.size(); ++j) {
      Presentation p = Present(catalog[j].net, EntrySeed(seed, j));
      pool_.push_back({std::move(p.net), p.Rename(catalog[j].observation)});
    }
    if (seed != seed_) expected_.clear();
    seed_ = seed;
  }

  void PrepareOracle(Tracer* tracer) override {
    if (!expected_.empty()) return;
    diagnosis::DiagnosisOptions options;
    options.engine = DiagnosisEngine::kBfhj;
    for (const DiagnosisCase& c : pool_) {
      ScopedSpan span(tracer, "petri.oracle");
      auto oracle = diagnosis::Diagnose(c.net, c.observation, options);
      expected_.push_back(oracle.ok()
                              ? std::optional<std::string>(
                                    RenderExplanations(oracle->explanations))
                              : std::nullopt);
    }
  }

  size_t PassSize() const override { return pool_.size(); }

  OpResult Run(size_t k, Tracer* tracer, LayerCounts* counts) override {
    const DiagnosisCase& c = pool_[k];
    diagnosis::DiagnosisOptions options;
    options.engine = engine_;
    options.seed = EntrySeed(seed_, k);  // network schedule (kDistQsq)
    const int64_t start = NowNs();
    auto result = [&] {
      if (tracer == nullptr) {
        return diagnosis::Diagnose(c.net, c.observation, options);
      }
      ScopedSpan span(tracer, "op.diagnose");
      return TracedDiagnose(c.net, c.observation, options, tracer, counts);
    }();
    OpResult out{static_cast<double>(NowNs() - start) / 1e6, false};
    out.correct = result.ok() && expected_[k].has_value() &&
                  RenderExplanations(result->explanations) == *expected_[k];
    return out;
  }

 private:
  DiagnosisEngine engine_;
  size_t pool_size_;
  uint32_t min_firings_;
  uint32_t max_firings_;
  uint64_t seed_ = 0;
  std::vector<DiagnosisCase> pool_;
  std::vector<std::optional<std::string>> expected_;  // nullopt: oracle failed
};

/// service_churn: the E4_service shape. Sessions of the paper net (with
/// its loop) replay a pool of generated alarm streams round-robin; at most
/// kResident keep their diagnoser in memory. A pass feeds every session
/// its whole stream; as it starts from a fresh service, every pass makes
/// the same cache misses.
class ServiceChurn : public Workload {
 public:
  static constexpr size_t kSessions = 10'000;
  static constexpr size_t kResident = 1'024;
  static constexpr size_t kStreams = 16;
  static constexpr size_t kFirings = 6;

  int setup_repeats() const override { return 3; }

  void Setup(uint64_t seed, Tracer* tracer) override {
    service_.reset();
    const petri::PetriNet plant = petri::MakePaperNet(/*with_loop=*/true);
    Presentation p = Present(plant, EntrySeed(seed, 0));
    net_ = std::move(p.net);
    streams_.clear();
    for (const auto& stream :
         MakeStreamPool(plant, kStreams, kFirings, kCatalogSeed)) {
      streams_.push_back(p.Rename(stream));
    }
    if (seed != seed_) expected_.clear();
    seed_ = seed;
    // Round-robin: every session advances one alarm per tick.
    schedule_.clear();
    size_t max_len = 0;
    for (const auto& stream : streams_) {
      max_len = std::max(max_len, stream.size());
    }
    for (size_t round = 0; round < max_len; ++round) {
      for (size_t i = 0; i < kSessions; ++i) {
        if (round < streams_[i % kStreams].size()) {
          schedule_.emplace_back(i, round);
        }
      }
    }
    names_.clear();
    for (size_t i = 0; i < kSessions; ++i) {
      names_.push_back("s" + std::to_string(i) + p.tag);
    }
    store_ = std::make_unique<dist::InMemoryDurableStore>();
    diagnosis::ServiceOptions options;
    options.max_sessions = kSessions;
    options.max_resident_sessions = kResident;
    options.store = store_.get();
    service_ = std::make_unique<diagnosis::DiagnosisService>(options);
    hibernations_at_setup_ = HibernationCount();
    {
      ScopedSpan span(tracer, "service.register");
      Check(service_->RegisterModel(kModel, net_));
    }
    for (const std::string& name : names_) {
      ScopedSpan span(tracer, "service.open");
      Check(service_->OpenSession(name, kModel));
    }
  }

  void PrepareOracle(Tracer* tracer) override {
    if (!expected_.empty()) return;
    for (const auto& stream : streams_) {
      std::vector<std::optional<std::string>> per_prefix;
      for (size_t len = 1; len <= stream.size(); ++len) {
        ScopedSpan span(tracer, "diagnosis.oracle");
        petri::AlarmSequence prefix(stream.begin(), stream.begin() + len);
        auto oracle = diagnosis::Diagnose(net_, prefix, {});
        per_prefix.push_back(oracle.ok()
                                 ? std::optional<std::string>(
                                       RenderExplanations(oracle->explanations))
                                 : std::nullopt);
      }
      expected_.push_back(std::move(per_prefix));
    }
  }

  size_t PassSize() const override { return schedule_.size(); }

  OpResult Run(size_t k, Tracer* tracer, LayerCounts* /*counts*/) override {
    const auto [i, round] = schedule_[k];
    const petri::Alarm& alarm = streams_[i % kStreams][round];
    const int64_t start = NowNs();
    auto result = [&] {
      if (tracer == nullptr) return service_->Observe(names_[i], alarm);
      ScopedSpan span(tracer, "op.observe");
      ClassifiedObserve observed =
          ObserveClassified(*service_, kModel, names_[i], alarm, tracer);
      observe_ns_ += observed.ns;
      if (observed.restored) restore_ns_ += observed.ns;
      return std::move(observed.result);
    }();
    OpResult out{static_cast<double>(NowNs() - start) / 1e6, false};
    const auto& expected = expected_[i % kStreams][round];
    out.correct = result.ok() && expected.has_value() &&
                  RenderExplanations(*result) == *expected;
    return out;
  }

  void AddLayerMetrics(const Tracer& tracer, Metrics& out) override {
    const auto totals = tracer.Totals();
    auto mean_ns = [&](const char* name) {
      auto it = totals.find(name);
      return it == totals.end() ? 0.0
                                : Ratio(static_cast<double>(it->second.total_ns),
                                        static_cast<double>(it->second.calls));
    };
    out["service.register_ms"] = mean_ns("service.register") / 1e6;
    out["service.open_us"] = mean_ns("service.open") / 1e3;
    std::vector<double> all;
    size_t hits = 0;
    for (const char* cls : {"resident_hit", "restore_hit", "miss"}) {
      const std::string span = std::string("service.observe.") + cls;
      std::vector<double> d = tracer.Durations(span);
      if (std::strcmp(cls, "miss") != 0) hits += d.size();
      all.insert(all.end(), d.begin(), d.end());
      out["service.observe_" + std::string(cls) + "_us_p50"] =
          PercentileOrZero(std::move(d), 0.5, 1e-3);
    }
    out["service.observe_us_p99"] = PercentileOrZero(all, 0.99, 1e-3);
    out["service.cache_hit_ratio"] =
        Ratio(static_cast<double>(hits), static_cast<double>(all.size()));
    out["service.restore_share"] = Ratio(static_cast<double>(restore_ns_),
                                         static_cast<double>(observe_ns_));
    out["service.image_bytes"] =
        Ratio(static_cast<double>(store_->bytes_written()),
              static_cast<double>(HibernationCount() - hibernations_at_setup_));
  }

 private:
  static constexpr const char* kModel = "plant";

  static void Check(const Status& status) {
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: service set-up failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }

  static uint64_t HibernationCount() {
    return MetricsRegistry::Global()
        .GetCounter("diag.service.sessions_hibernated")
        .value();
  }

  uint64_t seed_ = 0;
  petri::PetriNet net_;
  std::vector<petri::AlarmSequence> streams_;
  std::vector<std::string> names_;
  std::vector<std::pair<size_t, size_t>> schedule_;  // (session, round)
  std::unique_ptr<dist::InMemoryDurableStore> store_;
  std::unique_ptr<diagnosis::DiagnosisService> service_;
  // expected_[stream][round]: the offline diagnosis of that prefix.
  std::vector<std::vector<std::optional<std::string>>> expected_;
  uint64_t hibernations_at_setup_ = 0;
  // Observe time of the traced calls, and of those that restored.
  int64_t observe_ns_ = 0;
  int64_t restore_ns_ = 0;
};

/// verify_sweep: a catalog of E6-style fault-labelled random nets, each
/// checked for diagnosability with the default engine (centralized QSQ).
class VerifySweep : public Workload {
 public:
  explicit VerifySweep(size_t pool_size) : pool_size_(pool_size) {}

  void Setup(uint64_t seed, Tracer* /*tracer*/) override {
    pool_.clear();
    const std::vector<petri::PetriNet> catalog =
        MakeVerifierPool(kCatalogSeed, pool_size_);
    for (size_t j = 0; j < catalog.size(); ++j) {
      pool_.push_back(Present(catalog[j], EntrySeed(seed, j)).net);
    }
    if (seed != seed_) expected_.clear();
    seed_ = seed;
  }

  void PrepareOracle(Tracer* tracer) override {
    if (!expected_.empty()) return;
    diagnosis::DiagnosabilityOptions options;
    options.engine = diagnosis::DiagnosabilityEngine::kReference;
    for (const petri::PetriNet& net : pool_) {
      ScopedSpan span(tracer, "petri.oracle");
      auto oracle = diagnosis::CheckDiagnosability(net, options);
      if (!oracle.ok()) {
        expected_.push_back(std::nullopt);
        continue;
      }
      expected_.push_back(oracle->witness_anchors.empty()
                              ? std::string()
                              : oracle->witness_anchors.front());
    }
  }

  size_t PassSize() const override { return pool_.size(); }

  OpResult Run(size_t k, Tracer* tracer, LayerCounts* counts) override {
    const petri::PetriNet& net = pool_[k];
    const int64_t start = NowNs();
    auto result = [&] {
      if (tracer == nullptr) return diagnosis::CheckDiagnosability(net);
      ScopedSpan span(tracer, "op.verify");
      return TracedCheckDiagnosability(net, tracer, counts);
    }();
    OpResult out{static_cast<double>(NowNs() - start) / 1e6, false};
    // The oracle names one anchor ("" when diagnosable); the verdict must
    // agree, that anchor must be among the Datalog anchors, and an
    // undiagnosable verdict must carry its replay-checked witness.
    if (!result.ok() || !expected_[k].has_value()) return out;
    const std::string& anchor = *expected_[k];
    const auto& anchors = result->witness_anchors;
    out.correct =
        anchor.empty()
            ? result->diagnosable && anchors.empty()
            : !result->diagnosable && result->witness.has_value() &&
                  std::find(anchors.begin(), anchors.end(), anchor) !=
                      anchors.end();
    return out;
  }

 private:
  size_t pool_size_;
  uint64_t seed_ = 0;
  std::vector<petri::PetriNet> pool_;
  std::vector<std::optional<std::string>> expected_;  // "" = diagnosable
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "central_batch") {
    return std::make_unique<DiagnosisBatch>(DiagnosisEngine::kCentralQsq,
                                            /*pool_size=*/60, 2, 6);
  }
  if (name == "dist_batch") {
    return std::make_unique<DiagnosisBatch>(DiagnosisEngine::kDistQsq,
                                            /*pool_size=*/20, 2, 4);
  }
  if (name == "service_churn") return std::make_unique<ServiceChurn>();
  if (name == "verify_sweep") {
    return std::make_unique<VerifySweep>(/*pool_size=*/200);
  }
  return nullptr;
}

// ---- The run --------------------------------------------------------------

struct Measurement {
  /// Per operation of a pass: its fastest call over the passes. Contention
  /// from other processes on the host slows whole seconds at a time, so
  /// the fastest of several calls spread over the run is the steady
  /// figure.
  std::vector<double> best_ms;
  /// Set-up time before every pass but the first.
  std::vector<double> setup_s;
  /// Peak RSS once every operation has run: later passes repeat them, and
  /// must not make a faster build read as a bigger one.
  double first_pass_rss_mb = 0;
  double total_ms = 0;  // every call
  size_t attempted = 0;
  size_t failed = 0;
  size_t passes = 0;
};

/// Pins the process to the CPUs of its affinity mask in turn, one per
/// pass or set-up, and restores the mask when destroyed. Neighbours on the
/// host load the CPUs unevenly, so a pass on each CPU lets the fastest
/// call of an operation come from the least loaded one.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&mask_);
    if (sched_getaffinity(0, sizeof(mask_), &mask_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask_)) cpus_.push_back(cpu);
    }
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(mask_), &mask_);
  }

  void Pin(size_t turn) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
};

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

/// Whole passes until `seconds` have passed and `min_passes` ran. The
/// workload must be set up for `seed` already.
Measurement Measure(Workload& w, uint64_t seed, double seconds,
                    size_t min_passes, CpuRotation& rotation, Tracer* tracer,
                    LayerCounts* counts) {
  Measurement m;
  m.best_ms.assign(w.PassSize(), std::numeric_limits<double>::infinity());
  const int64_t start = NowNs();
  while (m.passes < min_passes || SecondsSince(start) < seconds) {
    rotation.Pin(m.passes);
    if (m.passes > 0) {
      const int64_t setup_start = NowNs();
      w.Setup(seed, nullptr);
      m.setup_s.push_back(SecondsSince(setup_start));
    }
    for (size_t k = 0; k < m.best_ms.size(); ++k) {
      if (tracer != nullptr) tracer->BeginOperation();
      const OpResult r = w.Run(k, tracer, counts);
      m.best_ms[k] = std::min(m.best_ms[k], r.ms);
      m.total_ms += r.ms;
      ++m.attempted;
      if (!r.correct) ++m.failed;
    }
    if (m.passes == 0) m.first_pass_rss_mb = PeakRssMb();
    ++m.passes;
  }
  return m;
}

Metrics EndToEnd(Workload& w, uint64_t seed, double seconds,
                 Measurement& m) {
  CpuRotation rotation;
  std::vector<double> setup_s;
  for (int i = 0; i < w.setup_repeats(); ++i) {
    rotation.Pin(static_cast<size_t>(i));
    const int64_t start = NowNs();
    w.Setup(seed, nullptr);
    setup_s.push_back(SecondsSince(start));
  }
  w.PrepareOracle(nullptr);
  m = Measure(w, seed, seconds, w.min_passes(), rotation, nullptr, nullptr);
  setup_s.insert(setup_s.end(), m.setup_s.begin(), m.setup_s.end());
  double best_total_ms = 0;
  for (double ms : m.best_ms) best_total_ms += ms;
  Metrics out;
  out["setup_s"] = Median(setup_s);
  out["ops_per_s"] =
      Ratio(static_cast<double>(m.best_ms.size()), best_total_ms / 1e3);
  out["op_p50_ms"] = PercentileOrZero(m.best_ms, 0.5, 1.0);
  out["peak_rss_mb"] = m.first_pass_rss_mb;
  if (auto p90 = Percentile(m.best_ms, 0.9)) {
    std::fprintf(stderr, "  %-40s %16.6f ms\n", "op_p90_ms (not gated)", *p90);
  }
  std::fprintf(stderr, "  %zu operations x %zu passes\n", m.best_ms.size(),
               m.passes);
  return out;
}

Metrics PerLayer(Workload& w, uint64_t seed, double seconds,
                 const std::string& trace_out, size_t& attempted,
                 size_t& failed) {
  Tracer tracer;
  LayerCounts counts;
  w.Setup(seed, &tracer);
  w.PrepareOracle(&tracer);
  CpuRotation rotation;
  Measurement traced =
      Measure(w, seed, seconds / 2, 1, rotation, &tracer, &counts);
  Metrics out;
  for (const MetricDef& def : kPerLayer) out[def.name] = 0.0;
  w.AddLayerMetrics(tracer, out);

  w.Setup(seed, nullptr);
  Measurement untraced =
      Measure(w, seed, seconds / 2, 1, rotation, nullptr, nullptr);
  attempted = traced.attempted + untraced.attempted;
  failed = traced.failed + untraced.failed;

  // Per-operation means over every traced call.
  const double ops = static_cast<double>(traced.attempted);
  const auto totals = tracer.Totals();
  auto self_ns = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  for (const auto& [metric, span] : kSpanMetrics) {
    out[metric] = self_ns(span) / ops / 1e6;
  }
  double root_self = 0;
  for (const auto& [name, t] : totals) {
    if (name.rfind("op.", 0) == 0) root_self += static_cast<double>(t.self_ns);
  }
  out["bench.op_self_ms"] = root_self / ops / 1e6;
  if (auto it = totals.find("petri.oracle"); it != totals.end()) {
    out["petri.oracle_ms"] = Ratio(static_cast<double>(it->second.total_ns),
                                   static_cast<double>(it->second.calls)) /
                             1e6;
  }

  const EvalCounters& e = counts.eval;
  out["datalog.rewrite_rules"] = static_cast<double>(counts.rewrite_rules) / ops;
  out["datalog.eval_rounds"] = static_cast<double>(e.rounds) / ops;
  out["datalog.eval_probes"] = static_cast<double>(e.probes) / ops;
  out["datalog.eval_firings"] = static_cast<double>(e.firings) / ops;
  out["datalog.eval_facts"] = static_cast<double>(e.facts) / ops;
  out["datalog.eval_rule_rounds"] = static_cast<double>(counts.rule_rounds) / ops;
  out["datalog.eval_facts_per_rule_round"] =
      counts.rule_rounds > 0 ? Ratio(static_cast<double>(e.facts),
                                     static_cast<double>(counts.rule_rounds))
                             : 0.0;
  out["datalog.eval_firings_per_probe"] =
      Ratio(static_cast<double>(e.firings), static_cast<double>(e.probes));

  std::vector<double> steps = tracer.Durations("dist.step");
  out["dist.step_us_p50"] = PercentileOrZero(steps, 0.5, 1e-3);
  out["dist.step_us_p99"] = PercentileOrZero(steps, 0.99, 1e-3);
  out["dist.steps"] = static_cast<double>(counts.dist_steps) / ops;
  out["dist.eval_steps"] = static_cast<double>(counts.dist_eval_steps) / ops;
  out["dist.step_eval_runs"] = static_cast<double>(counts.step_eval.runs) / ops;
  out["dist.step_eval_rounds"] =
      static_cast<double>(counts.step_eval.rounds) / ops;
  out["dist.tuples_shipped"] = static_cast<double>(counts.tuples_shipped) / ops;
  out["dist.facts"] = static_cast<double>(counts.dist_facts) / ops;

  out["trace.overhead_ratio"] =
      Ratio(traced.total_ms / static_cast<double>(traced.attempted),
            untraced.total_ms / static_cast<double>(untraced.attempted));

  if (!trace_out.empty()) {
    std::ofstream file(trace_out, std::ios::binary);
    file << tracer.ToChromeJson();
    if (!file) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    }
  }
  return out;
}

void PrintResult(size_t attempted, size_t failed, const Metrics& values,
                 bool trace) {
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  char buf[256];
  auto emit = [&](const MetricDef& def) {
    const double v = values.at(def.name);
    std::fprintf(stderr, "  %-40s %16.6f %s\n", def.name, v, def.unit);
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", def.name, v, def.unit);
    json += buf;
    first = false;
  };
  if (trace) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  json += "}}";
  std::fprintf(stderr, "  %-40s %16.6f\n", "failed_frac",
               Ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  std::unique_ptr<Workload> w = MakeWorkload(workload);
  if (w == nullptr) {
    std::fprintf(stderr,
                 "perfbench: --workload must be central_batch, dist_batch, "
                 "service_churn or verify_sweep\n");
    return 2;
  }
  std::fprintf(stderr, "perfbench: %s seed=%llu seconds=%g trace=%d\n",
               workload.c_str(), static_cast<unsigned long long>(seed), seconds,
               trace ? 1 : 0);
  if (trace) {
    size_t attempted = 0, failed = 0;
    Metrics m = PerLayer(*w, seed, seconds, trace_out, attempted, failed);
    PrintResult(attempted, failed, m, true);
  } else {
    Measurement measured;
    Metrics m = EndToEnd(*w, seed, seconds, measured);
    PrintResult(measured.attempted, measured.failed, m, false);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
