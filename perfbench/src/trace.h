// In-memory span recorder for the benchmark's traced run. Spans are
// recorded from the benchmark's own code around calls into the modules
// (petri, datalog, dist, diagnosis); nothing inside the library is
// instrumented. Every span of one operation carries that operation's id
// and the index of the span that opened it, so per-layer self time is a
// span's duration minus what its children cover. The buffer is written
// out as Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  /// Layer-qualified name ("datalog.eval"); points at a string literal.
  const char* name;
  /// Operation id shared by every span of one top-level operation.
  uint64_t op;
  /// Index of the enclosing span in the buffer, -1 for an operation root.
  int64_t parent;
  int64_t start_ns;
  int64_t dur_ns;
};

/// Per-name totals over the whole buffer.
struct SpanTotals {
  int64_t self_ns = 0;
  int64_t total_ns = 0;
  size_t calls = 0;
};

class Tracer {
 public:
  /// Starts a new operation: spans opened from here until the next call
  /// share a fresh id.
  void BeginOperation() { ++op_; }

  /// Opens a span nested in the innermost open one; returns its index.
  size_t Open(const char* name);
  /// Closes span `index`, which must be the innermost open span.
  void Close(size_t index);
  /// Renames an open or closed span (a classification known only after
  /// the call returns).
  void Rename(size_t index, const char* name) { spans_[index].name = name; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self and total time per span name. Children of one span run one
  /// after another on a single thread, so the time they cover is the sum
  /// of their durations.
  std::map<std::string, SpanTotals> Totals() const;

  /// Durations (ns) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;

  /// Chrome trace-event JSON: one complete ("ph":"X") event per span,
  /// with the operation id and parent index in "args".
  std::string ToChromeJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint64_t op_ = 0;
};

/// RAII span. A null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Open(name) : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }

  void Rename(const char* name) {
    if (tracer_ != nullptr) tracer_->Rename(index_, name);
  }

 private:
  Tracer* tracer_;
  size_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
