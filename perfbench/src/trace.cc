#include "trace.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

size_t Tracer::Open(const char* name) {
  const int64_t parent =
      open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back(Span{name, op_, parent, NowNs(), 0});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::Close(size_t index) {
  if (open_.empty() || open_.back() != index) {
    std::fprintf(stderr, "perfbench: span %zu closed out of order\n", index);
    std::abort();
  }
  open_.pop_back();
  spans_[index].dur_ns = NowNs() - spans_[index].start_ns;
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.dur_ns;
  }
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = out[spans_[i].name];
    t.self_ns += spans_[i].dur_ns - child_ns[i];
    t.total_ns += spans_[i].dur_ns;
    ++t.calls;
  }
  return out;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.dur_ns));
  }
  return out;
}

std::string Tracer::ToChromeJson() const {
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"span\":%zu,\"op\":%llu,\"parent\":%lld}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3, i,
                  static_cast<unsigned long long>(s.op),
                  static_cast<long long>(s.parent));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
