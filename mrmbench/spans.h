// In-memory span recorder for the benchmark's traced runs (README.md,
// "Traced run").
//
// A span is one call the benchmark makes into a layer: name, start, end and
// the span that was open when it began (its parent). Spans are kept in memory
// and written once, after the timed phase, as Chrome trace-event JSON. The
// recorder is single-threaded: every span is opened and closed on the thread
// that drives the workload, so children nest strictly inside their parent and
// a span's self time is its duration minus the durations of its children.

#ifndef MRMBENCH_SPANS_H_
#define MRMBENCH_SPANS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace mrmbench {

using Clock = std::chrono::steady_clock;

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  int Begin(const char* name) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = Now();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = Now();
    open_.pop_back();
    if (span.parent >= 0) {
      spans_[static_cast<std::size_t>(span.parent)].child_ns += span.end_ns - span.start_ns;
    }
  }

  // Summed self time (duration minus children) of every span named `name`.
  double SelfSeconds(const std::string& name) const {
    std::int64_t total = 0;
    for (const Span& span : spans_) {
      if (name == span.name) {
        total += span.end_ns - span.start_ns - span.child_ns;
      }
    }
    return static_cast<double>(total) * 1e-9;
  }

  double TotalSeconds(const std::string& name) const {
    std::int64_t total = 0;
    for (const Span& span : spans_) {
      if (name == span.name) {
        total += span.end_ns - span.start_ns;
      }
    }
    return static_cast<double>(total) * 1e-9;
  }

  // Durations in seconds of every span named `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (name == span.name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
      }
    }
    return out;
  }

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps).
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                   i == 0 ? "" : ",", span.name, Layer(span.name).c_str(),
                   static_cast<double>(span.start_ns) * 1e-3,
                   static_cast<double>(span.end_ns - span.start_ns) * 1e-3, i, span.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name = nullptr;  // string literal; never owned
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;
    std::int64_t child_ns = 0;  // summed durations of direct children
  };

  // The layer is the span name up to its first dot ("mrm.append" -> "mrm").
  static std::string Layer(const char* name) {
    const std::string s = name;
    return s.substr(0, s.find('.'));
  }

  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null recorder (untraced run) records nothing.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, const char* name)
      : recorder_(recorder), index_(recorder != nullptr ? recorder->Begin(name) : -1) {}
  ~SpanScope() {
    if (recorder_ != nullptr) {
      recorder_->End(index_);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
  int index_;
};

// Median and tail of a sample. The tail is the highest of the percentiles
// below that still has at least ten samples beyond it; `tail_pct` names it
// and is 0 (with tail 0) when the sample is too small for any of them.
struct Percentiles {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  std::size_t samples = 0;
};

inline double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline Percentiles Summarize(std::vector<double> values) {
  Percentiles out;
  out.samples = values.size();
  if (values.empty()) {
    return out;
  }
  std::sort(values.begin(), values.end());
  out.p50 = Quantile(values, 0.5);
  for (const double pct : {99.99, 99.9, 99.0, 90.0, 75.0, 50.0}) {
    const double beyond = static_cast<double>(values.size()) * (1.0 - pct / 100.0);
    if (beyond >= 10.0) {
      out.tail = Quantile(values, pct / 100.0);
      out.tail_pct = pct;
      break;
    }
  }
  return out;
}

}  // namespace mrmbench

#endif  // MRMBENCH_SPANS_H_
