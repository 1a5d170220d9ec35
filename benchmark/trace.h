// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code around each call it
// makes into the program (name, start, end, parent span, request id) and
// written out as JSON lines when the run ends. A disabled tracer records
// nothing and costs one branch per call site, so the untraced run that
// measures the end-to-end metrics pays (almost) nothing for it.
#ifndef NAI_BENCHMARK_TRACE_H_
#define NAI_BENCHMARK_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace naibench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t id = -1;   ///< request / batch id; -1 = none
    std::int32_t parent = -1;
    Clock::time_point start{};
    Clock::time_point end{};
  };

  /// Per-name totals: count, summed duration and summed self time (the
  /// duration minus the part of it that child spans cover).
  struct Summary {
    std::int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  bool on() const { return on_; }

  /// Opens a span; returns its handle, or -1 when tracing is off.
  int Begin(const char* name, int parent = -1, std::int64_t id = -1) {
    if (!on_) return -1;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, id, parent, now, now});
    return static_cast<int>(spans_.size() - 1);
  }

  void End(int span) {
    if (span < 0) return;
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(span)].end = now;
  }

  /// Records a span whose interval the caller measured itself.
  int Add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent = -1, std::int64_t id = -1) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, id, parent, start, end});
    return static_cast<int>(spans_.size() - 1);
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Durations (ms) of every span called `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(MsBetween(s.start, s.end));
    }
    return out;
  }

  std::map<std::string, Summary> Summarize() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
        children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)].push_back({s.start, s.end});
      }
    }
    std::map<std::string, Summary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0.0;
      Clock::time_point reach = s.start;
      for (const auto& [b, e] : kids) {
        const Clock::time_point lo = std::max(b, reach);
        const Clock::time_point hi = std::min(e, s.end);
        if (hi > lo) covered += MsBetween(lo, hi);
        reach = std::max(reach, std::min(e, s.end));
      }
      Summary& sum = out[s.name];
      ++sum.count;
      sum.total_ms += MsBetween(s.start, s.end);
      sum.self_ms += MsBetween(s.start, s.end) - covered;
    }
    return out;
  }

  /// Writes every span as one JSON object per line (times in µs since the
  /// tracer was created), then one summary line per span name.
  bool Write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(out,
                     "{\"span\": %zu, \"name\": \"%s\", \"id\": %lld, "
                     "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                     i, s.name, static_cast<long long>(s.id), s.parent,
                     1000.0 * MsBetween(origin_, s.start),
                     1000.0 * MsBetween(origin_, s.end));
      }
    }
    for (const auto& [name, sum] : Summarize()) {
      std::fprintf(out,
                   "{\"summary\": \"%s\", \"count\": %lld, \"total_ms\": %.4f, "
                   "\"self_ms\": %.4f}\n",
                   name.c_str(), static_cast<long long>(sum.count),
                   sum.total_ms, sum.self_ms);
    }
    return std::fclose(out) == 0;
  }

 private:
  bool on_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent = -1,
             std::int64_t id = -1)
      : tracer_(tracer), span_(tracer.Begin(name, parent, id)) {}
  ~ScopedSpan() { tracer_.End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return span_; }

 private:
  Tracer& tracer_;
  int span_;
};

}  // namespace naibench

#endif  // NAI_BENCHMARK_TRACE_H_
