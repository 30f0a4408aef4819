// Span recording and sample statistics for hope_bench.
//
// The traced run keeps every span in memory: per-name duration series
// feed the layer aggregates (every op counts), while a deterministic
// 1-in-kSampleEvery request sample, plus every counter and instant
// event, is kept for the Chrome trace-event file written at exit
// (Perfetto and chrome://tracing open it offline). Spans of one request
// share its request id, and a parent span encloses its children in time
// on the same track, which is how the viewers nest them.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

namespace hope_bench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Durations are stored as 32-bit nanoseconds (4.29 s cap), which keeps a
/// multi-million-op series small.
inline uint32_t ClampNs(uint64_t ns) {
  return ns > UINT32_MAX ? UINT32_MAX : static_cast<uint32_t>(ns);
}

/// Exact nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<uint32_t> v, double q) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  rank = std::min(rank, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return v[rank];
}

inline double Sum(const std::vector<uint32_t>& v) {
  double s = 0;
  for (uint32_t x : v) s += x;
  return s;
}

inline double Mean(const std::vector<uint32_t>& v) {
  return v.empty() ? 0 : Sum(v) / static_cast<double>(v.size());
}

/// Median of a few repeated measurements (set-up times).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

class Trace {
 public:
  static constexpr uint64_t kSampleEvery = 64;

  /// Every span of one name. Pointers stay valid for the Trace's life.
  struct Series {
    std::string name;
    std::vector<uint32_t> durations;
  };

  Series* Get(const std::string& name) {
    for (Series& s : series_)
      if (s.name == name) return &s;
    return &series_.emplace_back(Series{name, {}});
  }

  void Span(Series* s, uint64_t request, uint64_t start_ns, uint64_t end_ns) {
    s->durations.push_back(ClampNs(end_ns - start_ns));
    if (request % kSampleEvery == 0)
      events_.push_back({Event::kSpan, s->name.c_str(), request, start_ns,
                         end_ns, 0});
  }

  void Instant(const char* name, uint64_t ts_ns) {
    events_.push_back({Event::kInstant, name, 0, ts_ns, ts_ns, 0});
  }

  void Counter(const char* name, uint64_t ts_ns, double value) {
    events_.push_back({Event::kCounter, name, 0, ts_ns, ts_ns, value});
  }

  /// Writes Chrome trace-event JSON; timestamps are microseconds from
  /// the first event. Returns false on I/O failure.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    uint64_t origin = UINT64_MAX;
    for (const Event& e : events_) origin = std::min(origin, e.start_ns);
    std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
    for (size_t i = 0; i < events_.size(); i++) {
      const Event& e = events_[i];
      const double ts = static_cast<double>(e.start_ns - origin) / 1e3;
      switch (e.kind) {
        case Event::kSpan:
          std::fprintf(f,
                       "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                       "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                       "\"args\": {\"req\": %llu}}",
                       e.name, ts,
                       static_cast<double>(e.end_ns - e.start_ns) / 1e3,
                       static_cast<unsigned long long>(e.request));
          break;
        case Event::kInstant:
          std::fprintf(f,
                       "{\"name\": \"%s\", \"ph\": \"i\", \"s\": \"g\", "
                       "\"pid\": 1, \"tid\": 1, \"ts\": %.3f}",
                       e.name, ts);
          break;
        case Event::kCounter:
          std::fprintf(f,
                       "{\"name\": \"%s\", \"ph\": \"C\", \"pid\": 1, "
                       "\"ts\": %.3f, \"args\": {\"value\": %.17g}}",
                       e.name, ts, e.value);
          break;
      }
      std::fputs(i + 1 < events_.size() ? ",\n" : "\n", f);
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Event {
    enum Kind { kSpan, kInstant, kCounter } kind;
    const char* name;  ///< a Series name or a string literal
    uint64_t request;
    uint64_t start_ns;
    uint64_t end_ns;
    double value;
  };

  std::deque<Series> series_;
  std::vector<Event> events_;
};

}  // namespace hope_bench
