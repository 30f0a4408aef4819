#include "telemetry/metrics.h"

namespace hope::telemetry {

size_t ThreadStripeSeed() {
  static std::atomic<size_t> next{0};
  // One RMW per thread lifetime; every later call is a plain TLS read.
  thread_local const size_t seed =
      next.fetch_add(1, std::memory_order_relaxed);
  return seed;
}

namespace {

/// The one derivation of count/min/max/mean from raw bucket counts,
/// shared by Histogram::Snapshot() and HistogramSnapshot::Merge().
void DeriveAggregates(HistogramSnapshot* snap) {
  snap->count = 0;
  snap->min = 0;
  snap->max = 0;
  snap->mean = 0.0;
  size_t first = snap->counts.size(), last = 0;
  double weighted = 0.0;
  for (size_t i = 0; i < snap->counts.size(); i++) {
    const uint64_t c = snap->counts[i];
    if (c == 0) continue;
    snap->count += c;
    if (first == snap->counts.size()) first = i;
    last = i;
    // Midpoint via lo/2 + hi/2: lo + hi overflows in the top octave.
    const double mid =
        static_cast<double>(LogBucketLowerBound(i)) / 2.0 +
        static_cast<double>(LogBucketUpperBound(i)) / 2.0;
    weighted += mid * static_cast<double>(c);
  }
  if (snap->count > 0) {
    snap->min = LogBucketLowerBound(first);
    snap->max = LogBucketUpperBound(last);
    snap->mean = weighted / static_cast<double>(snap->count);
  }
}

}  // namespace

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (counts.size() < other.counts.size()) counts.resize(other.counts.size());
  for (size_t i = 0; i < other.counts.size(); i++) counts[i] += other.counts[i];
  DeriveAggregates(this);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.counts.resize(kNumLogBuckets);
  for (size_t i = 0; i < kNumLogBuckets; i++)
    snap.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  DeriveAggregates(&snap);
  return snap;
}

}  // namespace hope::telemetry
