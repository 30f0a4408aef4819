// Wait-free metric primitives: the hot-path cost of every update is one
// relaxed atomic RMW, with aggregation deferred to read time.
//
//   Counter    — monotone total, striped across cache-line-aligned slots
//                hashed by thread so concurrent writers on different
//                threads rarely share a line; Value() sums the stripes.
//   Gauge      — point-in-time signed value, single atomic.
//   Histogram  — log-bucketed value distribution (telemetry/log_buckets
//                .h layout); Record() is one relaxed fetch_add on the
//                value's bucket, and count/mean/min/max are derived from
//                the bucket counts at snapshot time rather than
//                maintained on the write path (an exact atomic max would
//                need a CAS loop — more than one relaxed atomic per
//                update). HistogramSnapshot is the one read-side view:
//                every latency report (registry export, ServerLoop's
//                OpStats, the benches) reads it, and snapshots merge
//                bucket-for-bucket across ops or phases.
//
// None of these allocate after construction; all are safe for
// concurrent writers and concurrent readers. Snapshot values taken
// while writers are active are monotone across successive reads
// (per-slot atomic coherence) and exact once writers quiesce. Reset()
// is quiesce-only: resetting under concurrent writers loses no memory
// safety but can double-count or drop in-flight updates.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/log_buckets.h"

namespace hope::telemetry {

/// Stripe picked once per thread: threads round-robin over the stripe
/// space on first use, so steady-state writers land on distinct cache
/// lines without any per-update hashing.
size_t ThreadStripeSeed();

class Counter {
 public:
  static constexpr size_t kStripes = 16;

  void Add(uint64_t n = 1) {
    stripes_[ThreadStripeSeed() & (kStripes - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Stripe& s : stripes_)
      sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  /// Quiesce-only (phase boundaries).
  void Reset() {
    for (Stripe& s : stripes_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  Stripe stripes_[kStripes];
};

class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Read-side view of a Histogram: raw bucket counts plus the derived
/// aggregates. min/max are bucket-resolution (the bounds of the first
/// and last populated bucket), mean is midpoint-weighted — the standard
/// ~3.1% trade for a write path that touches exactly one atomic.
struct HistogramSnapshot {
  std::vector<uint64_t> counts;  ///< kNumLogBuckets entries; empty when
                                 ///< default-constructed
  uint64_t count = 0;
  uint64_t min = 0;   ///< lower bound of the first populated bucket
  uint64_t max = 0;   ///< upper bound of the last populated bucket
  double mean = 0.0;  ///< midpoint-weighted

  /// Value at quantile q in [0, 1] (QuantileFromCounts), clamped to
  /// [min, max]. An empty snapshot reports 0.
  uint64_t Percentile(double q) const {
    return QuantileFromCounts(counts.data(), counts.size(), count, q, min,
                              max);
  }

  /// Adds `other`'s bucket counts and re-derives count/min/max/mean, so
  /// the result equals the snapshot of one histogram that recorded both
  /// sides. Works on a default-constructed (empty) snapshot.
  void Merge(const HistogramSnapshot& other);

  /// Same as the `mean` field. Exists only because hope_bench calls
  /// Mean() through the serve::LatencyHistogram alias; both go with the
  /// next benchmark change.
  double Mean() const { return mean; }
};

class Histogram {
 public:
  void Record(uint64_t value) {
    buckets_[LogBucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const;

  /// Sum of bucket counts (monotone across successive reads).
  uint64_t Count() const {
    uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }

  /// Quiesce-only (phase boundaries).
  void Reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kNumLogBuckets] = {};
};

}  // namespace hope::telemetry
