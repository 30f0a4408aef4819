// Shared log-bucket layout for latency-style value histograms, in the
// HdrHistogram shape: values below 2^kSubBucketBits get exact unit-width
// buckets; above that, each power-of-two octave is subdivided into
// 2^kSubBucketBits linear sub-buckets, bounding a bucket's width at
// ~3.1% of its magnitude. telemetry::Histogram (atomic buckets,
// multi-writer) records into it, and its HistogramSnapshot reads and
// merges the counts bucket-for-bucket.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace hope::telemetry {

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per octave,
/// bounding the bucket-upper-bound overestimate at ~3.1%.
inline constexpr unsigned kSubBucketBits = 5;
inline constexpr uint64_t kSubBucketCount = uint64_t{1} << kSubBucketBits;
/// Buckets for the full uint64 range: the unit-width linear region plus
/// one sub-bucket group per octave kSubBucketBits..63.
inline constexpr size_t kNumLogBuckets =
    static_cast<size_t>((64 - kSubBucketBits + 1) * kSubBucketCount);

inline size_t LogBucketIndex(uint64_t value) {
  if (value < kSubBucketCount) return static_cast<size_t>(value);
  // value in [2^e, 2^(e+1)): shift its top kSubBucketBits+1 bits down so
  // (value >> shift) lands in [kSubBucketCount, 2*kSubBucketCount), then
  // place octave e's group after the groups of all lower octaves. The
  // first group (e == kSubBucketBits) continues the linear region
  // seamlessly: its sub-buckets still have width 1.
  unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(value));
  unsigned shift = e - kSubBucketBits;
  uint64_t sub = (value >> shift) - kSubBucketCount;
  return static_cast<size_t>(
      (uint64_t{e - kSubBucketBits + 1} << kSubBucketBits) + sub);
}

/// Inclusive smallest value mapping to bucket `index`.
inline uint64_t LogBucketLowerBound(size_t index) {
  if (index < kSubBucketCount) return static_cast<uint64_t>(index);
  uint64_t group = index >> kSubBucketBits;  // >= 1
  uint64_t sub = index & (kSubBucketCount - 1);
  unsigned shift = static_cast<unsigned>(group - 1);
  return (kSubBucketCount + sub) << shift;
}

/// Inclusive largest value mapping to bucket `index`. The final bucket's
/// bound is pinned to UINT64_MAX explicitly — the closed-form
/// low + width - 1 only lands there through unsigned wraparound, and the
/// overflow bucket's bound is part of the quantile contract (a histogram
/// holding UINT64_MAX must report it, not 0).
inline uint64_t LogBucketUpperBound(size_t index) {
  if (index >= kNumLogBuckets - 1) return ~uint64_t{0};
  if (index < kSubBucketCount) return static_cast<uint64_t>(index);
  uint64_t group = index >> kSubBucketBits;  // >= 1
  uint64_t sub = index & (kSubBucketCount - 1);
  unsigned shift = static_cast<unsigned>(group - 1);
  uint64_t low = (kSubBucketCount + sub) << shift;
  uint64_t width = uint64_t{1} << shift;
  return low + width - 1;
}

/// Value at quantile q in [0, 1] over raw bucket counts, interpolated
/// within the selected bucket by rank: with c samples in the bucket and
/// the target rank t falling f = (t - cum_before) / c of the way through
/// them, the reported value is lower + f * (upper - lower). In the
/// unit-width linear region this is exact; in wider buckets it removes
/// the old one-sided bias of always reporting the bucket's upper bound
/// (a single-bucket histogram then reported p50 == p999 == upper). The
/// result is clamped to [clamp_min, clamp_max] so known exact extremes
/// (a recorded min/max) bound the estimate. `total` == 0 reports 0.
inline uint64_t QuantileFromCounts(const uint64_t* counts, size_t n,
                                   uint64_t total, double q,
                                   uint64_t clamp_min, uint64_t clamp_max) {
  if (total == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t target =
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (target == 0) target = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < n; i++) {
    if (counts[i] == 0) continue;
    if (cumulative + counts[i] >= target) {
      const uint64_t lower = LogBucketLowerBound(i);
      const uint64_t upper = LogBucketUpperBound(i);
      const uint64_t in_bucket = target - cumulative;
      uint64_t value;
      if (in_bucket >= counts[i]) {
        // Final rank in the bucket: the answer is the bucket's upper
        // bound exactly. (Also dodges double roundoff — in the 2^64-wide
        // overflow bucket, frac * (upper - lower) loses the low bits and
        // would report less than a recorded UINT64_MAX.)
        value = upper;
      } else {
        const double frac = static_cast<double>(in_bucket) /
                            static_cast<double>(counts[i]);
        value = lower + static_cast<uint64_t>(
                            frac * static_cast<double>(upper - lower));
      }
      return std::clamp(value, clamp_min, clamp_max);
    }
    cumulative += counts[i];
  }
  return clamp_max;
}

}  // namespace hope::telemetry
