// serve::LatencyHistogram, the alias of telemetry::HistogramSnapshot
// that serving reports read: bucket mapping round-trips, bounded
// relative error, percentile semantics, and the merge across ops or
// phases. Values are recorded into a telemetry::Histogram (the only
// write side) and read back through Snapshot()/Merge(). Snapshot
// extremes are bucket-resolution: max is the upper bound of the last
// populated bucket, quantiles are clamped to it, and both stay within
// one sub-bucket width (~3.1%) of the largest recorded value.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <random>
#include <vector>

#include "serve/server_loop.h"
#include "telemetry/log_buckets.h"
#include "telemetry/metrics.h"

namespace hope::serve {
namespace {

using telemetry::kNumLogBuckets;
using telemetry::kSubBucketCount;
using telemetry::LogBucketIndex;
using telemetry::LogBucketUpperBound;

LatencyHistogram SnapshotOf(std::initializer_list<uint64_t> values) {
  telemetry::Histogram h;
  for (uint64_t v : values) h.Record(v);
  return h.Snapshot();
}

/// True when `reported` overestimates `value` by at most one sub-bucket
/// width: the snapshot's ~3.1% error contract.
bool WithinOneSubBucket(uint64_t reported, uint64_t value) {
  return reported >= value && reported - value <= value / kSubBucketCount;
}

TEST(LatencyHistogramTest, LinearRegionIsExact) {
  for (uint64_t v = 0; v < kSubBucketCount; v++) {
    EXPECT_EQ(LogBucketIndex(v), v);
    EXPECT_EQ(LogBucketUpperBound(v), v);
    // Unit-width buckets: a snapshot reports the value itself.
    const LatencyHistogram s = SnapshotOf({v});
    EXPECT_EQ(s.min, v);
    EXPECT_EQ(s.max, v);
    EXPECT_EQ(s.Percentile(0.5), v);
  }
}

TEST(LatencyHistogramTest, BucketIndexIsMonotoneAndBoundsContainValue) {
  // Sweep powers of two and their neighbours across the full range.
  std::vector<uint64_t> values;
  for (unsigned e = 0; e < 64; e++)
    for (int d = -2; d <= 2; d++) {
      uint64_t v = uint64_t{1} << e;
      if (d < 0 && v < static_cast<uint64_t>(-d)) continue;
      values.push_back(v + static_cast<uint64_t>(d));
    }
  std::sort(values.begin(), values.end());
  size_t prev_index = 0;
  for (uint64_t v : values) {
    size_t idx = LogBucketIndex(v);
    ASSERT_LT(idx, kNumLogBuckets) << "value " << v;
    EXPECT_LE(v, LogBucketUpperBound(idx)) << "value " << v;
    EXPECT_GE(idx, prev_index) << "monotonicity at " << v;
    prev_index = idx;
  }
  // The largest value maps inside the table.
  EXPECT_EQ(LogBucketIndex(~uint64_t{0}), kNumLogBuckets - 1);
}

TEST(LatencyHistogramTest, RelativeErrorIsBounded) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; i++) {
    uint64_t v = rng() >> (rng() % 40);  // spread across magnitudes
    size_t idx = LogBucketIndex(v);
    uint64_t ub = LogBucketUpperBound(idx);
    ASSERT_GE(ub, v);
    // Upper bound overestimates by at most one sub-bucket width ~ v/32.
    EXPECT_LE(static_cast<double>(ub - v),
              static_cast<double>(v) / kSubBucketCount + 1.0)
        << "value " << v;
  }
}

TEST(LatencyHistogramTest, PercentilesOnKnownDistribution) {
  telemetry::Histogram t;
  for (uint64_t v = 1; v <= 1000; v++) t.Record(v);
  const LatencyHistogram h = t.Snapshot();
  EXPECT_EQ(h.count, 1000u);
  EXPECT_EQ(h.min, 1u);
  // max is the upper bound of 1000's bucket [992, 1007].
  EXPECT_EQ(h.max, LogBucketUpperBound(LogBucketIndex(1000)));
  EXPECT_TRUE(WithinOneSubBucket(h.max, 1000)) << h.max;
  // Bucket midpoints: every bucket below 992 is full, so its midpoint
  // is its exact mean; the top bucket holds 992..1000 (mean 996) but
  // weighs in at its midpoint 999.5, adding 9 * 3.5 / 1000.
  EXPECT_NEAR(h.Mean(), 500.5 + 9 * 3.5 / 1000, 1e-9);
  // ~3.1% error bound on the bucketed quantiles; p100 is the clamp.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.50)), 500.0, 500.0 * 0.04);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 990.0, 990.0 * 0.04);
  EXPECT_EQ(h.Percentile(1.0), h.max);
  EXPECT_GE(h.Percentile(0.999), 990u);
}

TEST(LatencyHistogramTest, PercentileNeverExceedsRecordedMax) {
  // 1'000'003 lands in the coarse [999424, 1015807] bucket: every
  // quantile is clamped to the snapshot's max, that bucket's upper
  // bound, which stays within one sub-bucket width of the sample.
  const LatencyHistogram h = SnapshotOf({1'000'003});
  EXPECT_EQ(h.max, 1'015'807u);
  EXPECT_TRUE(WithinOneSubBucket(h.max, 1'000'003));
  EXPECT_EQ(h.Percentile(0.5), h.max);
  EXPECT_EQ(h.Percentile(0.999), h.max);
}

TEST(LatencyHistogramTest, EmptyHistogramReportsZero) {
  // Both a default-constructed report and the snapshot of a histogram
  // that recorded nothing.
  for (const LatencyHistogram& h :
       {LatencyHistogram{}, telemetry::Histogram().Snapshot()}) {
    EXPECT_EQ(h.count, 0u);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, 0u);
    EXPECT_EQ(h.Percentile(0.99), 0u);
    EXPECT_EQ(h.Mean(), 0.0);
  }
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording) {
  telemetry::Histogram a, b, combined;
  std::mt19937_64 rng(11);
  for (int i = 0; i < 5000; i++) {
    uint64_t v = rng() % 1'000'000;
    (i % 2 ? a : b).Record(v);
    combined.Record(v);
  }
  LatencyHistogram merged = a.Snapshot();
  merged.Merge(b.Snapshot());
  const LatencyHistogram whole = combined.Snapshot();
  EXPECT_EQ(merged.counts, whole.counts);
  EXPECT_EQ(merged.count, whole.count);
  EXPECT_EQ(merged.max, whole.max);
  EXPECT_EQ(merged.min, whole.min);
  EXPECT_EQ(merged.Mean(), whole.Mean());
  for (double q : {0.5, 0.9, 0.99, 0.999, 1.0})
    EXPECT_EQ(merged.Percentile(q), whole.Percentile(q)) << q;
}

TEST(LatencyHistogramTest, ResetClears) {
  telemetry::Histogram h;
  h.Record(123);
  h.Reset();
  EXPECT_EQ(h.Snapshot().count, 0u);
  EXPECT_EQ(h.Snapshot().Percentile(0.5), 0u);
  h.Record(7);
  EXPECT_EQ(h.Snapshot().Percentile(1.0), 7u);
}

TEST(LatencyHistogramTest, SharedLayoutMatchesTelemetry) {
  // A snapshot's counts are the log_buckets layout, index for index,
  // which is what lets snapshots merge bucket-for-bucket.
  EXPECT_EQ(SnapshotOf({}).counts.size(), kNumLogBuckets);
  EXPECT_EQ(kSubBucketCount, 32u);
  // Exact boundary pins: 32 ends the unit region but its octave group
  // continues width-1 buckets through 63; 64 starts width-2 buckets.
  EXPECT_EQ(LogBucketIndex(32), 32u);
  EXPECT_EQ(LogBucketIndex(63), 63u);
  EXPECT_EQ(LogBucketIndex(64), 64u);
  EXPECT_EQ(LogBucketIndex(65), 64u);
  for (uint64_t v : {0ull, 31ull, 32ull, 1000ull, ~0ull}) {
    const LatencyHistogram s = SnapshotOf({v});
    EXPECT_EQ(s.counts[LogBucketIndex(v)], 1u) << v;
    EXPECT_EQ(s.max, LogBucketUpperBound(LogBucketIndex(v))) << v;
  }
}

TEST(LatencyHistogramTest, OverflowBucketReportsMax) {
  // A recorded UINT64_MAX must come back exactly: the overflow bucket's
  // upper bound is pinned, and the final-rank quantile path does not
  // interpolate (double math near 2^64 would round the top bits off).
  const LatencyHistogram h = SnapshotOf({~uint64_t{0}});
  EXPECT_EQ(h.max, ~uint64_t{0});
  EXPECT_EQ(h.Percentile(0.5), ~uint64_t{0});
  EXPECT_EQ(h.Percentile(0.999), ~uint64_t{0});
}

TEST(LatencyHistogramTest, SingleBucketInterpolation) {
  // All mass in one coarse bucket but at distinct values: rank
  // interpolation spreads the quantiles across the bucket instead of
  // collapsing p50 == p999 == upper bound (the old one-sided bias).
  // 1'000'003 and 1'015'000 share the [999424, 1015807] bucket.
  ASSERT_EQ(LogBucketIndex(1'000'003), LogBucketIndex(1'015'000));
  telemetry::Histogram t;
  for (int i = 0; i < 500; i++) t.Record(1'000'003);
  for (int i = 0; i < 500; i++) t.Record(1'015'000);
  const LatencyHistogram h = t.Snapshot();
  const uint64_t p50 = h.Percentile(0.50);
  const uint64_t p999 = h.Percentile(0.999);
  EXPECT_LT(p50, p999);
  // ...and the clamp to the bucket-resolution extremes bounds both.
  EXPECT_GE(p50, h.min);
  EXPECT_LE(p999, h.max);

  // When every sample is one value, the quantiles still interpolate
  // across its bucket: ordered, inside the bucket, and within one
  // sub-bucket width of the value.
  telemetry::Histogram one_value;
  for (int i = 0; i < 1000; i++) one_value.Record(1'000'003);
  const LatencyHistogram point = one_value.Snapshot();
  const uint64_t point_p50 = point.Percentile(0.50);
  const uint64_t point_p999 = point.Percentile(0.999);
  EXPECT_LE(point_p50, point_p999);
  EXPECT_GE(point_p50, point.min);
  EXPECT_LE(point_p999, point.max);
  const double tolerance = 1'000'003.0 / kSubBucketCount;
  EXPECT_NEAR(static_cast<double>(point_p50), 1'000'003.0, tolerance);
  EXPECT_NEAR(static_cast<double>(point_p999), 1'000'003.0, tolerance);
}

TEST(LatencyHistogramTest, EmptyPercentileEdge) {
  LatencyHistogram h;
  // q = 0 and q = 1 on empty data report 0, not garbage.
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(1.0), 0u);
  // One sample: every quantile is that sample.
  h.Merge(SnapshotOf({42}));
  EXPECT_EQ(h.Percentile(0.0), 42u);
  EXPECT_EQ(h.Percentile(0.5), 42u);
  EXPECT_EQ(h.Percentile(1.0), 42u);
}

TEST(LatencyHistogramTest, AddBucketCountsBridgesTelemetrySnapshots) {
  // The name predates Merge; it now pins that reports need no bridge. A
  // telemetry snapshot merged into an empty report equals the source.
  telemetry::Histogram t;
  for (uint64_t v = 1; v <= 1000; v++) t.Record(v);
  const telemetry::HistogramSnapshot snap = t.Snapshot();
  LatencyHistogram h;
  h.Merge(snap);
  EXPECT_EQ(h.counts, snap.counts);
  EXPECT_EQ(h.count, 1000u);
  EXPECT_EQ(h.min, snap.min);
  EXPECT_EQ(h.max, snap.max);
  EXPECT_EQ(h.Mean(), snap.mean);
  for (double q : {0.5, 0.99, 0.999, 1.0})
    EXPECT_EQ(h.Percentile(q), snap.Percentile(q)) << q;
  // Merging into a non-empty report accumulates: doubled counts leave
  // the extremes, the mean and every quantile where they were.
  h.Merge(snap);
  EXPECT_EQ(h.count, 2000u);
  EXPECT_EQ(h.counts[LogBucketIndex(500)],
            2 * snap.counts[LogBucketIndex(500)]);
  EXPECT_EQ(h.min, snap.min);
  EXPECT_EQ(h.max, snap.max);
  EXPECT_DOUBLE_EQ(h.Mean(), snap.mean);
  EXPECT_EQ(h.Percentile(0.5), snap.Percentile(0.5));
}

}  // namespace
}  // namespace hope::serve
