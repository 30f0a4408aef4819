// Wait-free metric primitives: bucket-layout math pinned exactly
// (snapshots merge bucket-for-bucket, so these constants are a contract
// between every histogram reader), counters exact under multi-threaded
// writers, histogram quantile edge cases (empty, single bucket,
// overflow bucket), and snapshot merges.
#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <thread>
#include <vector>

#include "telemetry/log_buckets.h"

namespace hope::telemetry {
namespace {

TEST(LogBuckets, UnitRegionIsExact) {
  // Values below 2^kSubBucketBits get unit-width buckets: index == value
  // and lower == upper == value.
  for (uint64_t v = 0; v < kSubBucketCount; v++) {
    EXPECT_EQ(LogBucketIndex(v), v);
    EXPECT_EQ(LogBucketLowerBound(v), v);
    EXPECT_EQ(LogBucketUpperBound(v), v);
  }
  // The first octave group continues the linear region seamlessly
  // (sub-bucket width still 1), so 32..63 stay exact too.
  EXPECT_EQ(LogBucketIndex(32), 32u);
  EXPECT_EQ(LogBucketIndex(63), 63u);
  EXPECT_EQ(LogBucketUpperBound(LogBucketIndex(63)), 63u);
}

TEST(LogBuckets, BoundsBracketTheirValue) {
  std::vector<uint64_t> probes = {0,  1,   31,   32,   33,  63,
                                  64, 100, 1000, 4096, 4097};
  for (unsigned p = 6; p < 64; p++) {
    probes.push_back(uint64_t{1} << p);
    probes.push_back((uint64_t{1} << p) - 1);
    probes.push_back((uint64_t{1} << p) + 1);
  }
  probes.push_back(~uint64_t{0});
  for (uint64_t v : probes) {
    const size_t i = LogBucketIndex(v);
    ASSERT_LT(i, kNumLogBuckets) << v;
    EXPECT_LE(LogBucketLowerBound(i), v) << v;
    EXPECT_GE(LogBucketUpperBound(i), v) << v;
  }
}

TEST(LogBuckets, RelativeErrorBounded) {
  // Above the linear region a bucket's width is at most lower/32, i.e.
  // the upper-bound overestimate is <= ~3.1%.
  for (uint64_t v = kSubBucketCount; v < (uint64_t{1} << 40);
       v += v / 3 + 1) {
    const size_t i = LogBucketIndex(v);
    const uint64_t lo = LogBucketLowerBound(i);
    const uint64_t hi = LogBucketUpperBound(i);
    EXPECT_LE(hi - lo, lo / kSubBucketCount) << v;
  }
}

TEST(LogBuckets, OverflowBucketReportsMax) {
  // The final bucket's bound is pinned to UINT64_MAX explicitly — a
  // histogram holding UINT64_MAX must report it, not a wrapped 0.
  EXPECT_EQ(LogBucketIndex(~uint64_t{0}), kNumLogBuckets - 1);
  EXPECT_EQ(LogBucketUpperBound(kNumLogBuckets - 1), ~uint64_t{0});
}

TEST(LogBuckets, QuantileEmptyAndClamp) {
  std::vector<uint64_t> counts(kNumLogBuckets, 0);
  EXPECT_EQ(QuantileFromCounts(counts.data(), counts.size(), 0, 0.5, 0,
                               ~uint64_t{0}),
            0u);
  // Exhausted scan (total larger than the counts say) lands on
  // clamp_max, never past it.
  counts[5] = 1;
  EXPECT_EQ(
      QuantileFromCounts(counts.data(), counts.size(), 100, 0.999, 0, 77),
      77u);
}

TEST(LogBuckets, SingleBucketInterpolates) {
  // All mass in one wide bucket: quantiles interpolate by rank instead
  // of all collapsing to the bucket's upper bound.
  std::vector<uint64_t> counts(kNumLogBuckets, 0);
  const uint64_t v = 1000;
  const size_t i = LogBucketIndex(v);
  counts[i] = 100;
  const uint64_t lo = LogBucketLowerBound(i);
  const uint64_t hi = LogBucketUpperBound(i);
  ASSERT_LT(lo, hi);
  const uint64_t p50 =
      QuantileFromCounts(counts.data(), counts.size(), 100, 0.50, lo, hi);
  const uint64_t p999 =
      QuantileFromCounts(counts.data(), counts.size(), 100, 0.999, lo, hi);
  EXPECT_LT(p50, p999);
  EXPECT_GE(p50, lo);
  EXPECT_LE(p999, hi);
}

TEST(Counter, SumsAcrossThreads) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++)
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; i++) c.Add();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
  c.Add(41);
  c.Add();
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Set(-5);
  EXPECT_EQ(g.Value(), -5);
}

TEST(Histogram, ExactInUnitRegion) {
  Histogram h;
  for (uint64_t v = 0; v < 10; v++) h.Record(v);
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 10u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 9u);
  // Unit buckets make quantiles exact: target rank ceil(q*10).
  EXPECT_EQ(s.Percentile(0.50), 4u);
  EXPECT_EQ(s.Percentile(1.0), 9u);
  EXPECT_NEAR(s.mean, 4.5, 1e-9);
}

TEST(Histogram, OverflowValueRoundTrips) {
  Histogram h;
  h.Record(~uint64_t{0});
  const HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.max, ~uint64_t{0});
  EXPECT_EQ(s.Percentile(0.999), ~uint64_t{0});
}

TEST(Histogram, CountMonotoneUnderWriters) {
  Histogram h;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    uint64_t v = 1;
    while (!stop.load(std::memory_order_relaxed)) h.Record(v++ % 100000);
  });
  uint64_t prev = 0;
  for (int i = 0; i < 1000; i++) {
    const uint64_t n = h.Count();
    EXPECT_GE(n, prev);
    prev = n;
  }
  stop.store(true);
  writer.join();
  EXPECT_EQ(h.Snapshot().count, h.Count());
}

TEST(HistogramSnapshot, MergeIntoEmpty) {
  Histogram h;
  for (uint64_t v : {3ull, 40ull, 700ull, 1'000'003ull}) h.Record(v);
  const HistogramSnapshot src = h.Snapshot();
  HistogramSnapshot dst;  // default-constructed: no buckets yet
  dst.Merge(src);
  EXPECT_EQ(dst.counts, src.counts);
  EXPECT_EQ(dst.count, 4u);
  EXPECT_EQ(dst.min, src.min);
  EXPECT_EQ(dst.max, src.max);
  EXPECT_EQ(dst.mean, src.mean);
  EXPECT_EQ(dst.Percentile(0.5), src.Percentile(0.5));
}

TEST(HistogramSnapshot, MergeOfEmptyChangesNothing) {
  Histogram h;
  for (uint64_t v = 10; v < 5000; v += 7) h.Record(v);
  const HistogramSnapshot src = h.Snapshot();
  for (const HistogramSnapshot& empty :
       {HistogramSnapshot{}, Histogram().Snapshot()}) {
    HistogramSnapshot dst = src;
    dst.Merge(empty);
    EXPECT_EQ(dst.counts, src.counts);
    EXPECT_EQ(dst.count, src.count);
    EXPECT_EQ(dst.min, src.min);
    EXPECT_EQ(dst.max, src.max);
    EXPECT_EQ(dst.mean, src.mean);
  }
  // Empty into empty stays empty.
  HistogramSnapshot none;
  none.Merge(HistogramSnapshot{});
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.Percentile(0.99), 0u);
  EXPECT_EQ(none.mean, 0.0);
}

TEST(HistogramSnapshot, MergeEqualsCombinedRecording) {
  // Disjoint ranges, so the merge moves min, max and mean.
  Histogram low, high, both;
  for (uint64_t v = 5; v < 2000; v += 3) {
    low.Record(v);
    both.Record(v);
  }
  for (uint64_t v = 50'000; v < 90'000; v += 11) {
    high.Record(v);
    both.Record(v);
  }
  HistogramSnapshot merged = high.Snapshot();
  merged.Merge(low.Snapshot());
  const HistogramSnapshot whole = both.Snapshot();
  EXPECT_EQ(merged.count, whole.count);
  EXPECT_EQ(merged.min, whole.min);
  EXPECT_EQ(merged.max, whole.max);
  EXPECT_EQ(merged.mean, whole.mean);
  for (double q : {0.5, 0.75, 0.9, 0.99, 0.999, 1.0})
    EXPECT_EQ(merged.Percentile(q), whole.Percentile(q)) << q;
}

}  // namespace
}  // namespace hope::telemetry
