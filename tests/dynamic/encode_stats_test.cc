// Unit tests for the EncodeStatsCollector: EWMA math, reservoir
// behaviour, sampling cadence, and the rebuild bookkeeping the manager
// relies on.
#include "dynamic/encode_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <string_view>

namespace hope::dynamic {
namespace {

// `prefix` followed by `i` in decimal. Appending rather than prepending
// a literal to a temporary sidesteps gcc 12's -Wrestrict false positive.
std::string Key(std::string_view prefix, int i) {
  std::string key(prefix);
  key += std::to_string(i);
  return key;
}

EncodeStatsCollector::Options EveryKey(size_t reservoir, double alpha) {
  EncodeStatsCollector::Options o;
  o.reservoir_size = reservoir;
  o.sample_every = 1;
  o.ewma_alpha = alpha;
  return o;
}

TEST(EncodeStatsTest, EwmaSeedsAtFirstSampleThenBlends) {
  EncodeStatsCollector c(EveryKey(16, 0.5));
  EXPECT_EQ(c.EwmaCompressionRate(), 0.0);

  // 8 source bytes -> 16 bits = 2 padded bytes: CPR 4.0. Seeds the EWMA.
  c.OnEncode("abcdefgh", 16);
  EXPECT_DOUBLE_EQ(c.EwmaCompressionRate(), 4.0);

  // 8 bytes -> 4 padded bytes: CPR 2.0. EWMA = 4 + 0.5 * (2 - 4) = 3.
  c.OnEncode("abcdefgh", 32);
  EXPECT_DOUBLE_EQ(c.EwmaCompressionRate(), 3.0);

  // Bit lengths are byte-padded like Hope::CompressionRate: 9 bits -> 2
  // bytes, CPR 1.0. EWMA = 3 + 0.5 * (1 - 3) = 2.
  c.OnEncode("ab", 9);
  EXPECT_DOUBLE_EQ(c.EwmaCompressionRate(), 2.0);
}

TEST(EncodeStatsTest, SamplingCadenceSkipsKeys) {
  EncodeStatsCollector::Options o;
  o.reservoir_size = 1000;
  o.sample_every = 4;
  EncodeStatsCollector c(o);
  for (int i = 0; i < 100; i++) c.OnEncode("key", 8);
  EXPECT_EQ(c.KeysObserved(), 100u);
  EXPECT_EQ(c.KeysSampled(), 25u);  // every 4th, starting with the first
  EXPECT_EQ(c.ReservoirFill(), 25u);
}

TEST(EncodeStatsTest, ReservoirHoldsEverythingBelowCapacity) {
  EncodeStatsCollector c(EveryKey(64, 0.1));
  for (int i = 0; i < 40; i++) c.OnEncode(Key("key", i), 8);
  auto snap = c.ReservoirSnapshot();
  ASSERT_EQ(snap.size(), 40u);
  std::set<std::string> uniq(snap.begin(), snap.end());
  EXPECT_EQ(uniq.size(), 40u);
}

TEST(EncodeStatsTest, ReservoirCapsAndStaysRepresentative) {
  EncodeStatsCollector c(EveryKey(100, 0.1));
  for (int i = 0; i < 10000; i++) c.OnEncode(Key("key", i), 8);
  auto snap = c.ReservoirSnapshot();
  ASSERT_EQ(snap.size(), 100u);

  // Uniform sampling: roughly half the survivors should come from the
  // second half of the stream. Bound loosely (deterministic seed, but we
  // don't want to pin the RNG's exact draw).
  size_t late = 0;
  for (const auto& k : snap) {
    int idx = std::stoi(k.substr(3));
    EXPECT_GE(idx, 0);
    EXPECT_LT(idx, 10000);
    if (idx >= 5000) late++;
  }
  EXPECT_GT(late, 20u);
  EXPECT_LT(late, 80u);
}

TEST(EncodeStatsTest, MarkRebuildResetsCountersAndReseedsEwma) {
  EncodeStatsCollector c(EveryKey(16, 0.5));
  for (int i = 0; i < 20; i++) c.OnEncode("abcdefgh", 32);
  EXPECT_EQ(c.KeysSampled(), 20u);

  c.MarkRebuild(3.5);
  // The sampling stream restarts at the reservoir's contents; the
  // lifetime encode count does not reset.
  EXPECT_EQ(c.KeysSampled(), 16u);
  EXPECT_EQ(c.KeysObserved(), 20u);
  EXPECT_DOUBLE_EQ(c.EwmaCompressionRate(), 3.5);
  EXPECT_EQ(c.ReservoirFill(), 16u);  // corpus survives the swap

  c.OnEncode("abcdefgh", 32);  // CPR 2.0 -> EWMA 2.75
  EXPECT_DOUBLE_EQ(c.EwmaCompressionRate(), 2.75);
  EXPECT_EQ(c.KeysSampled(), 17u);
}

TEST(EncodeStatsTest, MarkRebuildRestartsReservoirReplacementRate) {
  EncodeStatsCollector c(EveryKey(50, 0.1));
  // Age the stream: lifetime sampled count is 100x the capacity, so the
  // per-key replacement probability has decayed to ~1%.
  for (int i = 0; i < 5000; i++) c.OnEncode(Key("old", i), 8);

  c.MarkRebuild(2.0);
  for (int i = 0; i < 500; i++) c.OnEncode(Key("new", i), 8);

  // With the stream restarted at the swap, the 500 post-swap keys behave
  // like positions 51..550 and displace most of the old contents; without
  // the restart the expected number of "new" survivors is ~4.5.
  size_t fresh = 0;
  for (const auto& k : c.ReservoirSnapshot())
    if (k.rfind("new", 0) == 0) fresh++;
  EXPECT_GT(fresh, 25u);
}

// The recency-biased reservoir (reservoir_halflife > 0) keeps its size
// but decays old contents exponentially, so after a distribution flip
// the rebuild/rebalance corpus is dominated by the new distribution long
// before Algorithm R's 1/i replacement rate would get there.
TEST(EncodeStatsTest, RecencyBiasedReservoirTracksADistributionFlip) {
  auto opts = EveryKey(256, 0.1);
  opts.reservoir_halflife = 128;  // survival halves every 128 samples

  EncodeStatsCollector decayed(opts);
  EncodeStatsCollector uniform(EveryKey(256, 0.1));

  // Phase 1: 2000 keys of distribution A; phase 2: 1000 of B. Under
  // uniform sampling B's expected share is 1000/3000; under the decaying
  // reservoir, A's survival after 1000 B-samples is (1/2)^(1000/128),
  // under half a percent.
  for (int i = 0; i < 2000; i++) {
    decayed.OnEncode(Key("aaa", i), 8);
    uniform.OnEncode(Key("aaa", i), 8);
  }
  for (int i = 0; i < 1000; i++) {
    decayed.OnEncode(Key("bbb", i), 8);
    uniform.OnEncode(Key("bbb", i), 8);
  }

  auto count_b = [](const EncodeStatsCollector& c) {
    size_t b = 0;
    for (const auto& k : c.ReservoirSnapshot())
      if (k.rfind("bbb", 0) == 0) b++;
    return b;
  };
  size_t decayed_b = count_b(decayed);
  size_t uniform_b = count_b(uniform);
  ASSERT_EQ(decayed.ReservoirFill(), 256u);
  // Recent keys dominate the decayed reservoir...
  EXPECT_GT(decayed_b, 230u) << "decayed reservoir still holds old keys";
  // ...while the uniform one stays stream-proportional (loose bounds so
  // the RNG draw isn't pinned).
  EXPECT_GT(uniform_b, 40u);
  EXPECT_LT(uniform_b, 140u);
}

TEST(EncodeStatsTest, DegenerateHalflifeFallsBackToUniform) {
  auto nan_opts = EveryKey(64, 0.1);
  nan_opts.reservoir_halflife = std::nan("");
  auto neg_opts = EveryKey(64, 0.1);
  neg_opts.reservoir_halflife = -5;
  for (auto& opts : {nan_opts, neg_opts}) {
    EncodeStatsCollector c(opts);
    for (int i = 0; i < 500; i++) c.OnEncode(Key("k", i), 8);
    // Uniform behaviour: early keys survive at capacity/stream rate.
    size_t early = 0;
    for (const auto& k : c.ReservoirSnapshot())
      if (std::stoi(k.substr(1)) < 250) early++;
    EXPECT_GT(early, 10u);
  }
}

TEST(EncodeStatsTest, DegenerateOptionsAreClamped) {
  EncodeStatsCollector::Options o;
  o.reservoir_size = 0;
  o.sample_every = 0;
  o.ewma_alpha = 7.0;
  EncodeStatsCollector c(o);
  c.OnEncode("abcd", 16);
  c.OnEncode("abcdefgh", 16);
  EXPECT_EQ(c.ReservoirFill(), 1u);
  // alpha clamped to 1.0: EWMA tracks the last key exactly.
  EXPECT_DOUBLE_EQ(c.EwmaCompressionRate(), 4.0);
}

}  // namespace
}  // namespace hope::dynamic
