// RouterVersion boundary derivation and routing, and the per-shard
// independence of the ShardedDictionaryManager: drift confined to one
// shard's key range rebuilds that shard only, and one shared
// BackgroundRebuilder polls every shard.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datasets/datasets.h"
#include "dynamic/background_rebuilder.h"
#include "dynamic/sharded_manager.h"
#include "workload/drift.h"

namespace hope::dynamic {
namespace {

std::vector<std::string> NumberedKeys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%04zu", i);
    keys.push_back(buf);
  }
  return keys;
}

TEST(RouterVersionTest, EqualWeightQuantileBoundaries) {
  auto sample = NumberedKeys(100);
  RouterVersion router(sample, 4);
  ASSERT_EQ(router.num_ranges(), 4u);
  EXPECT_EQ(router.version(), 0u);
  ASSERT_EQ(router.boundaries().size(), 3u);
  // Quantiles of the sorted sample at 25/50/75.
  EXPECT_EQ(router.boundaries()[0], "key0025");
  EXPECT_EQ(router.boundaries()[1], "key0050");
  EXPECT_EQ(router.boundaries()[2], "key0075");

  // Each shard owns an equal share of the sample.
  std::vector<size_t> counts(router.num_ranges(), 0);
  for (const auto& k : sample) counts[router.Route(k)]++;
  for (size_t c : counts) EXPECT_EQ(c, 25u);
}

TEST(RouterVersionTest, RoutingIsMonotoneAndBoundaryInclusive) {
  RouterVersion router(NumberedKeys(100), 4);
  // A boundary key starts its own shard.
  EXPECT_EQ(router.Route("key0025"), 1u);
  EXPECT_EQ(router.Route("key0024"), 0u);
  EXPECT_EQ(router.Route("key0075"), 3u);
  // Keys outside the sample range route to the edge shards.
  EXPECT_EQ(router.Route(""), 0u);
  EXPECT_EQ(router.Route("aaa"), 0u);
  EXPECT_EQ(router.Route("zzz"), 3u);
  // Monotone: sorted keys route to non-decreasing shards.
  auto sorted = NumberedKeys(100);
  size_t prev = 0;
  for (const auto& k : sorted) {
    size_t s = router.Route(k);
    EXPECT_GE(s, prev);
    prev = s;
  }
}

TEST(RouterVersionTest, DegenerateSamplesCollapseShards) {
  // One distinct key: boundaries collapse to a single shard.
  std::vector<std::string> same(50, "dup");
  EXPECT_EQ(RouterVersion(same, 8).num_ranges(), 1u);
  // Empty sample: single shard covering everything.
  EXPECT_EQ(RouterVersion({}, 8).num_ranges(), 1u);
  // num_shards 0 clamps to 1.
  EXPECT_EQ(RouterVersion(NumberedKeys(10), 0).num_ranges(), 1u);
  // Two distinct values cannot support more than two ranges.
  std::vector<std::string> two;
  for (int i = 0; i < 50; i++) two.push_back(i % 2 ? "bbb" : "aaa");
  RouterVersion router(two, 8);
  EXPECT_LE(router.num_ranges(), 2u);
  EXPECT_LT(router.Route("aaa"), router.num_ranges());
  EXPECT_LT(router.Route("bbb"), router.num_ranges());
}

TEST(ShardedManagerTest, BuildsPerShardDictionariesWithOwnBaselines) {
  auto sample = GenerateEmails(2000, 3);
  ShardedDictionaryManager::Options opts;
  opts.num_shards = 4;
  opts.shard.scheme = Scheme::kSingleChar;
  opts.shard.dict_size_limit = 256;
  ShardedDictionaryManager mgr(sample, opts);
  ASSERT_EQ(mgr.num_shards(), 4u);
  for (size_t s = 0; s < mgr.num_shards(); s++) {
    EXPECT_EQ(mgr.shard(s).epoch(), 0u);
    EXPECT_GT(mgr.shard(s).baseline_cpr(), 1.0) << "shard " << s;
  }
  // Encode routes to the owning shard's dictionary.
  for (const auto& k : SampleKeys(sample, 0.05)) {
    size_t s = mgr.Route(k);
    auto snap = mgr.shard(s).Acquire();
    EXPECT_EQ(mgr.Encode(k), snap.hope->Encode(k));
  }
}

TEST(ShardedManagerTest, EmptySampleThrows) {
  ShardedDictionaryManager::Options opts;
  EXPECT_THROW(ShardedDictionaryManager({}, opts), std::invalid_argument);
}

TEST(ShardedManagerTest, EpochsAndCountersAggregate) {
  auto sample = GenerateEmails(1000, 5);
  ShardedDictionaryManager::Options opts;
  opts.num_shards = 3;
  opts.shard.scheme = Scheme::kSingleChar;
  opts.shard.dict_size_limit = 256;
  ShardedDictionaryManager mgr(sample, opts);
  ASSERT_EQ(mgr.Epochs(), (std::vector<uint64_t>{0, 0, 0}));

  // Publish directly into shard 1; only its epoch moves.
  mgr.shard(1).Publish(Hope::Build(Scheme::kSingleChar, sample, 256));
  EXPECT_EQ(mgr.Epochs(), (std::vector<uint64_t>{0, 1, 0}));
  EXPECT_EQ(mgr.rebuilds_published(), 1u);
  EXPECT_EQ(mgr.rebuilds_rejected(), 0u);
}

// Drift confined to one shard's key range trips that shard's trigger and
// leaves the others untouched — the point of sharding.
TEST(ShardedManagerTest, LocalizedDriftRebuildsOnlyTheDriftedShard) {
  DriftOptions dopt;
  dopt.model = DriftModel::kUrlStyle;
  dopt.keys_per_phase = 4000;
  dopt.num_phases = 2;
  dopt.seed = 11;
  DriftingWorkload drift(dopt);
  auto stable = drift.Phase(0);

  ShardedDictionaryManager::Options opts;
  opts.num_shards = 4;
  opts.shard.scheme = Scheme::kSingleChar;
  opts.shard.dict_size_limit = 256;
  opts.shard.stats.sample_every = 1;
  opts.shard.stats.ewma_alpha = 0.01;
  opts.shard.rebuild_cpr_drop = 0.05;
  opts.shard.rebuild_min_fill = 64;
  ShardedDictionaryManager mgr(SampleKeys(stable, 0.1), opts);

  // The victim is the shard owning the most query-style (part B) keys.
  std::vector<std::vector<std::string>> b_by_shard(mgr.num_shards());
  for (const auto& k : drift.part_b()) b_by_shard[mgr.Route(k)].push_back(k);
  size_t victim = 0;
  for (size_t s = 1; s < b_by_shard.size(); s++)
    if (b_by_shard[s].size() > b_by_shard[victim].size()) victim = s;
  ASSERT_FALSE(b_by_shard[victim].empty());

  // Stable traffic everywhere, then drifted traffic into the victim only.
  for (const auto& k : stable) mgr.Encode(k);
  for (int round = 0; round < 50 && !mgr.shard(victim).ShouldRebuild();
       round++)
    for (const auto& k : b_by_shard[victim]) mgr.Encode(k);

  EXPECT_TRUE(mgr.shard(victim).ShouldRebuild());
  for (size_t s = 0; s < mgr.num_shards(); s++) {
    if (s != victim) {
      EXPECT_FALSE(mgr.shard(s).ShouldRebuild()) << "shard " << s;
    }
  }

  // One polling pass rebuilds the victim and nothing else.
  size_t published = mgr.RebuildPending();
  EXPECT_EQ(published, 1u);
  EXPECT_GE(mgr.shard(victim).epoch(), 1u);
  for (size_t s = 0; s < mgr.num_shards(); s++) {
    if (s != victim) {
      EXPECT_EQ(mgr.shard(s).epoch(), 0u) << "shard " << s;
    }
  }
}

// A single shared worker loop serves every shard.
TEST(ShardedManagerTest, SharedBackgroundRebuilderPollsAllShards) {
  // Single-char dictionaries and a small reservoir keep each of the many
  // rebuild cycles cheap (this test exercises the shared polling loop,
  // not build quality), so it stays fast under TSan's ~10x slowdown.
  auto stable = GenerateEmails(2000, 13);

  ShardedDictionaryManager::Options opts;
  opts.num_shards = 4;
  opts.shard.scheme = Scheme::kSingleChar;
  opts.shard.dict_size_limit = 256;
  opts.shard.stats.sample_every = 1;
  opts.shard.stats.reservoir_size = 256;
  opts.shard.min_cpr_gain = -1;  // publish any candidate the trigger asks for
  opts.shard.rebuild_cpr_drop = 0.05;
  opts.shard.rebuild_min_fill = 64;
  ShardedDictionaryManager mgr(SampleKeys(stable, 0.1), opts);

  // Off-distribution traffic for every shard: each address keeps its
  // prefix, and so (barring a boundary that extends it) its shard, but
  // gains a tail of characters no email carries, which the shards'
  // dictionaries code poorly.
  std::vector<std::string> drifted;
  for (const auto& k : stable) drifted.push_back(k + "|QZXJ#QZXJ#QZXJ");
  std::vector<size_t> per_shard(mgr.num_shards(), 0);
  for (const auto& k : drifted) per_shard[mgr.Route(k)]++;
  for (size_t s = 0; s < mgr.num_shards(); s++)
    ASSERT_GE(per_shard[s], 64u) << "shard " << s;

  BackgroundRebuilder::Options ropt;
  ropt.poll_interval = std::chrono::milliseconds(5);
  BackgroundRebuilder rebuilder(&mgr, ropt);
  EXPECT_EQ(rebuilder.num_managers(), mgr.num_shards());

  // Each shard's CPR-drop trigger fires and the shared loop publishes
  // for each (bounded by iterations, not wall time, so sanitizer runs
  // don't flake).
  for (int round = 0; round < 400; round++) {
    for (const auto& k : drifted) mgr.Encode(k);
    rebuilder.Nudge();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    bool all = true;
    for (size_t s = 0; s < mgr.num_shards(); s++)
      if (mgr.shard(s).epoch() == 0) all = false;
    if (all) break;
  }
  rebuilder.Stop();
  for (size_t s = 0; s < mgr.num_shards(); s++)
    EXPECT_GE(mgr.shard(s).epoch(), 1u) << "shard " << s;
  EXPECT_GE(rebuilder.rebuilds_completed(), mgr.num_shards());
}

}  // namespace
}  // namespace hope::dynamic
