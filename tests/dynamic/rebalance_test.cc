// Online shard re-balancing: weighted boundary derivation, router
// diffing, the versioned router swap (lock-free for readers), the
// weight-imbalance trigger's hysteresis, and the range extraction the
// index side migrates moved keys with (the plan application itself is
// covered in tests/serve/sharded_index_test.cc and
// tests/serve/concurrent_index_test.cc).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "dynamic/background_rebuilder.h"
#include "dynamic/sharded_manager.h"
#include "dynamic/versioned_index.h"

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

ShardedDictionaryManager::Options SmallShardOptions(size_t num_shards) {
  ShardedDictionaryManager::Options opts;
  opts.num_shards = num_shards;
  opts.shard.scheme = Scheme::kSingleChar;
  opts.shard.dict_size_limit = 256;
  opts.shard.stats.sample_every = 1;
  opts.min_shard_sample = 8;
  return opts;
}

TEST(WeightedBoundariesTest, UniformWeightsReproduceQuantiles) {
  std::vector<std::pair<std::string, double>> weighted;
  for (const auto& k : NumberedKeys(100)) weighted.emplace_back(k, 1.0);
  auto boundaries = DeriveWeightedBoundaries(std::move(weighted), 4);
  ASSERT_EQ(boundaries.size(), 3u);
  EXPECT_EQ(boundaries[0], "key0025");
  EXPECT_EQ(boundaries[1], "key0050");
  EXPECT_EQ(boundaries[2], "key0075");
}

TEST(WeightedBoundariesTest, HeavyKeysPullBoundariesTowardThemselves) {
  // d carries 5/8 of the weight: the single cut isolates it.
  std::vector<std::pair<std::string, double>> weighted = {
      {"a", 1.0}, {"b", 1.0}, {"c", 1.0}, {"d", 5.0}};
  auto boundaries = DeriveWeightedBoundaries(weighted, 2);
  ASSERT_EQ(boundaries.size(), 1u);
  EXPECT_EQ(boundaries[0], "d");
}

TEST(WeightedBoundariesTest, DuplicateKeysMergeTheirWeight) {
  std::vector<std::pair<std::string, double>> weighted = {
      {"a", 1.0}, {"a", 2.0}, {"b", 3.0}};
  auto boundaries = DeriveWeightedBoundaries(weighted, 2);
  ASSERT_EQ(boundaries.size(), 1u);
  EXPECT_EQ(boundaries[0], "b");
}

TEST(WeightedBoundariesTest, DegenerateInputsCollapse) {
  // All weight on the smallest key: no valid cut above it.
  EXPECT_TRUE(DeriveWeightedBoundaries({{"a", 10.0}, {"b", 0.0}}, 4).empty());
  // One key, empty input, single range.
  EXPECT_TRUE(DeriveWeightedBoundaries({{"a", 1.0}}, 4).empty());
  EXPECT_TRUE(DeriveWeightedBoundaries({}, 4).empty());
  EXPECT_TRUE(DeriveWeightedBoundaries({{"a", 1.0}, {"b", 1.0}}, 1).empty());
}

TEST(DiffRoutersTest, ComputesMovedElementaryRanges) {
  auto from = std::make_shared<const RouterVersion>(
      0, std::vector<std::string>{"k25", "k50", "k75"});
  auto to = std::make_shared<const RouterVersion>(
      1, std::vector<std::string>{"k80", "k85", "k90"});
  RebalancePlan plan = DiffRouters(from, to);
  EXPECT_EQ(plan.from, from);
  EXPECT_EQ(plan.to, to);
  // ["", k25) keeps owner 0; everything between k25 and k90 changes.
  ASSERT_EQ(plan.moves.size(), 5u);
  auto expect_move = [&](size_t i, size_t f, size_t t,
                         const std::string& begin, const std::string& end) {
    EXPECT_EQ(plan.moves[i].from_shard, f) << i;
    EXPECT_EQ(plan.moves[i].to_shard, t) << i;
    EXPECT_EQ(plan.moves[i].begin, begin) << i;
    ASSERT_TRUE(plan.moves[i].bounded) << i;
    EXPECT_EQ(plan.moves[i].end, end) << i;
  };
  expect_move(0, 1, 0, "k25", "k50");
  expect_move(1, 2, 0, "k50", "k75");
  expect_move(2, 3, 0, "k75", "k80");
  expect_move(3, 3, 1, "k80", "k85");
  expect_move(4, 3, 2, "k85", "k90");
  // [k90, inf) keeps owner 3 under both routers: no unbounded move.
}

TEST(DiffRoutersTest, IdenticalRoutersYieldEmptyPlanAndTailMoves) {
  auto same_a = std::make_shared<const RouterVersion>(
      0, std::vector<std::string>{"c", "f"});
  auto same_b = std::make_shared<const RouterVersion>(
      1, std::vector<std::string>{"c", "f"});
  EXPECT_TRUE(DiffRouters(same_a, same_b).empty());

  // Dropping the last boundary moves the tail range, unbounded above.
  auto to = std::make_shared<const RouterVersion>(
      1, std::vector<std::string>{"c"});
  RebalancePlan plan = DiffRouters(same_a, to);
  ASSERT_EQ(plan.moves.size(), 1u);
  EXPECT_EQ(plan.moves[0].from_shard, 2u);
  EXPECT_EQ(plan.moves[0].to_shard, 1u);
  EXPECT_EQ(plan.moves[0].begin, "f");
  EXPECT_FALSE(plan.moves[0].bounded);
}

// The rebalance trigger's own tests make every firing a counted no-op:
// with a corpus floor the reservoirs can never reach, a firing runs
// RebalanceLocked(), which bumps rebalances_noop() and publishes
// nothing, so the router, the weights and the since-rebalance counters
// stay put between polls.
ShardedDictionaryManager::Options TriggerOptions(double ratio,
                                                 uint64_t min_keys,
                                                 double cooldown_seconds) {
  auto opts = SmallShardOptions(4);
  opts.traffic_ewma_alpha = 1.0;  // weights = last observed shares
  opts.min_rebalance_corpus = 1000000;
  opts.rebalance_trigger_ratio = ratio;
  opts.rebalance_min_keys = min_keys;
  opts.rebalance_cooldown_seconds = cooldown_seconds;
  return opts;
}

/// Polls after `n` encodes of one key: every key lands in one of the 4
/// shards, so max/mean traffic weight is 4.
void SkewedPoll(ShardedDictionaryManager& mgr, int n = 100) {
  for (int i = 0; i < n; i++) mgr.Encode("key0090");
  EXPECT_EQ(mgr.PollRebalance(), nullptr);
}

TEST(WeightImbalancePolicyTest, HysteresisRequiresConsecutiveSkewedPolls) {
  static_assert(ShardedDictionaryManager::kRebalanceConsecutivePolls == 2);
  auto sample = NumberedKeys(100);
  ShardedDictionaryManager mgr(sample, TriggerOptions(2.0, 100, 0.0));

  SkewedPoll(mgr);  // streak 1 of 2
  EXPECT_EQ(mgr.rebalances_noop(), 0u);
  SkewedPoll(mgr);  // streak 2: fires
  EXPECT_EQ(mgr.rebalances_noop(), 1u);
  // Firing resets the streak.
  SkewedPoll(mgr);
  EXPECT_EQ(mgr.rebalances_noop(), 1u);
  // A balanced poll in between also resets it (the quantile router
  // gives each shard 25 of the 100 sample keys).
  for (const auto& k : sample) mgr.Encode(k);
  EXPECT_EQ(mgr.PollRebalance(), nullptr);
  ASSERT_DOUBLE_EQ(mgr.WeightImbalance(), 1.0);
  SkewedPoll(mgr);
  EXPECT_EQ(mgr.rebalances_noop(), 1u);
  SkewedPoll(mgr);
  EXPECT_EQ(mgr.rebalances_noop(), 2u);

  // A forced rebalance leaves the streak alone: one skewed poll, a
  // forced (no-op) rebalance, and the next skewed poll still fires.
  SkewedPoll(mgr);
  EXPECT_EQ(mgr.RebalanceNow(/*force=*/true), nullptr);
  EXPECT_EQ(mgr.rebalances_noop(), 3u);
  SkewedPoll(mgr);
  EXPECT_EQ(mgr.rebalances_noop(), 4u);
  EXPECT_EQ(mgr.router_version(), 0u);
}

TEST(WeightImbalancePolicyTest, GatesOnTrafficAndCooldown) {
  auto sample = NumberedKeys(100);
  // Traffic floor: 499 keys since the last rebalance is not enough, no
  // matter how skewed; the 500th arms the trigger.
  ShardedDictionaryManager floor(sample, TriggerOptions(2.0, 500, 0.0));
  SkewedPoll(floor, 499);
  SkewedPoll(floor, 0);
  EXPECT_EQ(floor.rebalances_noop(), 0u);
  SkewedPoll(floor, 1);
  SkewedPoll(floor, 0);
  EXPECT_EQ(floor.rebalances_noop(), 1u);

  // Cooldown: the clock starts at construction, so an hour-long
  // cooldown holds back every poll of this test...
  ShardedDictionaryManager cool(sample, TriggerOptions(2.0, 1, 3600.0));
  for (int poll = 0; poll < 4; poll++) SkewedPoll(cool);
  EXPECT_EQ(cool.rebalances_noop(), 0u);
  // ...while a forced rebalance is never gated.
  EXPECT_EQ(cool.RebalanceNow(/*force=*/true), nullptr);
  EXPECT_EQ(cool.rebalances_noop(), 1u);
}

TEST(WeightImbalancePolicyTest, DegenerateParametersAreClamped) {
  auto sample = NumberedKeys(100);
  // Ratio 0, negative or NaN: the trigger is off, whatever the skew.
  for (double off : {0.0, -3.0, std::nan("")}) {
    ShardedDictionaryManager mgr(sample, TriggerOptions(off, 1, 0.0));
    for (int poll = 0; poll < 4; poll++) SkewedPoll(mgr);
    EXPECT_EQ(mgr.rebalances_noop(), 0u) << off;
  }
  // A ratio in (0, 1) clamps to 1, which max/mean always reaches, so
  // perfectly balanced traffic fires; min_keys 0 clamps to 1, so polls
  // with no traffic at all do not; a NaN or negative cooldown clamps to
  // 0, so nothing waits on the clock.
  for (double cooldown : {std::nan(""), -5.0}) {
    ShardedDictionaryManager mgr(sample, TriggerOptions(0.5, 0, cooldown));
    for (int poll = 0; poll < 3; poll++)
      EXPECT_EQ(mgr.PollRebalance(), nullptr);
    EXPECT_EQ(mgr.rebalances_noop(), 0u) << cooldown;
    for (const auto& k : sample) mgr.Encode(k);
    EXPECT_EQ(mgr.PollRebalance(), nullptr);
    EXPECT_EQ(mgr.PollRebalance(), nullptr);
    ASSERT_DOUBLE_EQ(mgr.WeightImbalance(), 1.0);
    EXPECT_EQ(mgr.rebalances_noop(), 1u) << cooldown;
  }
}

TEST(ShardedManagerRebalanceTest, TrafficWeightsTrackEncodeCounts) {
  auto sample = NumberedKeys(100);
  auto opts = SmallShardOptions(4);
  opts.traffic_ewma_alpha = 1.0;  // weights = last observed shares
  ShardedDictionaryManager mgr(sample, opts);

  auto w0 = mgr.TrafficWeights();
  ASSERT_EQ(w0.size(), 4u);
  for (double w : w0) EXPECT_DOUBLE_EQ(w, 0.25);
  EXPECT_DOUBLE_EQ(mgr.WeightImbalance(), 1.0);

  // All traffic into the last shard's range.
  for (int i = 0; i < 200; i++) mgr.Encode("key0090");
  mgr.UpdateTrafficWeights();
  auto w1 = mgr.TrafficWeights();
  EXPECT_DOUBLE_EQ(w1[3], 1.0);
  EXPECT_DOUBLE_EQ(w1[0], 0.0);
  EXPECT_DOUBLE_EQ(mgr.WeightImbalance(), 4.0);

  // A poll with no traffic keeps the weights instead of inventing data.
  mgr.UpdateTrafficWeights();
  EXPECT_DOUBLE_EQ(mgr.TrafficWeights()[3], 1.0);
}

TEST(ShardedManagerRebalanceTest, ForcedRebalanceRederivesBoundaries) {
  auto sample = NumberedKeys(100);
  auto opts = SmallShardOptions(4);
  opts.traffic_ewma_alpha = 1.0;
  opts.min_rebalance_corpus = 16;
  opts.retrain_moved_shards = false;  // routing-only rebalance
  ShardedDictionaryManager mgr(sample, opts);
  auto before = mgr.router();
  EXPECT_EQ(before->version(), 0u);

  // Pin the plan history at v0 the way a lagging index would; without
  // any registered consumer the publish would prune its own plan
  // immediately.
  auto reg = mgr.RegisterIndex();
  EXPECT_EQ(reg.router->version(), 0u);

  // Hot traffic confined to the top quarter; the reservoirs of the cold
  // shards stay empty, so the re-derived boundaries live inside the hot
  // range.
  for (int round = 0; round < 5; round++)
    for (size_t i = 75; i < 100; i++) mgr.Encode(NumberedKeys(100)[i]);
  mgr.UpdateTrafficWeights();

  auto plan = mgr.RebalanceNow(/*force=*/true);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->from, before);
  EXPECT_EQ(plan->to->version(), 1u);
  EXPECT_EQ(mgr.router_version(), 1u);
  EXPECT_EQ(mgr.rebalances_published(), 1u);
  EXPECT_FALSE(plan->moves.empty());
  for (const auto& b : mgr.router()->boundaries())
    EXPECT_GE(b, std::string("key0075"));

  // Shards kept their dictionaries: no epoch moved.
  for (size_t s = 0; s < mgr.num_shards(); s++)
    EXPECT_EQ(mgr.shard(s).epoch(), 0u) << s;

  // The plan history replays for the registered consumer still at v0.
  auto plans = mgr.PlansSince(0);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0], plan);
  EXPECT_TRUE(mgr.PlansSince(1).empty());

  // Advancing the consumer releases the pin: the plan is pruned (asking
  // below the new floor fails a check; see
  // ConcurrentIndexDeathTest.PlansSinceBelowPrunedFloorFailsCheck).
  mgr.UpdateIndexVersion(reg.id, 1);
  EXPECT_EQ(mgr.plans_retained(), 0u);
  EXPECT_EQ(mgr.plans_pruned(), 1u);
  EXPECT_TRUE(mgr.PlansSince(1).empty());
  mgr.DeregisterIndex(reg.id);

  // Weights reset to balanced after the publish (hysteresis baseline).
  EXPECT_DOUBLE_EQ(mgr.WeightImbalance(), 1.0);
}

TEST(ShardedManagerRebalanceTest, RetrainRefreshesOnlyMovedShards) {
  auto sample = NumberedKeys(100);
  auto opts = SmallShardOptions(4);
  opts.traffic_ewma_alpha = 1.0;
  opts.min_rebalance_corpus = 16;
  ASSERT_TRUE(opts.retrain_moved_shards);  // the default
  ShardedDictionaryManager mgr(sample, opts);

  for (int round = 0; round < 5; round++)
    for (size_t i = 75; i < 100; i++) mgr.Encode(sample[i]);
  mgr.UpdateTrafficWeights();
  auto plan = mgr.RebalanceNow(/*force=*/true);
  ASSERT_NE(plan, nullptr);

  // Shards named in a move got a dictionary trained on their new range
  // (their slice of the hot corpus clears min_shard_sample here); shards
  // that kept their range kept epoch 0.
  std::vector<bool> affected(mgr.num_shards(), false);
  for (const auto& mv : plan->moves) {
    affected[mv.from_shard] = true;
    affected[mv.to_shard] = true;
  }
  size_t retrained = 0;
  for (size_t s = 0; s < mgr.num_shards(); s++) {
    if (!affected[s]) {
      EXPECT_EQ(mgr.shard(s).epoch(), 0u) << s;
    } else if (mgr.shard(s).epoch() > 0) {
      retrained++;
    }
  }
  EXPECT_GT(retrained, 0u);
}

TEST(ShardedManagerRebalanceTest, PolicyTriggersRebalanceUnderSkew) {
  auto sample = NumberedKeys(100);
  auto opts = SmallShardOptions(4);
  opts.traffic_ewma_alpha = 1.0;
  opts.min_rebalance_corpus = 16;
  opts.rebalance_trigger_ratio = 2.0;
  opts.rebalance_min_keys = 50;
  opts.rebalance_cooldown_seconds = 0;
  ShardedDictionaryManager mgr(sample, opts);

  // Balanced traffic: polls stay quiet.
  for (const auto& k : sample) mgr.Encode(k);
  EXPECT_EQ(mgr.PollRebalance(), nullptr);
  EXPECT_EQ(mgr.PollRebalance(), nullptr);
  EXPECT_EQ(mgr.router_version(), 0u);

  // Skewed traffic: the second consecutive skewed poll triggers.
  std::shared_ptr<const RebalancePlan> plan;
  for (int round = 0; round < 10 && !plan; round++) {
    for (size_t i = 75; i < 100; i++) mgr.Encode(sample[i]);
    plan = mgr.PollRebalance();
  }
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(mgr.router_version(), 1u);
}

TEST(ShardedManagerRebalanceTest, TriggerOffByDefault) {
  auto sample = NumberedKeys(100);
  auto opts = SmallShardOptions(4);
  opts.traffic_ewma_alpha = 1.0;
  opts.min_rebalance_corpus = 16;
  // Open the traffic floor and the cooldown, so only the trigger ratio's
  // own default can hold a poll back.
  opts.rebalance_min_keys = 1;
  opts.rebalance_cooldown_seconds = 0;
  ShardedDictionaryManager mgr(sample, opts);

  // All traffic on one shard, polled far past the streak.
  for (int round = 0; round < 5; round++) {
    for (size_t i = 75; i < 100; i++)
      for (int rep = 0; rep < 50; rep++) mgr.Encode(sample[i]);
    EXPECT_EQ(mgr.PollRebalance(), nullptr);
    EXPECT_EQ(mgr.RebalanceNow(), nullptr);
  }
  EXPECT_DOUBLE_EQ(mgr.WeightImbalance(), 4.0);
  EXPECT_EQ(mgr.router_version(), 0u);
  EXPECT_EQ(mgr.rebalances_noop(), 0u);

  // Forcing still re-derives the boundaries.
  ASSERT_NE(mgr.RebalanceNow(/*force=*/true), nullptr);
  EXPECT_EQ(mgr.router_version(), 1u);
}

TEST(ShardedManagerRebalanceTest, NoOpWhenCorpusTooSmall) {
  auto sample = NumberedKeys(100);
  auto opts = SmallShardOptions(4);
  opts.min_rebalance_corpus = 1000;  // reservoirs can't reach this
  ShardedDictionaryManager mgr(sample, opts);
  for (const auto& k : sample) mgr.Encode(k);
  mgr.UpdateTrafficWeights();
  EXPECT_EQ(mgr.RebalanceNow(/*force=*/true), nullptr);
  EXPECT_EQ(mgr.router_version(), 0u);
}

// Readers keep routing wait-free through the epoch-guarded router
// pointer while the writer publishes re-derived versions (the TSan
// angle of the swap, now exercising the EBR retire path instead of the
// old retain-forever workaround). Retrain stays off so each swap is a
// pure router publish — no Hope::Build per 2ms cycle — and the test
// stresses swap frequency, not build throughput.
TEST(ShardedManagerRebalanceTest, RouteAndAcquireStaySafeAcrossSwaps) {
  auto sample = NumberedKeys(200);
  auto opts = SmallShardOptions(4);
  opts.min_rebalance_corpus = 16;
  opts.retrain_moved_shards = false;
  ShardedDictionaryManager mgr(sample, opts);
  for (const auto& k : sample) mgr.Encode(k);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; t++) {
    readers.emplace_back([&, t] {
      auto keys = NumberedKeys(200);
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        const std::string& key = keys[i++ % keys.size()];
        size_t shard = mgr.Route(key);
        ASSERT_LT(shard, mgr.num_shards());
        DictSnapshot snap = mgr.Acquire(key);
        ASSERT_NE(snap.hope, nullptr);
        mgr.Encode(key);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Alternate skewed traffic and forced rebalances so the router version
  // keeps moving while the readers run.
  uint64_t swaps = 0;
  for (int round = 0; round < 20; round++) {
    for (size_t i = 150; i < 200; i++) mgr.Encode(sample[i]);
    mgr.UpdateTrafficWeights();
    if (mgr.RebalanceNow(/*force=*/true)) swaps++;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(mgr.router_version(), swaps);

  // Every superseded router was retired (not retained forever), and with
  // the readers gone a couple of reclaim polls free all of them — the
  // manager owns only the live version.
  EXPECT_EQ(mgr.reclaimer().retired(), swaps);
  for (int i = 0; i < 10 && mgr.reclaimer().pending() > 0; i++)
    mgr.reclaimer().TryReclaim();
  EXPECT_EQ(mgr.reclaimer().reclaimed(), swaps);
}

TEST(VersionedIndexTest, CollectRangeKeysThenExtractKeysMovesSortedRange) {
  auto keys = NumberedKeys(60);
  DictionaryManager::Options mopt;
  mopt.scheme = Scheme::kSingleChar;
  mopt.dict_size_limit = 256;
  DictionaryManager mgr(Hope::Build(Scheme::kSingleChar, keys, 256), mopt,
                        keys);
  VersionedIndex<BTree> index(&mgr);
  for (size_t i = 0; i < keys.size(); i++) index.Insert(keys[i], i);
  // A swap plus an erase exercise the drain + liveness filtering.
  mgr.Publish(Hope::Build(Scheme::kSingleChar, keys, 256));
  index.Erase(keys[25]);

  auto range = index.CollectRangeKeys(keys[20], &keys[40]);
  EXPECT_EQ(index.NumGenerations(), 1u);
  ASSERT_EQ(range.size(), 19u);  // [20, 40) minus the erased 25
  EXPECT_TRUE(std::is_sorted(range.begin(), range.end()));
  EXPECT_EQ(index.size(), keys.size() - 1);  // collecting removes nothing

  std::vector<std::pair<std::string, uint64_t>> out;
  EXPECT_EQ(index.ExtractKeys(range, &out), 19u);
  ASSERT_EQ(out.size(), 19u);
  for (size_t i = 0; i < out.size(); i++) {
    const auto& [key, value] = out[i];
    EXPECT_EQ(key, range[i]);
    EXPECT_GE(key, keys[20]);
    EXPECT_LT(key, keys[40]);
    EXPECT_EQ(key, keys[value]);
    // Extracted entries are gone from the source index.
    EXPECT_FALSE(index.Peek(key, nullptr));
  }
  EXPECT_EQ(index.size(), keys.size() - 20);
  // A stale cursor extracts nothing twice.
  EXPECT_EQ(index.ExtractKeys(range, &out), 0u);

  // An unbounded range takes the whole tail.
  range = index.CollectRangeKeys(keys[40], nullptr);
  ASSERT_EQ(range.size(), 20u);
  EXPECT_EQ(range.front(), keys[40]);
  out.clear();
  EXPECT_EQ(index.ExtractKeys(range, &out), 20u);
  EXPECT_EQ(index.size(), 20u);
}

// The shared worker loop also drives rebalancing: skewed traffic alone
// (no manual polling) must eventually re-derive the router.
TEST(RebalanceRebuilderTest, WorkerPollsRebalanceAlongsideRebuilds) {
  auto sample = NumberedKeys(200);
  auto opts = SmallShardOptions(4);
  opts.traffic_ewma_alpha = 1.0;
  opts.min_rebalance_corpus = 16;
  opts.rebalance_trigger_ratio = 2.0;
  opts.rebalance_min_keys = 50;
  opts.rebalance_cooldown_seconds = 0;
  ShardedDictionaryManager mgr(sample, opts);
  BackgroundRebuilder::Options ropt;
  ropt.poll_interval = std::chrono::milliseconds(2);
  BackgroundRebuilder rebuilder(&mgr, ropt);

  for (int round = 0; round < 2000 && mgr.router_version() == 0; round++) {
    for (size_t i = 150; i < 200; i++) mgr.Encode(sample[i]);
    rebuilder.Nudge();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rebuilder.Stop();
  EXPECT_GE(mgr.router_version(), 1u);
  EXPECT_GE(rebuilder.rebalances_completed(), 1u);
}

}  // namespace
}  // namespace hope::dynamic
