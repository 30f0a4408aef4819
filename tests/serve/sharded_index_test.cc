// ConcurrentShardedIndex driven from one thread, the way the dynamic
// bench and the CLI demos drive it: routing, per-shard rebuilds that only
// happen where a swap happened, the idle refresh, range scans in global
// key order across shard boundaries, and rebalance plans applied by
// polling (or by a scan) while point operations keep working. The
// concurrent paths are in concurrent_index_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "datasets/datasets.h"
#include "dynamic/sharded_manager.h"
#include "serve/concurrent_index.h"

namespace hope::serve {
namespace {

using dynamic::RebalancePlan;
using dynamic::ShardedDictionaryManager;

constexpr Scheme kScheme = Scheme::kSingleChar;
constexpr size_t kLimit = 256;

struct Fixture {
  std::vector<std::string> keys;  // sorted, unique
  std::unique_ptr<ShardedDictionaryManager> mgr;

  explicit Fixture(size_t n = 600, size_t shards = 4) {
    keys = GenerateEmails(n, 17);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    ShardedDictionaryManager::Options opts;
    opts.num_shards = shards;
    opts.shard.scheme = kScheme;
    opts.shard.dict_size_limit = kLimit;
    mgr = std::make_unique<ShardedDictionaryManager>(keys, opts);
  }

  /// Swap in a rebuilt dictionary on one shard (trained on that shard's
  /// keys, like a real rebuild would be).
  void SwapShard(size_t s) {
    std::vector<std::string> shard_keys;
    for (const auto& k : keys)
      if (mgr->Route(k) == s) shard_keys.push_back(k);
    if (shard_keys.empty()) shard_keys = keys;
    mgr->shard(s).Publish(Hope::Build(kScheme, shard_keys, kLimit));
  }

  /// Index of the first key routed to shard `s` (keys.size() if none).
  size_t FirstKeyOf(size_t s) const {
    for (size_t i = 0; i < keys.size(); i++)
      if (mgr->Route(keys[i]) == s) return i;
    return keys.size();
  }
};

void ExpectAllPresent(const ConcurrentShardedIndex<BTree>& index,
                      const std::vector<std::string>& keys) {
  for (size_t i = 0; i < keys.size(); i++) {
    uint64_t v = ~uint64_t{0};
    ASSERT_TRUE(index.Lookup(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, i) << keys[i];
  }
}

TEST(ShardedIndexTest, InsertLookupEraseRouteAcrossShards) {
  Fixture fx;
  ConcurrentShardedIndex<BTree> index(fx.mgr.get());
  ASSERT_EQ(index.num_shards(), fx.mgr->num_shards());

  for (size_t i = 0; i < fx.keys.size(); i++) index.Insert(fx.keys[i], i);
  EXPECT_EQ(index.size(), fx.keys.size());
  // The index routes like its manager, and the keys span several shards.
  std::set<size_t> used;
  for (const auto& k : fx.keys) {
    ASSERT_EQ(index.Route(k), fx.mgr->Route(k)) << k;
    used.insert(index.Route(k));
  }
  EXPECT_GT(used.size(), 1u) << "keys should span multiple shards";

  ExpectAllPresent(index, fx.keys);
  EXPECT_FALSE(index.Lookup("zzz.not@present", nullptr));

  // Overwrite and erase route to the same shard.
  index.Insert(fx.keys[0], 999);
  uint64_t v = 0;
  ASSERT_TRUE(index.Lookup(fx.keys[0], &v));
  EXPECT_EQ(v, 999u);
  EXPECT_TRUE(index.Erase(fx.keys[1]));
  EXPECT_FALSE(index.Lookup(fx.keys[1], &v));
  EXPECT_FALSE(index.Erase(fx.keys[1]));
  EXPECT_EQ(index.size(), fx.keys.size() - 1);
}

// A swap rebuilds the swapped shard only, at the first write there after
// the publish; lookups never adopt the new dictionary.
TEST(ShardedIndexTest, SwapOpensGenerationOnlyInThatShard) {
  Fixture fx;
  ConcurrentShardedIndex<BTree> index(fx.mgr.get());
  for (size_t i = 0; i < fx.keys.size(); i++) index.Insert(fx.keys[i], i);
  const size_t n = index.num_shards();
  const std::vector<uint64_t> before(n, 0);
  EXPECT_EQ(index.ShardEpochs(), before);

  const size_t swapped = 2;
  fx.SwapShard(swapped);
  // Writes into every other shard keep their dictionary.
  for (size_t s = 0; s < n; s++) {
    if (s == swapped) continue;
    const size_t i = fx.FirstKeyOf(s);
    ASSERT_LT(i, fx.keys.size()) << "shard " << s;
    index.Insert(fx.keys[i], i);
    EXPECT_EQ(index.ShardEpochs(), before) << "shard " << s;
  }
  // Lookups stay correct under the old dictionary and adopt nothing.
  ExpectAllPresent(index, fx.keys);
  EXPECT_EQ(index.ShardEpochs(), before);

  const size_t i = fx.FirstKeyOf(swapped);
  ASSERT_LT(i, fx.keys.size());
  index.Insert(fx.keys[i], i);
  EXPECT_EQ(index.ShardEpochs(), fx.mgr->Epochs());
  EXPECT_EQ(index.ShardEpochs()[swapped], 1u);

  ExpectAllPresent(index, fx.keys);
  EXPECT_EQ(index.size(), fx.keys.size());
}

// Two swapped shards nobody writes to: an idle PollMigration rebuilds
// both under their new dictionaries.
TEST(ShardedIndexTest, IdlePollRefreshesEveryShard) {
  Fixture fx;
  ConcurrentShardedIndex<BTree> index(fx.mgr.get());
  for (size_t i = 0; i < fx.keys.size(); i += 2) index.Insert(fx.keys[i], i);
  fx.SwapShard(0);
  fx.SwapShard(1);
  EXPECT_EQ(index.ShardEpochs(),
            std::vector<uint64_t>(index.num_shards(), 0));

  ASSERT_TRUE(index.MigrationIdle());
  EXPECT_EQ(index.PollMigration(), 0u);  // no plan: refresh only
  EXPECT_EQ(index.ShardEpochs(), fx.mgr->Epochs());
  EXPECT_EQ(index.ShardEpochs()[0], 1u);
  EXPECT_EQ(index.ShardEpochs()[1], 1u);
  for (size_t i = 1; i < fx.keys.size(); i += 2) index.Insert(fx.keys[i], i);
  EXPECT_EQ(index.size(), fx.keys.size());
  ExpectAllPresent(index, fx.keys);
}

TEST(ShardedIndexTest, ScanWalksShardsInBoundaryOrder) {
  Fixture fx;
  ConcurrentShardedIndex<BTree> index(fx.mgr.get());
  for (size_t i = 0; i < fx.keys.size(); i++) index.Insert(fx.keys[i], i);

  // Swap one shard without writing there: Scan reads it under the
  // dictionary its tree was built with.
  fx.SwapShard(1);

  // Full scan from below every key: values come back in global key order
  // (fx.keys is sorted, so values must be 0..n-1 in order).
  std::vector<uint64_t> out;
  size_t produced = index.Scan("", fx.keys.size() + 10, &out);
  EXPECT_EQ(produced, fx.keys.size());
  ASSERT_EQ(out.size(), fx.keys.size());
  for (size_t i = 0; i < out.size(); i++) EXPECT_EQ(out[i], i) << i;
  EXPECT_EQ(index.ShardEpochs()[1], 0u);

  // After the shard adopts its new dictionary the scan is the same.
  const size_t first = fx.FirstKeyOf(1);
  ASSERT_LT(first, fx.keys.size());
  index.Insert(fx.keys[first], first);
  EXPECT_EQ(index.ShardEpochs()[1], 1u);
  out.clear();
  EXPECT_EQ(index.Scan("", fx.keys.size() + 10, &out), fx.keys.size());
  ASSERT_EQ(out.size(), fx.keys.size());
  for (size_t i = 0; i < out.size(); i++) EXPECT_EQ(out[i], i) << i;

  // Bounded scan starting mid-corpus, crossing at least one boundary.
  size_t start = fx.keys.size() / 3;
  size_t count = fx.keys.size() / 2;
  out.clear();
  produced = index.Scan(fx.keys[start], count, &out);
  EXPECT_EQ(produced, count);
  ASSERT_EQ(out.size(), count);
  for (size_t i = 0; i < out.size(); i++) EXPECT_EQ(out[i], start + i);

  // Scan from past the last key produces nothing.
  out.clear();
  EXPECT_EQ(index.Scan(fx.keys.back() + "zzz", 10, &out), 0u);
}

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

struct IndexFixture {
  std::vector<std::string> keys;
  std::unique_ptr<ShardedDictionaryManager> mgr;
  std::unique_ptr<ConcurrentShardedIndex<BTree>> index;

  explicit IndexFixture(size_t n = 100, size_t shards = 4)
      : keys(NumberedKeys(n)) {
    ShardedDictionaryManager::Options opts;
    opts.num_shards = shards;
    opts.shard.scheme = kScheme;
    opts.shard.dict_size_limit = kLimit;
    opts.shard.stats.sample_every = 1;
    opts.min_shard_sample = 8;
    opts.traffic_ewma_alpha = 1.0;
    opts.min_rebalance_corpus = 16;
    mgr = std::make_unique<ShardedDictionaryManager>(keys, opts);
    index = std::make_unique<ConcurrentShardedIndex<BTree>>(mgr.get());
    for (size_t i = 0; i < keys.size(); i++) index->Insert(keys[i], i);
  }

  /// Skews traffic into [lo, hi) and forces a router publish.
  std::shared_ptr<const RebalancePlan> SkewAndRebalance(size_t lo,
                                                        size_t hi) {
    for (int round = 0; round < 5; round++)
      for (size_t i = lo; i < hi; i++) mgr->Encode(keys[i]);
    mgr->UpdateTrafficWeights();
    return mgr->RebalanceNow(/*force=*/true);
  }

  /// Applies every pending plan the way a maintenance loop does;
  /// returns the entries moved.
  size_t PollUntilIdle() {
    size_t moved = 0;
    while (!index->MigrationIdle()) moved += index->PollMigration();
    return moved;
  }
};

TEST(ShardedIndexRebalanceTest, ApplyRebalanceMigratesMovedRanges) {
  IndexFixture fx;
  ConcurrentShardedIndex<BTree>& index = *fx.index;
  EXPECT_EQ(index.router_version(), 0u);

  auto plan = fx.SkewAndRebalance(75, 100);
  ASSERT_NE(plan, nullptr);

  // The index trails the manager until it is polled; polling migrates
  // the moved ranges between the per-shard indexes.
  EXPECT_EQ(index.router_version(), 0u);
  EXPECT_FALSE(index.MigrationIdle());
  size_t moved = fx.PollUntilIdle();
  EXPECT_GT(moved, 0u);
  EXPECT_EQ(index.entries_migrated(), moved);
  EXPECT_EQ(index.plans_applied(), 1u);
  EXPECT_EQ(index.router_version(), 1u);
  EXPECT_EQ(index.size(), fx.keys.size());

  // Every entry now lives in the shard its new router names: lookups,
  // overwrites and erases keep routing consistently.
  for (const auto& k : fx.keys) EXPECT_EQ(index.Route(k), fx.mgr->Route(k));
  ExpectAllPresent(index, fx.keys);
  index.Insert(fx.keys[10], 999);
  uint64_t v = 0;
  ASSERT_TRUE(index.Lookup(fx.keys[10], &v));
  EXPECT_EQ(v, 999u);
  EXPECT_TRUE(index.Erase(fx.keys[10]));
  EXPECT_FALSE(index.Lookup(fx.keys[10], &v));
}

// Plans stack up while the index is not polled: point lookups stay
// correct on the old routing, and the next poll catches up with one
// diff that moves only the keys whose owner differs between the index's
// router and the manager's current one.
TEST(ShardedIndexRebalanceTest, LazySyncMovesOnlyNetOwnerChanges) {
  IndexFixture fx;
  ConcurrentShardedIndex<BTree>& index = *fx.index;

  // Two rebalances while the index sleeps: hotspot at the top, then at
  // the bottom.
  auto first = fx.SkewAndRebalance(75, 100);
  ASSERT_NE(first, nullptr);
  auto second = fx.SkewAndRebalance(0, 25);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(fx.mgr->router_version(), 2u);
  size_t net_moves = 0;
  for (const auto& k : fx.keys)
    if (first->from->Route(k) != second->to->Route(k)) net_moves++;

  uint64_t v = 0;
  ASSERT_TRUE(index.Lookup(fx.keys[50], &v));
  EXPECT_EQ(v, 50u);
  EXPECT_EQ(index.router_version(), 0u);  // point operations never migrate
  ExpectAllPresent(index, fx.keys);

  EXPECT_GT(fx.PollUntilIdle(), 0u);
  EXPECT_EQ(index.router_version(), 2u);
  EXPECT_EQ(index.plans_applied(), 1u);
  EXPECT_EQ(index.entries_migrated(), net_moves);
  EXPECT_EQ(index.size(), fx.keys.size());
  ExpectAllPresent(index, fx.keys);
}

TEST(ShardedIndexRebalanceTest, ScanStaysOrderedImmediatelyAfterMigration) {
  IndexFixture fx;
  ConcurrentShardedIndex<BTree>& index = *fx.index;

  ASSERT_NE(fx.SkewAndRebalance(75, 100), nullptr);

  // Scan without polling first: the scan itself applies the plan and
  // must come back in global key order across the migrated boundaries.
  std::vector<uint64_t> out;
  size_t produced = index.Scan("", fx.keys.size() + 10, &out);
  EXPECT_EQ(index.router_version(), 1u);
  EXPECT_TRUE(index.MigrationIdle());
  ASSERT_EQ(produced, fx.keys.size());
  for (size_t i = 0; i < out.size(); i++) EXPECT_EQ(out[i], i) << i;

  // Bounded mid-range scan across the new boundaries.
  out.clear();
  produced = index.Scan(fx.keys[40], 30, &out);
  ASSERT_EQ(produced, 30u);
  for (size_t i = 0; i < out.size(); i++) EXPECT_EQ(out[i], 40 + i) << i;
}

}  // namespace
}  // namespace hope::serve
