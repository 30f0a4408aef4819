// Which encodes feed a manager's stats collector: exactly the ones that
// serve a request — an insert, a point lookup, a scan's start key.
// Maintenance encodes (the rebuild that adopts a new epoch, erases,
// migration, log compaction) must never reach it, or retired
// dictionaries and synthetic re-encode bursts would skew the CPR-drop
// trigger and the rebuild corpus.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "dynamic/dictionary_manager.h"
#include "dynamic/sharded_manager.h"
#include "dynamic/versioned_index.h"
#include "serve/concurrent_index.h"

namespace hope::dynamic {
namespace {

std::vector<std::string> PrefixedKeys(char prefix, size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%c%04zu", prefix, i);
    keys.push_back(buf);
  }
  return keys;
}

std::unique_ptr<Hope> SmallDict(const std::vector<std::string>& keys) {
  return Hope::Build(Scheme::kSingleChar, keys, 256);
}

/// Keys the collector observed while `op` ran.
template <typename Op>
uint64_t Observed(const DictionaryManager& mgr, Op op) {
  const uint64_t before = mgr.stats().KeysObserved();
  op();
  return mgr.stats().KeysObserved() - before;
}

TEST(ObservedTrafficTest, VersionedIndexObservesOnlyServedEncodes) {
  const auto a = PrefixedKeys('a', 200);
  const auto b = PrefixedKeys('b', 200);
  DictionaryManager::Options opts;
  opts.scheme = Scheme::kSingleChar;
  opts.dict_size_limit = 256;
  DictionaryManager mgr(SmallDict(a), opts, a);
  VersionedIndex<BTree> index(&mgr);

  EXPECT_EQ(Observed(mgr, [&] { mgr.Encode(a[0]); }), 1u);
  EXPECT_EQ(Observed(mgr,
                     [&] {
                       for (size_t i = 0; i < 100; i++) index.Insert(a[i], i);
                     }),
            100u);

  // A swap: the next insert adopts epoch 1, re-encoding the 100 entries
  // already there unobserved.
  mgr.Publish(SmallDict(b));
  EXPECT_EQ(Observed(mgr,
                     [&] {
                       for (size_t i = 0; i < 50; i++) index.Insert(b[i], i);
                     }),
            50u);
  ASSERT_EQ(index.CurrentEpoch(), 1u);

  // One per Peek: a hit on a key inserted after the swap, one on a key
  // re-encoded by it, and a miss.
  uint64_t v = 0;
  EXPECT_EQ(Observed(mgr, [&] { EXPECT_TRUE(index.Peek(b[0], &v)); }), 1u);
  EXPECT_EQ(Observed(mgr, [&] { EXPECT_TRUE(index.Peek(a[0], &v)); }), 1u);
  EXPECT_EQ(Observed(mgr, [&] { EXPECT_FALSE(index.Peek(b[199], &v)); }),
            1u);

  // Erase, migration inserts and extraction observe nothing.
  EXPECT_EQ(Observed(mgr,
                     [&] {
                       EXPECT_TRUE(index.Erase(a[1]));
                       EXPECT_TRUE(index.Erase(b[1]));
                       EXPECT_FALSE(index.Erase(b[199]));
                     }),
            0u);
  EXPECT_EQ(Observed(mgr,
                     [&] {
                       EXPECT_TRUE(index.InsertIfAbsent(b[150], 1));
                       EXPECT_FALSE(index.InsertIfAbsent(a[2], 1));
                     }),
            0u);
  std::vector<std::pair<std::string, uint64_t>> extracted;
  EXPECT_EQ(Observed(mgr,
                     [&] {
                       EXPECT_EQ(index.ExtractKeys({a[3], b[2]}, &extracted),
                                 2u);
                     }),
            0u);

  // Overwrites count once each, while the log compaction they trigger
  // re-encodes every live key unobserved.
  const size_t log_before = index.LogSize();
  EXPECT_EQ(Observed(mgr,
                     [&] {
                       for (uint64_t rep = 0; rep < 1000; rep++)
                         index.Insert(b[0], rep);
                     }),
            1000u);
  EXPECT_LT(index.LogSize(), log_before + 1000);

  // The migration cursor observes nothing, and adopts no fresh swap.
  mgr.Publish(SmallDict(a));
  std::vector<std::string> live;
  EXPECT_EQ(Observed(mgr,
                     [&] {
                       live = index.CollectRangeKeys(std::string(), nullptr);
                     }),
            0u);
  EXPECT_EQ(live.size(), index.size());
  EXPECT_EQ(index.CurrentEpoch(), 1u);

  // Adopting the swap re-encodes every live entry unobserved.
  size_t moved = 0;
  EXPECT_EQ(Observed(mgr, [&] { moved = index.Refresh(); }), 0u);
  EXPECT_EQ(moved, index.size());
  EXPECT_GT(moved, 90u);
  EXPECT_EQ(index.CurrentEpoch(), 2u);
}

TEST(ObservedTrafficTest, ShardedIndexObservesInsertLookupAndScanStart) {
  const auto keys = PrefixedKeys('k', 200);
  ShardedDictionaryManager::Options opts;
  opts.num_shards = 2;
  opts.shard.scheme = Scheme::kSingleChar;
  opts.shard.dict_size_limit = 256;
  opts.min_shard_sample = 8;
  ShardedDictionaryManager mgr(keys, opts);
  ASSERT_EQ(mgr.num_shards(), 2u);
  serve::ConcurrentShardedIndex<BTree> index(&mgr);
  auto observed = [&](auto op) {
    uint64_t before = 0, after = 0;
    for (size_t s = 0; s < mgr.num_shards(); s++)
      before += mgr.shard(s).stats().KeysObserved();
    op();
    for (size_t s = 0; s < mgr.num_shards(); s++)
      after += mgr.shard(s).stats().KeysObserved();
    return after - before;
  };

  EXPECT_EQ(observed([&] { mgr.Encode(keys[0]); }), 1u);
  EXPECT_EQ(observed([&] {
              for (size_t i = 0; i < 150; i++) index.Insert(keys[i], i);
            }),
            150u);

  // Swap shard 0's dictionary; an overwrite there adopts it, re-encoding
  // the shard's other entries unobserved.
  ASSERT_EQ(index.Route(keys[0]), 0u);
  ASSERT_EQ(index.Route(keys[149]), 1u);
  mgr.shard(0).Publish(SmallDict(keys));
  EXPECT_EQ(observed([&] { index.Insert(keys[0], 1000); }), 1u);
  EXPECT_EQ(index.ShardEpochs(), (std::vector<uint64_t>{1, 0}));

  // One per lookup: a hit on the overwritten key and on a re-encoded one
  // in shard 0, a hit in shard 1, and a miss.
  uint64_t v = 0;
  EXPECT_EQ(observed([&] { EXPECT_TRUE(index.Lookup(keys[0], &v)); }), 1u);
  EXPECT_EQ(observed([&] { EXPECT_TRUE(index.Lookup(keys[3], &v)); }), 1u);
  EXPECT_EQ(observed([&] { EXPECT_TRUE(index.Lookup(keys[149], &v)); }), 1u);
  EXPECT_EQ(observed([&] { EXPECT_FALSE(index.Lookup(keys[199], &v)); }),
            1u);
  EXPECT_EQ(observed([&] { EXPECT_TRUE(index.Erase(keys[1])); }), 0u);

  // A scan spanning both shards observes its start key only.
  std::vector<uint64_t> out;
  EXPECT_EQ(observed([&] { EXPECT_EQ(index.Scan(keys[2], 140, &out), 140u); }),
            1u);
}

}  // namespace
}  // namespace hope::dynamic
