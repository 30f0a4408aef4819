// Serving-layer race stress (built for TSan): reader threads hammer
// double-routed lookups and writers churn inserts/erases while the main
// thread forces rebalance after rebalance (alternating hotspots, so
// ranges move back and forth, with dictionary retrains on moved shards)
// and a maintenance thread applies the plans in small batches. The
// invariant under all interleavings: a key that is never erased is
// always visible with its exact value, scans stay ordered, and nothing
// trips TSan/ASan. A third case checks final values: writers that own
// disjoint keys write unique values and erase while shard dictionaries
// swap and rebalances move ranges, and at the end each key holds its
// owner's last write, or is absent if that was an erase.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "dynamic/sharded_manager.h"
#include "serve/concurrent_index.h"
#include "serve/server_loop.h"

namespace hope::serve {
namespace {

using dynamic::ShardedDictionaryManager;

std::vector<std::string> PrefixedKeys(const char* prefix, size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; i++) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%s%04zu", prefix, i);
    keys.push_back(buf);
  }
  return keys;
}

TEST(ServeStressTest, ReadersStayConsistentUnderContinuousRebalance) {
  const size_t kStable = 300;
  const size_t kChurn = 100;
  const int kRebalances = 12;
  const int kReaders = 4;

  auto stable = PrefixedKeys("key", kStable);
  auto churn = PrefixedKeys("mov", kChurn);
  std::vector<std::string> corpus = stable;
  corpus.insert(corpus.end(), churn.begin(), churn.end());

  ShardedDictionaryManager::Options opts;
  opts.num_shards = 4;
  opts.shard.scheme = Scheme::kSingleChar;
  opts.shard.dict_size_limit = 256;
  opts.shard.stats.sample_every = 1;
  opts.min_shard_sample = 8;
  opts.traffic_ewma_alpha = 1.0;
  opts.min_rebalance_corpus = 16;
  // Default retrain stays on: rebalances also swap dictionaries on the
  // moved shards, so shards rebuild under new dictionaries mid-stress.
  ShardedDictionaryManager mgr(corpus, opts);
  ConcurrentShardedIndex<BTree> index(&mgr);

  for (const auto& k : stable) index.Insert(k, KeyFingerprint(k));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> value_failures{0};
  std::atomic<uint64_t> miss_failures{0};
  std::atomic<uint64_t> scan_violations{0};
  std::atomic<uint64_t> lookups{0};

  std::vector<std::thread> threads;
  // Readers: stable keys must always hit with the exact fingerprint;
  // churn keys may hit or miss, but a hit must carry the fingerprint.
  for (int r = 0; r < kReaders; r++) {
    threads.emplace_back([&, r] {
      size_t i = static_cast<size_t>(r) * 37;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& k = stable[i % stable.size()];
        uint64_t v = 0;
        if (!index.Lookup(k, &v))
          miss_failures.fetch_add(1, std::memory_order_relaxed);
        else if (v != KeyFingerprint(k))
          value_failures.fetch_add(1, std::memory_order_relaxed);
        const std::string& c = churn[i % churn.size()];
        if (index.Lookup(c, &v) && v != KeyFingerprint(c))
          value_failures.fetch_add(1, std::memory_order_relaxed);
        lookups.fetch_add(2, std::memory_order_relaxed);
        i++;
      }
    });
  }
  // Writer: insert/erase churn keys in rolling waves.
  threads.emplace_back([&] {
    size_t wave = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& c : churn) {
        if (stop.load(std::memory_order_relaxed)) return;
        if (wave % 2 == 0)
          index.Insert(c, KeyFingerprint(c));
        else
          index.Erase(c);
      }
      wave++;
    }
  });
  // Scanner: short ordered scans from rotating stable starts.
  threads.emplace_back([&] {
    std::vector<uint64_t> out;
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      out.clear();
      index.Scan(stable[(i * 31) % stable.size()], 16, &out);
      for (size_t j = 1; j < out.size(); j++)
        if (out[j] < out[j - 1])
          scan_violations.fetch_add(1, std::memory_order_relaxed);
      i++;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  // Maintenance: apply plans in small batches, as a server would.
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (index.PollMigration(/*max_keys=*/32) == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  // Main: force rebalances with alternating hotspots so ranges move
  // back and forth between shards while everything above runs.
  for (int round = 0; round < kRebalances; round++) {
    const bool low = round % 2 == 0;
    for (int rep = 0; rep < 5; rep++)
      for (size_t i = 0; i < corpus.size() / 4; i++)
        mgr.Encode(low ? corpus[i] : corpus[corpus.size() - 1 - i]);
    mgr.UpdateTrafficWeights();
    mgr.RebalanceNow(/*force=*/true);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Let the last plans apply while traffic keeps flowing.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(miss_failures.load(), 0u);
  EXPECT_EQ(value_failures.load(), 0u);
  EXPECT_EQ(scan_violations.load(), 0u);
  EXPECT_GT(lookups.load(), 0u);

  // Quiesce and verify the final state exactly.
  size_t guard = 0;
  while (!index.MigrationIdle()) {
    index.PollMigration(1024);
    ASSERT_LT(++guard, 100000u);
  }
  for (const auto& k : stable) {
    uint64_t v = 0;
    ASSERT_TRUE(index.Lookup(k, &v)) << k;
    EXPECT_EQ(v, KeyFingerprint(k)) << k;
  }
  std::vector<uint64_t> out;
  EXPECT_GE(index.Scan(stable[0], kStable, &out), 1u);
  for (size_t j = 1; j < out.size(); j++) EXPECT_GE(out[j], out[j - 1]);
  EXPECT_GT(index.plans_applied(), 0u);
}

TEST(ServeStressTest, ServerLoopServesThroughForcedRebalances) {
  const size_t kKeys = 400;
  auto keys = PrefixedKeys("key", kKeys);

  ShardedDictionaryManager::Options opts;
  opts.num_shards = 4;
  opts.shard.scheme = Scheme::kSingleChar;
  opts.shard.dict_size_limit = 256;
  opts.shard.stats.sample_every = 1;
  opts.min_shard_sample = 8;
  opts.traffic_ewma_alpha = 1.0;
  opts.min_rebalance_corpus = 16;
  ShardedDictionaryManager mgr(keys, opts);
  ConcurrentShardedIndex<BTree> index(&mgr);

  ServerLoop<BTree>::Options loop_opts;
  loop_opts.num_workers = 3;
  loop_opts.queue_capacity = 64;
  loop_opts.pin_workers = false;
  loop_opts.migration_batch = 32;
  ServerLoop<BTree> loop(&index, loop_opts);

  for (const auto& k : keys) {
    Request req;
    req.op = Request::Op::kInsert;
    req.key = k;
    req.value = KeyFingerprint(k);
    loop.Submit(std::move(req));
  }
  loop.WaitIdle();

  // Interleave checked lookups and scans with forced rebalances; the
  // loop's own maintenance thread migrates underneath.
  for (int round = 0; round < 6; round++) {
    for (int rep = 0; rep < 5; rep++)
      for (size_t i = 0; i < kKeys / 4; i++)
        mgr.Encode(round % 2 == 0 ? keys[i] : keys[kKeys - 1 - i]);
    mgr.UpdateTrafficWeights();
    mgr.RebalanceNow(/*force=*/true);
    for (size_t i = 0; i < kKeys; i++) {
      Request req;
      req.op = Request::Op::kLookup;
      req.check = true;
      req.key = keys[i];
      loop.Submit(std::move(req));
      if (i % 50 == 0) {
        Request scan;
        scan.op = Request::Op::kScan;
        scan.check = true;
        scan.key = keys[i];
        scan.scan_count = 20;
        loop.Submit(std::move(scan));
      }
    }
    loop.WaitIdle();
  }

  OpStats lk = loop.Snapshot(Request::Op::kLookup);
  EXPECT_EQ(lk.ops, 6u * kKeys);
  EXPECT_EQ(lk.hits, 6u * kKeys) << "lookup missed during rebalance";
  EXPECT_EQ(lk.check_failures, 0u);
  OpStats sc = loop.Snapshot(Request::Op::kScan);
  EXPECT_EQ(sc.scan_order_violations, 0u);
  EXPECT_GT(sc.ops, 0u);
  loop.Stop();
  EXPECT_EQ(index.size(), kKeys);
}

TEST(ServeStressTest, FinalValuesSurviveShardSwaps) {
  const int kWriters = 3;
  const size_t kKeysPerWriter = 64;
  const int kMinOpsPerWriter = 2000;
  const int kSwaps = 40;
  constexpr uint64_t kAbsent = ~uint64_t{0};

  std::vector<std::vector<std::string>> owned;
  std::vector<std::string> corpus;
  for (int t = 0; t < kWriters; t++) {
    const std::string prefix = "w" + std::to_string(t) + "-";
    owned.push_back(PrefixedKeys(prefix.c_str(), kKeysPerWriter));
    corpus.insert(corpus.end(), owned.back().begin(), owned.back().end());
  }
  ShardedDictionaryManager::Options opts;
  opts.num_shards = 4;
  opts.shard.scheme = Scheme::kSingleChar;
  opts.shard.dict_size_limit = 256;
  opts.shard.stats.sample_every = 1;
  opts.min_shard_sample = 8;
  opts.traffic_ewma_alpha = 1.0;
  opts.min_rebalance_corpus = 16;
  ShardedDictionaryManager mgr(corpus, opts);
  ConcurrentShardedIndex<BTree> index(&mgr);

  // Two dictionaries with different codes to swap in turn: one trained
  // on the keys, one on unrelated text.
  auto other = PrefixedKeys("zebra/quux?", 200);
  const std::unique_ptr<Hope> dicts[] = {
      Hope::Build(Scheme::kSingleChar, corpus, 256),
      Hope::Build(Scheme::kSingleChar, other, 256)};

  // last[t][k]: the value writer t last wrote to its key k, or kAbsent.
  std::vector<std::vector<uint64_t>> last(
      kWriters, std::vector<uint64_t>(kKeysPerWriter, kAbsent));
  std::atomic<bool> swapping{true};
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&, t] {
      std::mt19937_64 rng(100 + static_cast<uint64_t>(t));
      // Writes keep going until the swaps are over.
      for (int seq = 0; seq < kMinOpsPerWriter ||
                        swapping.load(std::memory_order_relaxed);
           seq++) {
        const size_t k = rng() % kKeysPerWriter;
        if (rng() % 5 == 0) {
          index.Erase(owned[t][k]);
          last[t][k] = kAbsent;
        } else {
          const uint64_t value = (static_cast<uint64_t>(t) << 32) |
                                 static_cast<uint64_t>(seq);
          index.Insert(owned[t][k], value);
          last[t][k] = value;
        }
      }
    });
  }
  // Readers and scans run alongside, for the race detectors.
  std::thread reader([&] {
    std::vector<uint64_t> out;
    size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      uint64_t v = 0;
      index.Lookup(corpus[i % corpus.size()], &v);
      if (i % 64 == 0) {
        out.clear();
        index.Scan(corpus[(i * 7) % corpus.size()], 32, &out);
      }
      i++;
    }
  });
  // Idle polls: apply plans and adopt swaps on shards nobody writes to.
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (index.PollMigration(/*max_keys=*/16) == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  // Main: force a publish on one shard at a time, and every fourth
  // round a rebalance toward alternating ends of the key space.
  for (int round = 0; round < kSwaps; round++) {
    const size_t s = static_cast<size_t>(round) % mgr.num_shards();
    mgr.shard(s).Publish(dicts[round % 2]->Clone());
    if (round % 4 == 3) {
      const bool low = round % 8 == 3;
      for (size_t i = 0; i < corpus.size() / 4; i++)
        mgr.Encode(low ? corpus[i] : corpus[corpus.size() - 1 - i]);
      mgr.UpdateTrafficWeights();
      mgr.RebalanceNow(/*force=*/true);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  swapping.store(false);
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  poller.join();

  size_t guard = 0;
  while (!index.MigrationIdle()) {
    index.PollMigration(1024);
    ASSERT_LT(++guard, 100000u);
  }
  std::map<std::string, uint64_t> want;
  for (int t = 0; t < kWriters; t++) {
    for (size_t k = 0; k < kKeysPerWriter; k++) {
      uint64_t v = kAbsent;
      const bool found = index.Lookup(owned[t][k], &v);
      if (last[t][k] == kAbsent) {
        EXPECT_FALSE(found) << owned[t][k] << " resurrected as " << v;
      } else {
        EXPECT_TRUE(found) << owned[t][k] << " lost";
        EXPECT_EQ(v, last[t][k]) << owned[t][k];
        want[owned[t][k]] = last[t][k];
      }
    }
  }
  EXPECT_EQ(index.size(), want.size());
  // A full scan returns exactly the surviving values, in key order.
  std::vector<uint64_t> out;
  EXPECT_EQ(index.Scan("", corpus.size() + 1, &out), want.size());
  std::vector<uint64_t> expected;
  for (const auto& [key, value] : want) expected.push_back(value);
  EXPECT_EQ(out, expected);
  EXPECT_GT(mgr.rebalances_published(), 0u);
}

}  // namespace
}  // namespace hope::serve
