// Bounded-memory regression tests for the epoch-reclaimed hot-swap
// paths: where the seed behavior grew linearly (every dictionary
// Version retained by outstanding shared_ptrs until quiesce, every
// RouterVersion and RebalancePlan retained for the manager's lifetime),
// these stress runs drive >= 1000 publish / rebalance cycles with
// readers spinning and assert — via the reclaimer's retired/reclaimed
// counters and the plan-history length — that live garbage stays flat.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "common/epoch_reclaim.h"
#include "dynamic/background_rebuilder.h"
#include "dynamic/dictionary_manager.h"
#include "dynamic/sharded_manager.h"
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

// 1000 dictionary publishes against spinning readers: every superseded
// Version is retired and freed while the run is still going. The seed
// regime (atomic<shared_ptr> with no reclamation pressure, or
// retain-forever) would hold all 1000.
TEST(ReclaimStressTest, ThousandPublishesKeepLiveVersionsBounded) {
  auto keys = PrefixedKeys('k', 64);
  DictionaryManager::Options opts;
  opts.scheme = Scheme::kSingleChar;
  opts.dict_size_limit = 256;
  DictionaryManager mgr(Hope::Build(Scheme::kSingleChar, keys, 256), opts,
                        keys);
  // A pre-built template keeps the loop cost at Clone(), not Build().
  std::unique_ptr<Hope> base = Hope::Build(Scheme::kSingleChar, keys, 256);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; r++) {
    readers.emplace_back([&, r] {
      size_t i = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        DictSnapshot snap = mgr.Acquire();
        const std::string& key = keys[i++ % keys.size()];
        size_t bits = 0;
        std::string enc = snap.hope->Encode(key, &bits);
        if (snap.hope->Decode(enc, bits) != key) {
          failures.fetch_add(1);
          return;
        }
        std::this_thread::yield();
      }
    });
  }

  constexpr uint64_t kPublishes = 1000;
  uint64_t max_pending = 0;
  for (uint64_t s = 0; s < kPublishes; s++) {
    mgr.Publish(base->Clone());
    max_pending = std::max(max_pending, mgr.reclaimer().pending());
  }

  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mgr.epoch(), kPublishes);
  EXPECT_EQ(mgr.reclaimer().retired(), kPublishes);
  // Readers pin only across a snapshot copy, so the limbo list never
  // builds up more than a handful of versions — far from the linear
  // growth the retain-forever regime shows at 1000 publishes.
  EXPECT_LT(max_pending, 256u);
  // With the readers gone a final poll frees everything retired.
  for (int i = 0; i < 10 && mgr.reclaimer().pending() > 0; i++)
    mgr.reclaimer().TryReclaim();
  EXPECT_EQ(mgr.reclaimer().reclaimed(), kPublishes);
}

// 1000 forced rebalances with a registered index that applies each plan
// as it lands, and spinning Route() readers: superseded RouterVersions
// and completed plans are retired and freed, and the plan history
// hovers at <= 2 entries instead of accumulating 1000 plans.
TEST(ReclaimStressTest, ThousandRebalancesKeepRoutersAndPlansBounded) {
  auto set_a = PrefixedKeys('a', 64);
  auto set_b = PrefixedKeys('b', 64);

  ShardedDictionaryManager::Options opts;
  opts.num_shards = 2;
  opts.shard.scheme = Scheme::kSingleChar;
  opts.shard.dict_size_limit = 256;
  opts.min_shard_sample = 8;
  opts.min_rebalance_corpus = 16;
  opts.retrain_moved_shards = false;  // router-only cycles
  ShardedDictionaryManager mgr(set_a, opts);
  serve::ConcurrentShardedIndex<BTree> index(&mgr);
  for (size_t i = 0; i < 20; i++) index.Insert(set_a[i], i);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&, r] {
      size_t i = static_cast<size_t>(r);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& key = set_b[i++ % set_b.size()];
        if (mgr.Route(key) >= mgr.num_shards()) return;  // impossible
        std::this_thread::yield();
      }
    });
  }

  constexpr uint64_t kCycles = 1000;
  uint64_t published = 0;
  uint64_t max_pending = 0, max_plans = 0;
  for (uint64_t c = 0; c < kCycles; c++) {
    // Alternating reservoir contents flip the derived boundary between
    // the two key families, so every forced cycle publishes a plan.
    const auto& seed = (c % 2 == 0) ? set_b : set_a;
    for (size_t s = 0; s < mgr.num_shards(); s++)
      mgr.shard(s).stats().SeedReservoir(seed);
    auto plan = mgr.RebalanceNow(/*force=*/true);
    ASSERT_NE(plan, nullptr) << "cycle " << c;
    published++;
    // Apply + release the plan pin, as a serving maintenance loop does.
    while (!index.MigrationIdle()) index.PollMigration();
    max_pending = std::max(max_pending, mgr.reclaimer().pending());
    max_plans = std::max(max_plans, static_cast<uint64_t>(
                                        mgr.plans_retained()));
  }

  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(published, kCycles);
  EXPECT_EQ(mgr.rebalances_published(), kCycles);
  EXPECT_EQ(mgr.router_version(), kCycles);
  EXPECT_EQ(index.router_version(), kCycles);
  EXPECT_EQ(index.size(), 20u);

  // Each cycle retires three objects: the manager's old router, the
  // index's handoff of its old router, and the completed plan. All are
  // retired, live garbage stays bounded, and all are freed at the end.
  EXPECT_EQ(mgr.reclaimer().retired(), 3 * kCycles);
  EXPECT_LT(max_pending, 256u);
  for (int i = 0; i < 10 && mgr.reclaimer().pending() > 0; i++)
    mgr.reclaimer().TryReclaim();
  EXPECT_EQ(mgr.reclaimer().reclaimed(), mgr.reclaimer().retired());

  // Plans: the synced index keeps the history at a couple of entries;
  // 1000 cycles pruned ~1000 plans instead of retaining them.
  EXPECT_LE(max_plans, 2u);
  EXPECT_EQ(mgr.plans_retained(), 0u);
  EXPECT_EQ(mgr.plans_pruned(), kCycles);

  // All entries still resolve after 1000 migration-bearing plans.
  for (size_t i = 0; i < 20; i++) {
    uint64_t v = 0;
    ASSERT_TRUE(index.Lookup(set_a[i], &v)) << set_a[i];
    EXPECT_EQ(v, i);
  }
}

// The worker loop's per-cycle TryReclaim frees retires that were
// blocked by a pinned reader at publish time, even when no further
// publish ever runs — an idle manager must not park garbage forever.
TEST(ReclaimStressTest, BackgroundWorkerReclaimsIdleGarbage) {
  auto keys = PrefixedKeys('k', 64);
  DictionaryManager::Options opts;
  opts.scheme = Scheme::kSingleChar;
  opts.dict_size_limit = 256;
  DictionaryManager mgr(Hope::Build(Scheme::kSingleChar, keys, 256), opts,
                        keys);

  {
    // A pinned guard across the publish forces the retired version to
    // stay in limbo: the publish's own advance attempts are vetoed.
    ebr::EpochReclaimer::Guard pin(mgr.reclaimer());
    mgr.Publish(Hope::Build(Scheme::kSingleChar, keys, 256));
    EXPECT_EQ(mgr.reclaimer().pending(), 1u);
  }
  EXPECT_EQ(mgr.reclaimer().pending(), 1u);  // unpin alone frees nothing

  BackgroundRebuilder::Options ropt;
  ropt.poll_interval = std::chrono::milliseconds(2);
  BackgroundRebuilder rebuilder(&mgr, ropt);
  for (int i = 0; i < 2000 && mgr.reclaimer().pending() > 0; i++)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  rebuilder.Stop();

  EXPECT_EQ(mgr.reclaimer().pending(), 0u);
  EXPECT_GE(rebuilder.versions_reclaimed(), 1u);
}

}  // namespace
}  // namespace hope::dynamic
