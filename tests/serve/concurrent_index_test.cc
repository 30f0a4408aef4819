// ConcurrentShardedIndex correctness: CRUD and scans through the
// reader/writer split, and — the point of the class — migration
// transparency while a rebalance plan is applied in bounded batches:
// double-routed lookups, erases racing the migration of their own
// range, inserts landing in the post-plan owner mid-flight, and scan
// ordering across an in-flight plan. Also the paths a serving loop
// rarely takes: the boundary walk's scan edge cases, the idle refresh of
// shards whose dictionary was swapped, and an unpolled index behind
// several router publishes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "dynamic/sharded_manager.h"
#include "serve/concurrent_index.h"
#include "serve/server_loop.h"

namespace hope::serve {
namespace {

using dynamic::ShardedDictionaryManager;

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
  opts.traffic_ewma_alpha = 1.0;
  opts.min_rebalance_corpus = 16;
  opts.retrain_moved_shards = false;  // routing-only: deterministic
  return opts;
}

struct Fixture {
  std::vector<std::string> keys;
  std::unique_ptr<ShardedDictionaryManager> mgr;
  std::unique_ptr<ConcurrentShardedIndex<BTree>> index;

  explicit Fixture(size_t n = 200, size_t shards = 4) : keys(NumberedKeys(n)) {
    mgr = std::make_unique<ShardedDictionaryManager>(keys,
                                                     SmallShardOptions(shards));
    index = std::make_unique<ConcurrentShardedIndex<BTree>>(mgr.get());
    for (size_t i = 0; i < keys.size(); i++) index->Insert(keys[i], i);
  }

  /// Publishes a forced rebalance whose boundaries chase traffic on
  /// keys [lo, hi) — by default the top quarter of the key space;
  /// returns the plan (never null here).
  std::shared_ptr<const dynamic::RebalancePlan> ForcePlan(size_t lo,
                                                          size_t hi) {
    for (int round = 0; round < 5; round++)
      for (size_t i = lo; i < hi; i++) mgr->Encode(keys[i]);
    mgr->UpdateTrafficWeights();
    auto plan = mgr->RebalanceNow(/*force=*/true);
    EXPECT_NE(plan, nullptr);
    return plan;
  }
  std::shared_ptr<const dynamic::RebalancePlan> ForcePlan() {
    return ForcePlan(keys.size() * 3 / 4, keys.size());
  }

  void ExpectAllPresent(const char* where) {
    for (size_t i = 0; i < keys.size(); i++) {
      uint64_t v = ~uint64_t{0};
      ASSERT_TRUE(index->Lookup(keys[i], &v)) << where << ": " << keys[i];
      EXPECT_EQ(v, i) << where << ": " << keys[i];
    }
  }
};

TEST(ConcurrentIndexTest, InsertLookupEraseSpanShards) {
  Fixture fx;
  EXPECT_EQ(fx.index->num_shards(), 4u);
  EXPECT_EQ(fx.index->size(), fx.keys.size());
  fx.ExpectAllPresent("initial");

  uint64_t v = 0;
  EXPECT_FALSE(fx.index->Lookup("nope", &v));

  // Erase every third key; the rest survive.
  size_t erased = 0;
  for (size_t i = 0; i < fx.keys.size(); i += 3) {
    EXPECT_TRUE(fx.index->Erase(fx.keys[i]));
    erased++;
  }
  EXPECT_FALSE(fx.index->Erase(fx.keys[0]));  // already gone
  EXPECT_EQ(fx.index->size(), fx.keys.size() - erased);
  for (size_t i = 0; i < fx.keys.size(); i++) {
    EXPECT_EQ(fx.index->Lookup(fx.keys[i], &v), i % 3 != 0) << fx.keys[i];
  }

  // Overwrite updates in place.
  fx.index->Insert(fx.keys[1], 4242);
  ASSERT_TRUE(fx.index->Lookup(fx.keys[1], &v));
  EXPECT_EQ(v, 4242u);
  EXPECT_EQ(fx.index->size(), fx.keys.size() - erased);
}

TEST(ConcurrentIndexTest, ScanGlobalOrderAcrossShards) {
  Fixture fx;
  std::vector<uint64_t> out;
  EXPECT_EQ(fx.index->Scan(fx.keys[0], fx.keys.size(), &out),
            fx.keys.size());
  ASSERT_EQ(out.size(), fx.keys.size());
  for (size_t i = 0; i < out.size(); i++) EXPECT_EQ(out[i], i) << i;

  // Mid-range start, short scan.
  out.clear();
  EXPECT_EQ(fx.index->Scan(fx.keys[150], 20, &out), 20u);
  for (size_t i = 0; i < out.size(); i++) EXPECT_EQ(out[i], 150 + i);
}

TEST(ConcurrentIndexTest, BatchedMigrationKeepsEveryKeyVisible) {
  Fixture fx;
  auto plan = fx.ForcePlan();
  ASSERT_FALSE(plan->moves.empty());
  EXPECT_FALSE(fx.index->MigrationIdle());

  // Apply the plan one key per call; after EVERY batch, every key must
  // be visible through the double-routed read path — before its move
  // (old owner via fallback), after it (new owner via primary).
  size_t steps = 0;
  while (!fx.index->MigrationIdle()) {
    fx.index->PollMigration(/*max_keys=*/1);
    ASSERT_LT(++steps, 10000u) << "migration failed to make progress";
    fx.ExpectAllPresent("mid-migration");
  }
  EXPECT_GT(fx.index->entries_migrated(), 0u);
  EXPECT_EQ(fx.index->plans_applied(), 1u);
  EXPECT_EQ(fx.index->size(), fx.keys.size());
  EXPECT_EQ(fx.index->router_version(), fx.mgr->router_version());
  fx.ExpectAllPresent("post-migration");
}

TEST(ConcurrentIndexTest, ZeroBatchPollStillAppliesThePlan) {
  // ServerLoop passes Options::migration_batch through as-is, so a
  // maintenance loop configured with 0 must still finish a plan: a zero
  // batch counts as one key per call.
  Fixture fx;
  ASSERT_FALSE(fx.ForcePlan()->moves.empty());
  size_t steps = 0;
  while (!fx.index->MigrationIdle()) {
    fx.index->PollMigration(/*max_keys=*/0);
    ASSERT_LT(++steps, 10000u) << "PollMigration(0) made no progress";
  }
  EXPECT_EQ(fx.index->plans_applied(), 1u);
  EXPECT_EQ(fx.index->router_version(), fx.mgr->router_version());
  fx.ExpectAllPresent("post-migration");
}

TEST(ConcurrentIndexTest, LookupMidPlanUsesFallbackBeforeAnyBatch) {
  Fixture fx;
  auto plan = fx.ForcePlan();
  // One poll begins the plan (router advances, nothing moved yet):
  // every key in a moved range now routes primary -> new owner, which
  // is empty for it, so a hit proves the old-owner fallback ran.
  fx.index->PollMigration(/*max_keys=*/1);
  ASSERT_FALSE(fx.index->MigrationIdle());
  EXPECT_EQ(fx.index->router_version(), plan->to->version());
  size_t double_routed = 0;
  for (size_t i = 0; i < fx.keys.size(); i++) {
    if (plan->to->Route(fx.keys[i]) != plan->from->Route(fx.keys[i]))
      double_routed++;
    uint64_t v = ~uint64_t{0};
    ASSERT_TRUE(fx.index->Lookup(fx.keys[i], &v)) << fx.keys[i];
    EXPECT_EQ(v, i);
  }
  EXPECT_GT(double_routed, 0u) << "plan moved no live keys";
  // Absent keys miss cleanly through both routes.
  uint64_t v = 0;
  EXPECT_FALSE(fx.index->Lookup("zzz-absent", &v));
  while (!fx.index->MigrationIdle()) fx.index->PollMigration(64);
}

TEST(ConcurrentIndexTest, EraseRacesMigrationOfItsOwnRange) {
  Fixture fx;
  auto plan = fx.ForcePlan();
  fx.index->PollMigration(/*max_keys=*/1);  // begin plan, nothing moved
  ASSERT_FALSE(fx.index->MigrationIdle());

  // Pick a key whose owner changes under the plan.
  size_t moved_i = fx.keys.size();
  for (size_t i = 0; i < fx.keys.size(); i++)
    if (plan->to->Route(fx.keys[i]) != plan->from->Route(fx.keys[i])) {
      moved_i = i;
      break;
    }
  ASSERT_LT(moved_i, fx.keys.size());

  // Erase while the key still lives in its OLD owner (double-routed
  // erase must reach through the fallback)...
  EXPECT_TRUE(fx.index->Erase(fx.keys[moved_i]));
  uint64_t v = 0;
  EXPECT_FALSE(fx.index->Lookup(fx.keys[moved_i], &v));

  // ...and a fresh insert of the same key lands in the NEW owner.
  fx.index->Insert(fx.keys[moved_i], 777);
  ASSERT_TRUE(fx.index->Lookup(fx.keys[moved_i], &v));
  EXPECT_EQ(v, 777u);

  // Migration completes without resurrecting the erased copy or
  // clobbering the fresh insert (InsertIfAbsent on the move path).
  size_t steps = 0;
  while (!fx.index->MigrationIdle()) {
    fx.index->PollMigration(/*max_keys=*/1);
    ASSERT_LT(++steps, 10000u);
  }
  ASSERT_TRUE(fx.index->Lookup(fx.keys[moved_i], &v));
  EXPECT_EQ(v, 777u);
  EXPECT_EQ(fx.index->size(), fx.keys.size());
  for (size_t i = 0; i < fx.keys.size(); i++) {
    ASSERT_TRUE(fx.index->Lookup(fx.keys[i], &v)) << fx.keys[i];
    EXPECT_EQ(v, i == moved_i ? 777u : i);
  }
}

TEST(ConcurrentIndexTest, ScanAcrossInFlightPlanDrainsAndStaysOrdered) {
  Fixture fx;
  fx.ForcePlan();
  // Leave the plan mid-move: begin + a few one-key batches.
  for (int i = 0; i < 5; i++) fx.index->PollMigration(/*max_keys=*/1);
  ASSERT_FALSE(fx.index->MigrationIdle());

  // Scan must first complete the plan (cross-shard order is undefined
  // mid-flight), then produce the full global order.
  std::vector<uint64_t> out;
  EXPECT_EQ(fx.index->Scan(fx.keys[0], fx.keys.size(), &out),
            fx.keys.size());
  ASSERT_EQ(out.size(), fx.keys.size());
  for (size_t i = 0; i < out.size(); i++) EXPECT_EQ(out[i], i) << i;
  EXPECT_TRUE(fx.index->MigrationIdle());
  EXPECT_EQ(fx.index->plans_applied(), 1u);
}

// Two plans land before the index polls: it catches up with one diff
// from its router to the manager's current one, so a key moves only if
// its owner differs between the two ends, and at most once.
TEST(ConcurrentIndexTest, BackToBackPlansCatchUpInOneDiff) {
  Fixture fx;
  auto first = fx.ForcePlan();
  // A second plan lands while the first is unapplied; traffic hammers
  // the bottom quarter this time so boundaries swing back.
  auto second = fx.ForcePlan(0, fx.keys.size() / 4);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(fx.mgr->router_version(), 2u);
  size_t net_moves = 0;
  for (const std::string& key : fx.keys)
    if (first->from->Route(key) != second->to->Route(key)) net_moves++;
  ASSERT_GT(net_moves, 0u);

  size_t steps = 0;
  while (!fx.index->MigrationIdle()) {
    fx.index->PollMigration(/*max_keys=*/3);
    ASSERT_LT(++steps, 10000u);
    fx.ExpectAllPresent("two-plan catch-up");
  }
  EXPECT_EQ(fx.index->plans_applied(), 1u);
  EXPECT_EQ(fx.index->entries_migrated(), net_moves);
  EXPECT_EQ(fx.index->router_version(), 2u);
  EXPECT_EQ(fx.index->size(), fx.keys.size());
}

TEST(ConcurrentIndexTest, DictionarySwapMidPlanStaysConsistent) {
  Fixture fx;
  // Default behaviour retrains moved shards: epochs swap while the plan
  // is applied, so migrated keys re-encode under new dictionaries.
  // (The index must die before its manager: reset it first.)
  auto opts = SmallShardOptions(4);
  opts.retrain_moved_shards = true;
  fx.index.reset();
  fx.mgr = std::make_unique<ShardedDictionaryManager>(fx.keys, opts);
  fx.index = std::make_unique<ConcurrentShardedIndex<BTree>>(fx.mgr.get());
  for (size_t i = 0; i < fx.keys.size(); i++) fx.index->Insert(fx.keys[i], i);

  fx.ForcePlan();
  size_t steps = 0;
  while (!fx.index->MigrationIdle()) {
    fx.index->PollMigration(/*max_keys=*/7);
    ASSERT_LT(++steps, 10000u);
    fx.ExpectAllPresent("retrain mid-plan");
  }
  fx.ExpectAllPresent("retrain done");
  std::vector<uint64_t> out;
  EXPECT_EQ(fx.index->Scan(fx.keys[0], fx.keys.size(), &out),
            fx.keys.size());
  for (size_t i = 0; i < out.size(); i++) EXPECT_EQ(out[i], i) << i;
}

// Edge cases of the boundary walk: an empty mid-range shard, a zero
// count, a start at the last boundary or past every key, and a count
// that lands exactly on a shard boundary.
TEST(ConcurrentIndexTest, ScanEdgeCases) {
  Fixture fx;
  auto router = fx.mgr->router();  // pin the version; boundaries() refs it
  const auto& boundaries = router->boundaries();
  ASSERT_GE(boundaries.size(), 2u);

  // Empty mid-range shard 1 so the scan has to step over it.
  std::vector<size_t> live;  // indexes of the keys left, ascending
  size_t first_shard = 0;
  for (size_t i = 0; i < fx.keys.size(); i++) {
    const size_t s = fx.mgr->Route(fx.keys[i]);
    if (s == 1) {
      ASSERT_TRUE(fx.index->Erase(fx.keys[i]));
      continue;
    }
    live.push_back(i);
    if (s == 0) first_shard++;
  }
  ASSERT_LT(live.size(), fx.keys.size());
  ASSERT_GT(first_shard, 0u);
  auto expect_prefix = [&](const std::vector<uint64_t>& out, size_t from) {
    for (size_t i = 0; i < out.size(); i++)
      ASSERT_EQ(out[i], live[from + i]) << i;
  };

  // A count larger than everything: global order, shard 1 skipped.
  std::vector<uint64_t> out;
  EXPECT_EQ(fx.index->Scan("", fx.keys.size() * 2, &out), live.size());
  ASSERT_EQ(out.size(), live.size());
  expect_prefix(out, 0);

  // Start exactly at the last boundary: only the last shard serves.
  const size_t tail_from = static_cast<size_t>(
      std::lower_bound(live.begin(), live.end(), boundaries.back(),
                       [&](size_t i, const std::string& b) {
                         return fx.keys[i] < b;
                       }) -
      live.begin());
  out.clear();
  EXPECT_EQ(fx.index->Scan(boundaries.back(), fx.keys.size(), &out),
            live.size() - tail_from);
  expect_prefix(out, tail_from);

  // Start above every key: nothing.
  out.clear();
  EXPECT_EQ(fx.index->Scan(fx.keys.back() + "~", 5, &out), 0u);

  // A count of zero touches nothing.
  EXPECT_EQ(fx.index->Scan("", 0, &out), 0u);
  EXPECT_TRUE(out.empty());

  // A count that lands exactly on a shard boundary stops there.
  EXPECT_EQ(fx.index->Scan("", first_shard, &out), first_shard);
  ASSERT_EQ(out.size(), first_shard);
  expect_prefix(out, 0);
}

// A dictionary swap reaches only the swapped shard, and a shard that
// gets no insert (the one thing that adopts its epoch; lookups never do)
// adopts it at the next idle PollMigration.
TEST(ConcurrentIndexTest, IdlePollDrainsSwappedShardGenerations) {
  Fixture fx;
  const size_t n = fx.index->num_shards();
  EXPECT_EQ(fx.index->ShardEpochs(), std::vector<uint64_t>(n, 0));

  const size_t swapped = 2;
  std::vector<std::string> swapped_keys;
  std::vector<size_t> first_key(n, fx.keys.size());
  for (size_t i = 0; i < fx.keys.size(); i++) {
    const size_t s = fx.mgr->Route(fx.keys[i]);
    if (s == swapped) swapped_keys.push_back(fx.keys[i]);
    first_key[s] = std::min(first_key[s], i);
  }
  ASSERT_FALSE(swapped_keys.empty());
  fx.mgr->shard(swapped).Publish(
      Hope::Build(Scheme::kSingleChar, swapped_keys, 256));
  for (size_t s = 0; s < n; s++) {
    ASSERT_LT(first_key[s], fx.keys.size()) << "shard " << s;
    if (s != swapped) fx.index->Insert(fx.keys[first_key[s]], first_key[s]);
  }
  EXPECT_EQ(fx.index->ShardEpochs(), std::vector<uint64_t>(n, 0));
  fx.ExpectAllPresent("swap not adopted");

  ASSERT_TRUE(fx.index->MigrationIdle());
  EXPECT_EQ(fx.index->PollMigration(), 0u);  // no plan: refresh only
  EXPECT_EQ(fx.index->ShardEpochs(), fx.mgr->Epochs());
  EXPECT_EQ(fx.index->ShardEpochs()[swapped], 1u);
  EXPECT_EQ(fx.index->size(), fx.keys.size());
  fx.ExpectAllPresent("swap adopted");
}

// An index that is never polled pins only its own router: the manager
// keeps no plan history, so a router published after the index's and
// since superseded is freed once its grace period passes.
TEST(ConcurrentIndexTest, IdleIndexPinsNoSupersededRouter) {
  Fixture fx;
  fx.ForcePlan();
  std::weak_ptr<const dynamic::RouterVersion> middle = fx.mgr->router();
  ASSERT_EQ(middle.lock()->version(), 1u);
  ASSERT_NE(fx.ForcePlan(0, fx.keys.size() / 4), nullptr);
  EXPECT_EQ(fx.index->router_version(), 0u);

  for (int i = 0; i < 10 && !middle.expired(); i++)
    fx.mgr->reclaimer().TryReclaim();
  EXPECT_TRUE(middle.expired());
  fx.ExpectAllPresent("idle index");
}

TEST(ConcurrentIndexTest, KeyFingerprintIsOrderConsistent) {
  auto keys = NumberedKeys(50);
  for (size_t i = 1; i < keys.size(); i++)
    EXPECT_LE(KeyFingerprint(keys[i - 1]), KeyFingerprint(keys[i]));
  EXPECT_EQ(KeyFingerprint(""), 0u);
  EXPECT_LT(KeyFingerprint("a"), KeyFingerprint("b"));
  EXPECT_LT(KeyFingerprint("a"), KeyFingerprint("aa"));
}

}  // namespace
}  // namespace hope::serve
