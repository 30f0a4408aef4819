// Correctness of the versioned hot-swap: snapshots acquired before a
// swap keep decoding their own encodings, the CPR-drop trigger fires
// when it should (and its options clamp), RebuildNow improves
// compression under drift, and the VersionedIndex stays consistent
// across epochs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "btree/btree.h"
#include "datasets/datasets.h"
#include "dynamic/background_rebuilder.h"
#include "dynamic/dictionary_manager.h"
#include "dynamic/versioned_index.h"
#include "workload/drift.h"

namespace hope::dynamic {
namespace {

DriftingWorkload MakeDrift() {
  DriftOptions o;
  o.keys_per_phase = 2000;
  o.num_phases = 3;
  o.seed = 7;
  return DriftingWorkload(o);
}

DictionaryManager::Options SmallDict() {
  DictionaryManager::Options o;
  o.scheme = Scheme::kDoubleChar;
  o.dict_size_limit = size_t{1} << 12;
  o.stats.sample_every = 1;
  o.stats.reservoir_size = 1024;
  o.stats.ewma_alpha = 0.05;
  return o;
}

/// SmallDict() with the CPR-drop trigger on at 5% over >= 64 keys.
DictionaryManager::Options DropTrigger() {
  DictionaryManager::Options o = SmallDict();
  o.rebuild_cpr_drop = 0.05;
  o.rebuild_min_fill = 64;
  return o;
}

std::unique_ptr<Hope> BuildFrom(const std::vector<std::string>& keys,
                                double fraction = 0.25) {
  return Hope::Build(Scheme::kDoubleChar, SampleKeys(keys, fraction),
                     size_t{1} << 12);
}

TEST(HotSwapTest, OldSnapshotDecodesAcrossSwaps) {
  auto drift = MakeDrift();
  auto phase0 = drift.Phase(0);
  DictionaryManager mgr(BuildFrom(phase0), SmallDict(), phase0);

  DictSnapshot old_snap = mgr.Acquire();
  EXPECT_EQ(old_snap.epoch, 0u);

  // A reader encodes under epoch 0 and holds on to the snapshot.
  std::vector<std::string> keys(phase0.begin(), phase0.begin() + 200);
  std::vector<std::string> encs;
  std::vector<size_t> bits(keys.size());
  for (size_t i = 0; i < keys.size(); i++)
    encs.push_back(old_snap.hope->Encode(keys[i], &bits[i]));

  // Three consecutive swaps while the reader still holds epoch 0.
  for (int swap = 1; swap <= 3; swap++) {
    uint64_t epoch = mgr.Publish(BuildFrom(drift.Phase(2)));
    EXPECT_EQ(epoch, static_cast<uint64_t>(swap));
    EXPECT_EQ(mgr.Acquire().epoch, static_cast<uint64_t>(swap));
  }

  // The held snapshot is immutable: its encodings still decode exactly,
  // and fresh encodes through it are unchanged.
  for (size_t i = 0; i < keys.size(); i++) {
    EXPECT_EQ(old_snap.hope->Decode(encs[i], bits[i]), keys[i]);
    EXPECT_EQ(old_snap.hope->Encode(keys[i]), encs[i]);
  }

  // The new epoch's encodings differ in general but also round-trip.
  DictSnapshot fresh = mgr.Acquire();
  for (size_t i = 0; i < 50; i++) {
    size_t b = 0;
    std::string e = fresh.hope->Encode(keys[i], &b);
    EXPECT_EQ(fresh.hope->Decode(e, b), keys[i]);
  }
}

TEST(HotSwapTest, SnapshotOutlivesManager) {
  auto drift = MakeDrift();
  auto phase0 = drift.Phase(0);
  DictSnapshot snap;
  {
    DictionaryManager mgr(BuildFrom(phase0), SmallDict(), phase0);
    mgr.Publish(BuildFrom(drift.Phase(2)));
    snap = mgr.Acquire();
  }
  // The version pins its observer (the manager's collector), so encoding
  // through a snapshot after the manager died is safe (ASan-checked).
  for (size_t i = 0; i < 50; i++) {
    size_t bits = 0;
    std::string enc = snap.hope->Encode(phase0[i], &bits);
    EXPECT_EQ(snap.hope->Decode(enc, bits), phase0[i]);
  }
}

TEST(HotSwapTest, CompressionDropPolicyTriggersUnderDrift) {
  auto drift = MakeDrift();
  auto phase0 = drift.Phase(0);
  DictionaryManager mgr(BuildFrom(phase0), DropTrigger(), phase0);
  ASSERT_GT(mgr.baseline_cpr(), 1.0);

  // On-distribution traffic: the EWMA hovers at the baseline.
  for (const auto& k : phase0) mgr.Encode(k);
  EXPECT_FALSE(mgr.ShouldRebuild());

  // Drifted traffic (pure Email-B): compression degrades past 5%.
  for (const auto& k : drift.Phase(2)) mgr.Encode(k);
  EXPECT_LT(mgr.stats().EwmaCompressionRate(), mgr.baseline_cpr());
  EXPECT_TRUE(mgr.ShouldRebuild());
}

TEST(HotSwapTest, RebuildNowImprovesCompressionAndBumpsEpoch) {
  auto drift = MakeDrift();
  auto phase0 = drift.Phase(0);
  DictionaryManager mgr(BuildFrom(phase0), DropTrigger(), phase0);
  for (const auto& k : drift.Phase(2)) mgr.Encode(k);

  double stale_ewma = mgr.stats().EwmaCompressionRate();
  ASSERT_EQ(mgr.RebuildNow(), DictionaryManager::RebuildResult::kRebuilt);
  EXPECT_EQ(mgr.epoch(), 1u);
  EXPECT_EQ(mgr.rebuilds_published(), 1u);
  // The rebuilt dictionary (trained on the drifted reservoir) must beat
  // the stale dictionary's EWMA on that same traffic.
  EXPECT_GT(mgr.baseline_cpr(), stale_ewma);

  // Trigger quiet again: the fresh baseline makes ShouldRebuild false.
  EXPECT_FALSE(mgr.ShouldRebuild());
  EXPECT_EQ(mgr.RebuildNow(), DictionaryManager::RebuildResult::kNotTriggered);
}

TEST(HotSwapTest, RebuildNowWithoutDataReportsInsufficient) {
  auto phase0 = MakeDrift().Phase(0);
  DictionaryManager mgr(BuildFrom(phase0), SmallDict());
  EXPECT_EQ(mgr.RebuildNow(/*force=*/true),
            DictionaryManager::RebuildResult::kInsufficientData);
}

TEST(HotSwapTest, RejectedRebuildBacksOff) {
  auto drift = MakeDrift();
  auto phase0 = drift.Phase(0);
  auto opts = DropTrigger();
  // An unbeatable gain gate makes every candidate rejectable, and a long
  // backoff makes the suppression observable.
  opts.min_cpr_gain = 10.0;
  opts.rebuild_backoff_seconds = 3600;
  DictionaryManager mgr(BuildFrom(phase0), opts, phase0);
  for (const auto& k : drift.Phase(2)) mgr.Encode(k);
  ASSERT_TRUE(mgr.ShouldRebuild());

  EXPECT_EQ(mgr.RebuildNow(),
            DictionaryManager::RebuildResult::kRejectedNoGain);
  EXPECT_EQ(mgr.rebuilds_rejected(), 1u);
  // The trigger condition persists, but the backoff suppresses the next
  // triggered attempt (no repeated build+validate burn) and tells
  // pollers to stand down…
  EXPECT_TRUE(mgr.InBackoff());
  EXPECT_FALSE(mgr.ShouldRebuild());
  EXPECT_EQ(mgr.RebuildNow(),
            DictionaryManager::RebuildResult::kNotTriggered);
  EXPECT_EQ(mgr.rebuilds_rejected(), 1u);
  // …while force bypasses it.
  EXPECT_EQ(mgr.RebuildNow(/*force=*/true),
            DictionaryManager::RebuildResult::kRejectedNoGain);
}

TEST(HotSwapTest, PublishWithEmptyReservoirKeepsBaseline) {
  auto drift = MakeDrift();
  auto phase0 = drift.Phase(0);
  DictionaryManager mgr(BuildFrom(phase0), SmallDict(), phase0);
  double seeded = mgr.baseline_cpr();
  ASSERT_GT(seeded, 0);
  // Publishing before any traffic must not zero the baseline (which
  // would permanently disarm the CPR-drop trigger).
  mgr.Publish(BuildFrom(drift.Phase(2)));
  EXPECT_DOUBLE_EQ(mgr.baseline_cpr(), seeded);
}

TEST(HotSwapTest, VersionedIndexSurvivesSwaps) {
  auto drift = MakeDrift();
  auto phase0 = drift.Phase(0);
  DictionaryManager mgr(BuildFrom(phase0), SmallDict(), phase0);
  VersionedIndex<BTree> index(&mgr);

  // Load 300 distinct keys under epoch 0.
  std::vector<std::string> keys;
  for (const auto& k : phase0) {
    if (keys.size() >= 300) break;
    if (keys.empty() || std::find(keys.begin(), keys.end(), k) == keys.end())
      keys.push_back(k);
  }
  for (size_t i = 0; i < keys.size(); i++) index.Insert(keys[i], i);
  EXPECT_EQ(index.size(), keys.size());
  EXPECT_EQ(index.NumGenerations(), 1u);

  // Swap; index picks the new epoch up lazily.
  mgr.Publish(BuildFrom(drift.Phase(2)));
  index.Refresh();
  EXPECT_EQ(index.NumGenerations(), 2u);
  EXPECT_EQ(index.CurrentEpoch(), 1u);

  // Every key is still found through the old generation; lookups move
  // nothing, so both generations stay.
  for (size_t i = 0; i < keys.size(); i++) {
    uint64_t v = 0;
    ASSERT_TRUE(index.Peek(keys[i], &v)) << keys[i];
    EXPECT_EQ(v, i);
  }
  EXPECT_EQ(index.NumGenerations(), 2u);
  EXPECT_EQ(index.size(), keys.size());

  // MigrateAll drains the old generation into the newest one.
  EXPECT_EQ(index.MigrateAll(), keys.size());
  EXPECT_EQ(index.NumGenerations(), 1u);
  EXPECT_EQ(index.size(), keys.size());

  // Overwrites and erases work across another swap without migration.
  mgr.Publish(BuildFrom(drift.Phase(1)));
  index.Insert(keys[0], 999);
  uint64_t v = 0;
  ASSERT_TRUE(index.Peek(keys[0], &v));
  EXPECT_EQ(v, 999u);
  EXPECT_TRUE(index.Erase(keys[1]));
  EXPECT_FALSE(index.Peek(keys[1], &v));
  EXPECT_FALSE(index.Erase(keys[1]));
}

TEST(HotSwapTest, VersionedIndexMigrateAllDrainsGenerations) {
  auto drift = MakeDrift();
  auto phase0 = drift.Phase(0);
  DictionaryManager mgr(BuildFrom(phase0), SmallDict(), phase0);
  VersionedIndex<BTree> index(&mgr);

  std::vector<std::string> keys(phase0.begin(), phase0.begin() + 100);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  size_t half = keys.size() / 2;
  for (size_t i = 0; i < half; i++) index.Insert(keys[i], i);
  mgr.Publish(BuildFrom(drift.Phase(2)));
  for (size_t i = half; i < keys.size(); i++) index.Insert(keys[i], i);
  EXPECT_EQ(index.NumGenerations(), 2u);

  size_t moved = index.MigrateAll();
  EXPECT_EQ(moved, half);
  EXPECT_EQ(index.NumGenerations(), 1u);
  EXPECT_EQ(index.size(), keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    uint64_t v = 0;
    ASSERT_TRUE(index.Peek(keys[i], &v));
    EXPECT_EQ(v, i);
  }
  // Single generation again: the tree is scannable and order-preserving.
  EXPECT_EQ(index.tree().CheckInvariants(), "");
}

TEST(HotSwapTest, VersionedIndexCompactsInsertLog) {
  auto drift = MakeDrift();
  auto phase0 = drift.Phase(0);
  DictionaryManager mgr(BuildFrom(phase0), SmallDict(), phase0);
  VersionedIndex<BTree> index(&mgr);

  // 50 distinct keys overwritten 100 times each: without compaction the
  // log would hold 5000 entries; with it, it stays within 4x live + 64.
  for (int round = 0; round < 100; round++)
    for (size_t i = 0; i < 50; i++)
      index.Insert(phase0[i], static_cast<uint64_t>(round));
  EXPECT_EQ(index.size(), 50u);
  EXPECT_LE(index.LogSize(), 4 * 50 + 64 + 1);

  // Compaction must not lose migration sources: swap and drain fully.
  mgr.Publish(BuildFrom(drift.Phase(2)));
  EXPECT_EQ(index.MigrateAll(), 50u);
  for (size_t i = 0; i < 50; i++) {
    uint64_t v = 0;
    ASSERT_TRUE(index.Peek(phase0[i], &v));
    EXPECT_EQ(v, 99u);
  }
}

// Regression: migration appends must run log compaction like Insert
// appends do. Erases never shrink the log, so a newest generation whose
// keys were inserted and then erased carries a dead log; MigrateAll's
// appends must trigger the compaction that no Insert runs.
TEST(HotSwapTest, MigrationAppendsKeepInsertLogBounded) {
  auto drift = MakeDrift();
  auto phase0 = drift.Phase(0);
  DictionaryManager mgr(BuildFrom(phase0), SmallDict(), phase0);
  VersionedIndex<BTree> index(&mgr);

  std::vector<std::string> keys(phase0.begin(), phase0.begin() + 600);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  ASSERT_GT(keys.size(), 500u);
  const size_t kOld = 10;  // keys left in the old generation
  for (size_t i = 0; i < kOld; i++) index.Insert(keys[i], i);

  // Swap, then fill and empty the newest generation: its log holds
  // every erased key while its live count is 0.
  mgr.Publish(BuildFrom(drift.Phase(1)));
  for (size_t i = kOld; i < keys.size(); i++) index.Insert(keys[i], i);
  for (size_t i = kOld; i < keys.size(); i++) {
    EXPECT_TRUE(index.Erase(keys[i]));
  }
  EXPECT_EQ(index.NumGenerations(), 2u);
  EXPECT_GE(index.LogSize(), keys.size() - kOld);

  // Without compaction on migration appends the log would keep all
  // ~550 dead keys next to the 10 migrated ones.
  EXPECT_EQ(index.MigrateAll(), kOld);
  EXPECT_EQ(index.size(), kOld);
  EXPECT_LE(index.LogSize(), 4 * index.size() + 64 + 1);
  for (size_t i = 0; i < keys.size(); i++) {
    uint64_t v = 0;
    ASSERT_EQ(index.Peek(keys[i], &v), i < kOld) << keys[i];
    if (i < kOld) {
      EXPECT_EQ(v, i);
    }
  }
}

TEST(HotSwapTest, BackgroundRebuilderPublishesUnderDrift) {
  auto drift = MakeDrift();
  auto phase0 = drift.Phase(0);
  DictionaryManager mgr(BuildFrom(phase0), DropTrigger(), phase0);
  BackgroundRebuilder::Options opts;
  opts.poll_interval = std::chrono::milliseconds(5);
  BackgroundRebuilder rebuilder(&mgr, opts);

  // Feed drifted traffic until the worker swaps (bounded by iterations,
  // not wall time, so sanitizer runs don't flake).
  auto drifted = drift.Phase(2);
  for (int round = 0; round < 200 && mgr.epoch() == 0; round++) {
    for (const auto& k : drifted) mgr.Encode(k);
    rebuilder.Nudge();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  rebuilder.Stop();
  EXPECT_GE(mgr.epoch(), 1u);
  EXPECT_GE(rebuilder.rebuilds_completed(), 1u);
}

// The CPR-drop trigger's edges and option clamps. These tests drive the
// collector's observer hook directly with chosen (length, bits) pairs:
// with ewma_alpha = 1 the EWMA equals the last fed key's CPR, so each
// check sits at an exact distance from the baseline.

/// SmallDict() with the given trigger options and an EWMA that tracks
/// the last observed key exactly.
DictionaryManager::Options ExactEwma(double drop, size_t min_fill) {
  DictionaryManager::Options o = SmallDict();
  o.stats.ewma_alpha = 1.0;
  o.rebuild_cpr_drop = drop;
  o.rebuild_min_fill = min_fill;
  return o;
}

/// Feeds `n` observations of CPR `cpr` (a key of round(cpr * 10000)
/// bytes that "encoded" to 10000 bytes) and checks the EWMA landed there.
void FeedCpr(DictionaryManager& mgr, double cpr, int n = 1) {
  constexpr size_t kPadded = 10000;
  std::string key(static_cast<size_t>(std::llround(cpr * kPadded)), 'k');
  for (int i = 0; i < n; i++) mgr.stats().OnEncode(key, 8 * kPadded);
  ASSERT_NEAR(mgr.stats().EwmaCompressionRate(), cpr, 1e-4);
}

TEST(RebuildTriggerTest, FiresPastTheDropThreshold) {
  auto phase0 = MakeDrift().Phase(0);
  DictionaryManager mgr(BuildFrom(phase0), ExactEwma(0.05, 64), phase0);
  const double base = mgr.baseline_cpr();
  ASSERT_GT(base, 1.0);
  // The EWMA starts seeded at the baseline: no drop, no trigger.
  EXPECT_FALSE(mgr.ShouldRebuild());

  FeedCpr(mgr, base * 0.955, 64);  // -4.5%
  EXPECT_FALSE(mgr.ShouldRebuild());
  EXPECT_EQ(mgr.RebuildNow(), DictionaryManager::RebuildResult::kNotTriggered);
  FeedCpr(mgr, base * 0.945);  // -5.5%
  EXPECT_TRUE(mgr.ShouldRebuild());

  // Reservoir below the fill floor never triggers.
  DictionaryManager sparse(BuildFrom(phase0), ExactEwma(0.05, 64), phase0);
  FeedCpr(sparse, base * 0.5, 63);
  EXPECT_FALSE(sparse.ShouldRebuild());
  FeedCpr(sparse, base * 0.5);
  EXPECT_TRUE(sparse.ShouldRebuild());

  // No baseline yet (no baseline keys, nothing published): an unseeded
  // EWMA, then a seeded one with nothing to compare against, stay quiet.
  DictionaryManager unseeded(BuildFrom(phase0), ExactEwma(0.05, 1));
  EXPECT_EQ(unseeded.baseline_cpr(), 0.0);
  EXPECT_EQ(unseeded.stats().EwmaCompressionRate(), 0.0);
  EXPECT_FALSE(unseeded.ShouldRebuild());
  FeedCpr(unseeded, 0.5, 64);
  EXPECT_FALSE(unseeded.ShouldRebuild());
  // A publish measured on keys seeds both, arming the trigger.
  unseeded.Publish(BuildFrom(phase0), &phase0);
  ASSERT_GT(unseeded.baseline_cpr(), 1.0);
  FeedCpr(unseeded, 0.5);
  EXPECT_TRUE(unseeded.ShouldRebuild());
}

TEST(RebuildTriggerTest, ClampsDegenerateOptions) {
  auto phase0 = MakeDrift().Phase(0);
  // A drop >= 1 would make the trigger unfireable (EWMA < 0); it clamps
  // to 0.99 and still fires on a catastrophic drop.
  for (double degenerate : {1.0, 2.0, 1e9}) {
    DictionaryManager mgr(BuildFrom(phase0), ExactEwma(degenerate, 1),
                          phase0);
    const double base = mgr.baseline_cpr();
    FeedCpr(mgr, base * 0.0105);
    EXPECT_FALSE(mgr.ShouldRebuild()) << degenerate;
    FeedCpr(mgr, base * 0.0095);
    EXPECT_TRUE(mgr.ShouldRebuild()) << degenerate;
  }
  // Negative and NaN mean "off": even a catastrophic drop never
  // triggers, while a forced rebuild still runs.
  for (double off : {-0.5, -1e9, std::numeric_limits<double>::quiet_NaN()}) {
    DictionaryManager mgr(BuildFrom(phase0), ExactEwma(off, 1), phase0);
    FeedCpr(mgr, mgr.baseline_cpr() * 0.01, 64);
    EXPECT_FALSE(mgr.ShouldRebuild()) << off;
    EXPECT_EQ(mgr.RebuildNow(),
              DictionaryManager::RebuildResult::kNotTriggered)
        << off;
    EXPECT_NE(mgr.RebuildNow(/*force=*/true),
              DictionaryManager::RebuildResult::kNotTriggered)
        << off;
  }
  // A fill floor of 0 clamps to 1: an empty reservoir never triggers,
  // even with the EWMA already far below the baseline.
  DictionaryManager mgr(BuildFrom(phase0), ExactEwma(0.05, 0), phase0);
  mgr.stats().MarkRebuild(mgr.baseline_cpr() * 0.5);
  ASSERT_EQ(mgr.stats().ReservoirFill(), 0u);
  EXPECT_FALSE(mgr.ShouldRebuild());
  FeedCpr(mgr, mgr.baseline_cpr() * 0.5);
  EXPECT_TRUE(mgr.ShouldRebuild());
}

TEST(RebuildTriggerTest, OffByDefault) {
  auto drift = MakeDrift();
  auto phase0 = drift.Phase(0);
  // Default options, except that the fill floor is opened so only the
  // trigger's own default can hold it back.
  DictionaryManager::Options opts;
  opts.rebuild_min_fill = 1;
  DictionaryManager mgr(BuildFrom(phase0), opts, phase0);
  for (const auto& k : drift.Phase(2)) mgr.Encode(k);
  // Traffic that would trip a 5% trigger...
  ASSERT_LT(mgr.stats().EwmaCompressionRate(), mgr.baseline_cpr() * 0.95);
  // ...leaves the default manager alone: rebuilds are manual only.
  EXPECT_FALSE(mgr.ShouldRebuild());
  EXPECT_EQ(mgr.RebuildNow(), DictionaryManager::RebuildResult::kNotTriggered);
  EXPECT_EQ(mgr.epoch(), 0u);
  EXPECT_EQ(mgr.RebuildNow(/*force=*/true),
            DictionaryManager::RebuildResult::kRebuilt);
  EXPECT_EQ(mgr.epoch(), 1u);
}

}  // namespace
}  // namespace hope::dynamic
