// Concurrency stress for the dictionary manager: reader threads
// continuously acquire snapshots and round-trip keys through them while
// a writer publishes a stream of new dictionary versions (and, in the
// second test, while the background rebuilder swaps on its own). Run
// under ASan/UBSan in CI via the `dynamic` ctest label; any
// use-after-free of a retired version or torn snapshot shows up here.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/epoch_reclaim.h"
#include "datasets/datasets.h"
#include "dynamic/background_rebuilder.h"
#include "dynamic/dictionary_manager.h"
#include "workload/drift.h"

namespace hope::dynamic {
namespace {

DictionaryManager::Options StressOptions() {
  DictionaryManager::Options o;
  o.scheme = Scheme::kDoubleChar;
  o.dict_size_limit = size_t{1} << 12;
  o.stats.sample_every = 4;
  o.stats.reservoir_size = 512;
  // The stress tests exercise swap concurrency, not compression gains;
  // a negative gain gate lets every validated candidate publish.
  o.min_cpr_gain = -1;
  return o;
}

TEST(ManagerStressTest, ReadersSurviveConsecutivePublishes) {
  DriftOptions dopt;
  dopt.keys_per_phase = 1000;
  dopt.num_phases = 4;
  DriftingWorkload drift(dopt);
  auto phase0 = drift.Phase(0);

  // Single-Char keeps each published dictionary small (256 entries, vs
  // Double-Char's 65,792): the test exercises swap concurrency, not
  // compression, and bigger builds only slow sanitizer runs down.
  auto opts = StressOptions();
  opts.scheme = Scheme::kSingleChar;
  DictionaryManager mgr(
      Hope::Build(Scheme::kSingleChar, SampleKeys(phase0, 0.2),
                  size_t{1} << 12),
      opts, phase0);

  constexpr int kReaders = 4;
  constexpr int kSwaps = 6;  // acceptance requires >= 3 consecutive swaps
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> round_trips{0};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> max_epoch_seen{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      auto keys = drift.Phase(static_cast<size_t>(r) % drift.num_phases());
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        DictSnapshot snap = mgr.Acquire();
        const std::string& key = keys[i++ % keys.size()];
        size_t bits = 0;
        std::string enc = snap.hope->Encode(key, &bits);
        if (snap.hope->Decode(enc, bits) != key) {
          failures.fetch_add(1);
          return;
        }
        uint64_t seen = max_epoch_seen.load();
        while (snap.epoch > seen &&
               !max_epoch_seen.compare_exchange_weak(seen, snap.epoch)) {
        }
        round_trips.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
  }

  // Writer: publish kSwaps fresh dictionaries built from rotating phases
  // while the readers hammer Acquire().
  for (int s = 1; s <= kSwaps; s++) {
    auto corpus = drift.Phase(static_cast<size_t>(s) % drift.num_phases());
    uint64_t epoch = mgr.Publish(Hope::Build(
        Scheme::kSingleChar, SampleKeys(corpus, 0.2), size_t{1} << 12));
    EXPECT_EQ(epoch, static_cast<uint64_t>(s));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(round_trips.load(), 0u);
  EXPECT_EQ(mgr.epoch(), static_cast<uint64_t>(kSwaps));
  // At least one reader observed a post-swap epoch while others may still
  // have held older ones — the versions coexisted.
  EXPECT_GE(max_epoch_seen.load(), 3u);
}

TEST(ManagerStressTest, BackgroundRebuilderRacesReadersAndFeeders) {
  DriftOptions dopt;
  dopt.keys_per_phase = 800;
  dopt.num_phases = 3;
  DriftingWorkload drift(dopt);
  auto phase0 = drift.Phase(0);

  // The CPR-drop trigger under alternating traffic: feeders encode
  // phase 2 under even epochs and phase 0 under odd ones, so every
  // publish is followed by off-distribution traffic that trips the
  // trigger again and keeps the rebuilder busy for the whole test. A
  // short reservoir half-life lets each rebuild's corpus follow the
  // flip. 4-Grams dictionaries lose far more than 5% across the flip
  // (Single-Char ones only ~3%), and a build over the 512-key
  // reservoir stays cheap enough for single-core CI runners.
  auto opts = StressOptions();
  opts.scheme = Scheme::kFourGrams;
  opts.rebuild_cpr_drop = 0.05;
  opts.rebuild_min_fill = 64;
  opts.stats.reservoir_halflife = 128;
  DictionaryManager mgr(
      Hope::Build(Scheme::kFourGrams, SampleKeys(phase0, 0.2),
                  size_t{1} << 12),
      opts, phase0);
  BackgroundRebuilder::Options ropt;
  ropt.poll_interval = std::chrono::milliseconds(2);
  BackgroundRebuilder rebuilder(&mgr, ropt);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Feeders encode through the manager (driving the collector and the
  // trigger); readers verify round-trips.
  const std::vector<std::string> phases[2] = {drift.Phase(2), drift.Phase(0)};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; t++) {
    threads.emplace_back([&] {
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& keys = phases[mgr.epoch() % 2];
        mgr.Encode(keys[i++ % keys.size()]);
        // Keep the rebuilder schedulable on single-core runners.
        std::this_thread::yield();
      }
    });
  }
  for (int t = 0; t < 2; t++) {
    threads.emplace_back([&, t] {
      auto keys = drift.Phase(static_cast<size_t>(t));
      size_t i = 0;
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

  // Run until the rebuilder has swapped at least 3 times (bounded).
  for (int spins = 0; spins < 2000 && mgr.rebuilds_published() < 3; spins++)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop.store(true);
  for (auto& t : threads) t.join();
  rebuilder.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(mgr.rebuilds_published(), 3u);
  EXPECT_GE(mgr.epoch(), 3u);
  EXPECT_GE(rebuilder.rebuilds_completed(), 3u);
}

// Teardown race regression (previously only publish-vs-acquire was
// stressed): the manager is destroyed while reader threads are still
// round-tripping through snapshots they acquired moments earlier. The
// destructor retires the final version and drains the reclaimer, so a
// reader whose Acquire() was in flight when teardown began finishes its
// guard before any Version is freed, and the snapshots themselves stay
// valid past destruction via their shared_ptr. ASan/TSan turn any
// drain bug here into a hard failure.
TEST(ManagerStressTest, DestructionDrainsWhileSnapshotsAreInUse) {
  DriftOptions dopt;
  dopt.keys_per_phase = 500;
  dopt.num_phases = 2;
  DriftingWorkload drift(dopt);
  auto phase0 = drift.Phase(0);

  auto opts = StressOptions();
  opts.scheme = Scheme::kSingleChar;
  auto mgr = std::make_unique<DictionaryManager>(
      Hope::Build(Scheme::kSingleChar, SampleKeys(phase0, 0.2),
                  size_t{1} << 12),
      opts, phase0);

  constexpr int kReaders = 4;
  std::atomic<bool> stop_acquiring{false};
  std::atomic<bool> stop_all{false};
  std::atomic<int> readers_detached{0};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      auto keys = drift.Phase(static_cast<size_t>(r) % drift.num_phases());
      size_t i = 0;
      // Phase 1: hammer Acquire() until teardown is requested. The last
      // snapshot is kept for phase 2 (the initial one guarantees a live
      // snapshot even if this thread is scheduled late).
      DictSnapshot snap = mgr->Acquire();
      while (!stop_acquiring.load(std::memory_order_acquire)) {
        snap = mgr->Acquire();
        std::this_thread::yield();
      }
      readers_detached.fetch_add(1);
      // Phase 2: the manager is being destroyed RIGHT NOW on the main
      // thread; the held snapshot must keep round-tripping regardless.
      while (!stop_all.load(std::memory_order_acquire)) {
        const std::string& key = keys[i++ % keys.size()];
        size_t bits = 0;
        std::string enc = snap.hope->Encode(key, &bits);
        if (snap.hope->Decode(enc, bits) != key) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }

  // Publish a stream of versions under the readers, then tear down the
  // manager the instant the readers stop issuing new Acquires — their
  // final guards and held snapshots race the destructor's drain.
  for (int s = 1; s <= 8; s++) {
    auto corpus = drift.Phase(static_cast<size_t>(s) % drift.num_phases());
    mgr->Publish(Hope::Build(Scheme::kSingleChar, SampleKeys(corpus, 0.2),
                             size_t{1} << 12));
  }
  stop_acquiring.store(true, std::memory_order_release);
  while (readers_detached.load() < kReaders) std::this_thread::yield();
  mgr.reset();  // destructor: retire final version + Drain()
  stop_all.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// Deterministic half of the teardown fix: a version whose grace period
// had not passed when the destructor ran (a reader was pinned across
// its retirement) is still freed by the destructor's drain — observed
// through the underlying Hope's weak reference expiring.
TEST(ManagerStressTest, DestructorFreesRetiresBlockedByPinnedReaders) {
  DriftOptions dopt;
  dopt.keys_per_phase = 300;
  dopt.num_phases = 2;
  DriftingWorkload drift(dopt);
  auto phase0 = drift.Phase(0);

  auto opts = StressOptions();
  opts.scheme = Scheme::kSingleChar;
  auto mgr = std::make_unique<DictionaryManager>(
      Hope::Build(Scheme::kSingleChar, SampleKeys(phase0, 0.3),
                  size_t{1} << 12),
      opts, phase0);

  std::weak_ptr<const Hope> old_version;
  {
    DictSnapshot snap = mgr->Acquire();
    old_version = snap.hope;
  }
  {
    // Pin a guard across the publish: the epoch cannot advance, so the
    // superseded epoch-0 Version stays in limbo past the publish.
    ebr::EpochReclaimer::Guard pin(mgr->reclaimer());
    mgr->Publish(Hope::Build(Scheme::kSingleChar, SampleKeys(phase0, 0.3),
                             size_t{1} << 12));
    EXPECT_EQ(mgr->reclaimer().pending(), 1u);
  }
  EXPECT_FALSE(old_version.expired());  // still parked in limbo

  mgr.reset();  // drain must free it (and the final version)
  EXPECT_TRUE(old_version.expired());
}

}  // namespace
}  // namespace hope::dynamic
