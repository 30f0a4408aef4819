// Unit and stress coverage for the EBR primitive itself: retire/reclaim
// ordering against pinned guards, guard nesting, exact deleter
// invocation counts, and a multi-threaded publish/read stress that
// asserts memory is actually freed (reclaimed > 0), not just retained.
// Runs under the `dynamic` ctest label so the TSan CI job covers the
// pin/advance protocol.
#include "common/epoch_reclaim.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace hope::ebr {
namespace {

TEST(EpochReclaimTest, RetireWithNoReadersFreesOnNextReclaim) {
  EpochReclaimer ebr;
  int freed = 0;
  ebr.Retire([&] { freed++; });
  EXPECT_EQ(ebr.retired(), 1u);
  // The retire itself attempts two advances; with no reader pinned the
  // batch ages straight to freeable.
  EXPECT_EQ(freed, 1);
  EXPECT_EQ(ebr.reclaimed(), 1u);
  EXPECT_EQ(ebr.pending(), 0u);
}

TEST(EpochReclaimTest, GuardBlocksReclamationUntilExit) {
  EpochReclaimer ebr;
  int freed = 0;
  std::optional<EpochReclaimer::Guard> guard;
  guard.emplace(ebr);
  ebr.Retire([&] { freed++; });
  // The pinned guard predates the retire: the epoch cannot advance past
  // it, so no amount of polling frees the object.
  for (int i = 0; i < 5; i++) ebr.TryReclaim();
  EXPECT_EQ(freed, 0);
  EXPECT_EQ(ebr.pending(), 1u);

  guard.reset();  // unpin
  for (int i = 0; i < 3 && freed == 0; i++) ebr.TryReclaim();
  EXPECT_EQ(freed, 1);
  EXPECT_EQ(ebr.pending(), 0u);
}

TEST(EpochReclaimTest, NestedGuardsUnpinOnlyAtOutermostExit) {
  EpochReclaimer ebr;
  int freed = 0;
  {
    EpochReclaimer::Guard outer(ebr);
    {
      EpochReclaimer::Guard inner(ebr);
      ebr.Retire([&] { freed++; });
    }
    // Inner exit must not unpin: the outer guard still protects loads.
    for (int i = 0; i < 5; i++) ebr.TryReclaim();
    EXPECT_EQ(freed, 0);
  }
  for (int i = 0; i < 3 && freed == 0; i++) ebr.TryReclaim();
  EXPECT_EQ(freed, 1);
}

TEST(EpochReclaimTest, ReclaimOrderRespectsRetireEpochs) {
  EpochReclaimer ebr;
  int freed_old = 0, freed_new = 0;
  // Retired before any reader: freeable immediately.
  ebr.Retire([&] { freed_old++; });
  EXPECT_EQ(freed_old, 1);

  // Retired while a reader is pinned: must wait for that reader even
  // though the earlier object is long gone.
  std::optional<EpochReclaimer::Guard> guard;
  guard.emplace(ebr);
  ebr.Retire([&] { freed_new++; });
  ebr.TryReclaim();
  EXPECT_EQ(freed_new, 0);
  guard.reset();
  for (int i = 0; i < 3 && freed_new == 0; i++) ebr.TryReclaim();
  EXPECT_EQ(freed_new, 1);
}

TEST(EpochReclaimTest, PointerRetireRunsTypedDeleter) {
  EpochReclaimer ebr;
  static int destroyed;
  destroyed = 0;
  struct Tracked {
    ~Tracked() { destroyed++; }
  };
  ebr.RetireDelete(new Tracked);
  ebr.Retire(new Tracked, [](void* p) { delete static_cast<Tracked*>(p); });
  for (int i = 0; i < 3 && ebr.pending() > 0; i++) ebr.TryReclaim();
  EXPECT_EQ(destroyed, 2);
  EXPECT_EQ(ebr.reclaimed(), 2u);
}

TEST(EpochReclaimTest, EveryDeleterRunsExactlyOnceThroughDrain) {
  constexpr int kObjects = 100;
  std::vector<int> counts(kObjects, 0);
  {
    EpochReclaimer ebr;
    std::optional<EpochReclaimer::Guard> guard;
    guard.emplace(ebr);
    for (int i = 0; i < kObjects; i++)
      ebr.Retire([&counts, i] { counts[i]++; });
    EXPECT_EQ(ebr.retired(), static_cast<uint64_t>(kObjects));
    EXPECT_EQ(ebr.reclaimed(), 0u);  // reader pinned across all retires
    guard.reset();
    // Destructor drains whatever polling has not freed yet.
  }
  for (int i = 0; i < kObjects; i++) EXPECT_EQ(counts[i], 1) << i;
}

TEST(EpochReclaimTest, GuardsOnDistinctReclaimersAreIndependent) {
  EpochReclaimer a, b;
  int freed = 0;
  EpochReclaimer::Guard guard_b(b);  // pins b only
  a.Retire([&] { freed++; });
  EXPECT_EQ(freed, 1);  // a has no pinned readers
  EXPECT_EQ(b.pending(), 0u);
}

// The TSan-facing stress: readers spin loading a published pointer
// inside guards while the writer hot-swaps it across >= 100 publishes.
// Asserts the grace period holds (payload integrity) AND that memory is
// actually freed while readers are still running (reclaimed > 0 before
// teardown) — the regression the old retain-forever regime would fail.
TEST(EpochReclaimStressTest, ReadersSurviveHundredsOfPublishes) {
  constexpr uint64_t kMask = 0x5a5a5a5a5a5a5a5aull;
  struct Node {
    uint64_t serial;
    uint64_t check;  // serial ^ kMask: torn or freed reads break this
  };

  EpochReclaimer ebr;
  std::atomic<Node*> published{new Node{0, kMask}};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> reads{0};

  constexpr int kReaders = 4;
  constexpr uint64_t kPublishes = 150;

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        EpochReclaimer::Guard guard(ebr);
        Node* n = published.load(std::memory_order_seq_cst);
        if ((n->serial ^ kMask) != n->check) {
          failures.fetch_add(1);
          return;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Publish only once a reader is running: the publishes must race live
  // readers, and on a loaded host the threads may start late.
  while (reads.load() == 0 && failures.load() == 0) std::this_thread::yield();
  for (uint64_t s = 1; s <= kPublishes; s++) {
    Node* fresh = new Node{s, s ^ kMask};
    Node* old = published.exchange(fresh, std::memory_order_seq_cst);
    ebr.RetireDelete(old);
    if (s % 10 == 0) std::this_thread::yield();
  }

  // Memory must be freed WHILE readers still spin — retention is the
  // bug this subsystem exists to fix. Guards are brief, but on an
  // oversubscribed host a preempted reader can hold one for many
  // scheduler slices, so the poll is bounded by time, not by count.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (ebr.reclaimed() == 0 && std::chrono::steady_clock::now() < deadline) {
    ebr.TryReclaim();
    std::this_thread::yield();
  }
  EXPECT_GT(ebr.reclaimed(), 0u);

  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(ebr.retired(), kPublishes);

  ebr.Drain();
  EXPECT_EQ(ebr.reclaimed(), kPublishes);
  EXPECT_EQ(ebr.pending(), 0u);
  delete published.load();
}

// Threads that exit release their slots; later threads recycle them, so
// churning through many short-lived reader threads neither leaks slots
// nor corrupts the epoch protocol.
TEST(EpochReclaimStressTest, ShortLivedThreadsRecycleSlots) {
  EpochReclaimer ebr;
  std::atomic<int> freed{0};
  for (int round = 0; round < 20; round++) {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; t++) {
      threads.emplace_back([&] {
        EpochReclaimer::Guard guard(ebr);
        std::this_thread::yield();
      });
    }
    ebr.Retire([&] { freed.fetch_add(1); });
    for (auto& t : threads) t.join();
  }
  ebr.Drain();
  EXPECT_EQ(freed.load(), 20);
}

// The slot list compacts, not just recycles: after waves of wide thread
// fan-out die down, the list shrinks back to the recycling cushion
// instead of staying at the historical peak. A long-running server that
// once burst to hundreds of reader threads must not scan hundreds of
// slots on every Retire forever after.
TEST(EpochReclaimStressTest, SlotListShrinksAfterThreadChurn) {
  EpochReclaimer ebr;
  const size_t kWave = 24;
  for (int round = 0; round < 8; round++) {
    std::vector<std::thread> threads;
    std::atomic<size_t> inside{0};
    std::atomic<bool> release{false};
    for (size_t t = 0; t < kWave; t++) {
      threads.emplace_back([&] {
        EpochReclaimer::Guard guard(ebr);
        inside.fetch_add(1);
        while (!release.load()) std::this_thread::yield();
      });
    }
    // Hold all guards at once so the wave genuinely needs kWave slots.
    while (inside.load() < kWave) std::this_thread::yield();
    EXPECT_GE(ebr.slot_count(), kWave);
    release.store(true);
    for (auto& t : threads) t.join();
    ebr.TryReclaim();  // compaction runs on the reclaim path
  }
  // Everything released: the list holds at most the recycling cushion
  // (a small constant), not the kWave peak.
  ebr.TryReclaim();
  EXPECT_LE(ebr.slot_count(), 8u);
  // The survivors still work.
  {
    EpochReclaimer::Guard guard(ebr);
  }
  ebr.Retire([] {});
  ebr.Drain();
}

}  // namespace
}  // namespace hope::ebr
