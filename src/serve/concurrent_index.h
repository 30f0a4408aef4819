// ConcurrentShardedIndex<Tree>: the index counterpart of the
// ShardedDictionaryManager. One VersionedIndex per shard, each behind its
// own shared_mutex: keys route through the manager's RouterVersion to the
// shard that owns their range, so a dictionary swap in shard i only opens
// a new generation in shard i's index. Within a shard HOPE encodings
// preserve order, and shard i's range precedes shard i+1's, so a scan
// that walks shards in boundary order comes back in global key order.
// Built for many reader threads and per-shard serialized writers; a
// single-threaded caller pays only uncontended locks
// (bench_micro_gbench BM_ShardedIndexOps).
//
// Read path (lock-free in shape, in the style of the btree24 optimistic
// DataStructureWrapper): routing state is published through atomic raw
// pointers guarded by the manager's EpochReclaimer — readers pin an
// ebr::Guard, load the RouterVersion (and the in-flight RebalancePlan,
// if any), and route without taking the migration lock. Shard probes
// take that shard's shared_mutex in shared mode and run
// VersionedIndex::Peek, a const lookup that moves nothing, so readers only
// ever wait on a shard's writer, never on each other and never on the
// migration of some other shard.
//
// Write path: Insert/Erase take the owning shard's lock exclusively.
// An insert validates its routing *after* acquiring the shard lock and
// re-routes if a rebalance moved the key's range in between — the lock
// order (router advance, then cursor collection under the source
// shard's lock) makes the recheck sufficient: a key inserted into a
// shard that still owns it is either caught by the migration cursor or
// was never migrated away.
//
// Migration-transparent reads: PollMigration() applies rebalance plans
// in bounded batches instead of stop-the-world. When a plan starts, the
// plan pointer is published first and then the router advances to
// plan->to, so writers immediately target the new owners while the keys
// are still moving. A lookup that misses in the new owner and whose key
// lies in a moved range falls back to the old owner (double-routing).
// Every batch commits under BOTH shard locks and bumps migration_seq_
// before unlocking; a reader that missed in both owners re-reads the
// sequence and retries if it changed — the only way a live key can miss
// both probes is a batch committing between them, and that batch bumped
// the sequence. After a bounded number of optimistic retries the reader
// falls back to probing under the migration lock, which excludes batch
// commits entirely.
//
// Erase double-routes too, and erases in *both* owners (a key can
// transiently exist in both: a fresh insert into the new owner plus a
// stale not-yet-migrated copy in the old one; the stale copy must not
// outlive the erase or the next batch would resurrect the key — though
// even then InsertIfAbsent, not Insert, is what moves keys, so a
// migrated copy can never clobber a concurrent writer's fresher value).
//
// Scan() drains: it completes any in-flight plan (cross-shard order is
// undefined mid-plan — moved ranges interleave two shards' encodings)
// and then walks shards in boundary order under exclusive locks. Short
// scans are therefore heavier than points during a rebalance; that is
// the documented trade, and bench_serving measures it.
//
// Lock order (deadlock freedom): migration_mu_ before any shard mutex;
// shard mutexes in ascending shard index when two are held (batch
// commits). Readers take only one shard lock at a time.
//
// Plans are applied only by PollMigration() (a maintenance loop runs
// `while (!MigrationIdle()) PollMigration();`) and Scan(); point
// operations never migrate. The index catches up by diffing its own
// router against the manager's current one (DiffRouters), one plan per
// catch-up however many versions behind it is, so each entry moves at
// most once and only if its owner really changed. The manager must
// outlive the index.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/epoch_reclaim.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "dynamic/sharded_manager.h"
#include "dynamic/versioned_index.h"
#include "telemetry/registry.h"
#include "telemetry/trace_log.h"

namespace hope::serve {

template <typename Tree>
class ConcurrentShardedIndex {
 public:
  /// `manager` must outlive the index. Adopts the current router.
  explicit ConcurrentShardedIndex(dynamic::ShardedDictionaryManager* manager)
      : manager_(manager) {
    router_ = manager->router();
    router_ptr_.store(router_.get(), std::memory_order_seq_cst);
    shards_.reserve(manager->num_shards());
    for (size_t i = 0; i < manager->num_shards(); i++)
      shards_.push_back(std::make_unique<Shard>(&manager->shard(i)));
  }

  ~ConcurrentShardedIndex() {
    // Straggler readers pinned before destruction may still hold the
    // raw router/plan pointers; route the final references through the
    // reclaimer so they outlive any such pin (the manager's contract).
    // The lock is held for the same reason: a maintenance poller racing
    // destruction is already UB, but holding migration_mu_ keeps the
    // mig_/router_ handoff ordered against any straggling PollMigration.
    MutexLock mlk(migration_mu_);
    inflight_plan_.store(nullptr, std::memory_order_seq_cst);
    if (mig_.plan)
      manager_->reclaimer().Retire(
          [keep = std::move(mig_.plan)]() mutable { keep.reset(); });
    manager_->reclaimer().Retire(
        [keep = std::move(router_)]() mutable { keep.reset(); });
  }

  ConcurrentShardedIndex(const ConcurrentShardedIndex&) = delete;
  ConcurrentShardedIndex& operator=(const ConcurrentShardedIndex&) = delete;

  /// Wait-free routing snapshot (shard affinity for worker queues).
  size_t Route(const std::string& key) const {
    ebr::EpochReclaimer::Guard guard(manager_->reclaimer());
    return router_ptr_.load(std::memory_order_seq_cst)->Route(key);
  }

  void Insert(const std::string& key, uint64_t value)
      HOPE_EXCLUDES(migration_mu_) {
    for (int attempt = 0; attempt < kOptimisticRetries; attempt++) {
      size_t s = Route(key);
      WriterLock lk(shards_[s]->mu);
      // Revalidate under the shard lock: if a plan advanced the router
      // after we routed, inserting here could land the key in a shard
      // whose migration cursor was already collected — stranding it on
      // the wrong side of the new boundary forever. The recheck is
      // ordered after any such cursor collection by this very lock.
      if (Route(key) == s) {
        shards_[s]->index.Insert(key, value);
        return;
      }
    }
    // Rebalances keep racing the route (pathological); pin the routing
    // state still.
    MutexLock mlk(migration_mu_);
    size_t s = Route(key);
    WriterLock lk(shards_[s]->mu);
    shards_[s]->index.Insert(key, value);
  }

  bool Lookup(const std::string& key, uint64_t* value) const
      HOPE_EXCLUDES(migration_mu_) {
    for (int attempt = 0; attempt < kOptimisticRetries; attempt++) {
      const uint64_t seq = migration_seq_.load(std::memory_order_seq_cst);
      size_t primary = 0, fallback = kNoShard;
      RouteBoth(key, &primary, &fallback);
      if (ProbeShard(primary, key, value)) return true;
      if (fallback != kNoShard && ProbeShard(fallback, key, value))
        return true;
      // No batch committed across the two probes: the missing key was
      // genuinely absent in its owner (and, if double-routed, in its
      // previous owner too) at a single point in the commit order.
      if (migration_seq_.load(std::memory_order_seq_cst) == seq)
        return false;
    }
    lookup_slow_paths_.fetch_add(1, std::memory_order_relaxed);
    MutexLock mlk(migration_mu_);
    size_t primary = 0, fallback = kNoShard;
    RouteBoth(key, &primary, &fallback);
    if (ProbeShard(primary, key, value)) return true;
    return fallback != kNoShard && ProbeShard(fallback, key, value);
  }

  bool Erase(const std::string& key) HOPE_EXCLUDES(migration_mu_) {
    for (int attempt = 0; attempt < kOptimisticRetries; attempt++) {
      const uint64_t seq = migration_seq_.load(std::memory_order_seq_cst);
      size_t primary = 0, fallback = kNoShard;
      RouteBoth(key, &primary, &fallback);
      bool erased = EraseInShard(primary, key);
      if (fallback != kNoShard) erased |= EraseInShard(fallback, key);
      if (erased) return true;
      if (migration_seq_.load(std::memory_order_seq_cst) == seq)
        return false;
    }
    MutexLock mlk(migration_mu_);
    size_t primary = 0, fallback = kNoShard;
    RouteBoth(key, &primary, &fallback);
    bool erased = EraseInShard(primary, key);
    if (fallback != kNoShard) erased |= EraseInShard(fallback, key);
    return erased;
  }

  /// Ordered scan from the first key >= start, in global key order.
  /// Serializes with migration: any in-flight plan is completed first
  /// (mid-plan cross-shard order is undefined), and no batch can commit
  /// while the scan holds the migration lock.
  size_t Scan(const std::string& start, size_t count,
              std::vector<uint64_t>* out) HOPE_EXCLUDES(migration_mu_) {
    MutexLock mlk(migration_mu_);
    ApplyAllLocked();
    size_t produced = 0;
    const size_t first = router_->Route(start);
    for (size_t s = first; s < shards_.size() && produced < count; s++) {
      WriterLock lk(shards_[s]->mu);
      dynamic::VersionedIndex<Tree>& shard = shards_[s]->index;
      shard.MigrateAll();
      std::string enc = s == first ? shard.EncodeRequest(start) : std::string();
      produced += shard.tree().Scan(enc, count - produced, out);
    }
    return produced;
  }

  /// Catches up with the manager's router in batches of at most
  /// `max_keys` keys (0 counts as 1, so every call makes progress), off
  /// the serving path (a maintenance thread loops this). Bounded work
  /// per call: readers double-route and writers re-route while a plan is
  /// mid-flight, so there is no hurry. Returns entries moved this call
  /// (0 also while another poller holds the lock).
  size_t PollMigration(size_t max_keys = 512)
      HOPE_EXCLUDES(migration_mu_) {
    if (!migration_mu_.TryLock()) return 0;
    MutexLock mlk(migration_mu_, std::adopt_lock);
    size_t moved = PollLocked(std::max<size_t>(max_keys, 1));
    if (!mig_.plan) DrainGenerationsLocked();
    return moved;
  }

  /// True when no plan is in flight and the index routes by the
  /// manager's current router.
  bool MigrationIdle() const HOPE_EXCLUDES(migration_mu_) {
    MutexLock mlk(migration_mu_);
    return !mig_.plan &&
           router_->version() == manager_->router_version();
  }

  uint64_t router_version() const {
    ebr::EpochReclaimer::Guard guard(manager_->reclaimer());
    return router_ptr_.load(std::memory_order_seq_cst)->version();
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& shard : shards_) {
      ReaderLock lk(shard->mu);
      n += shard->index.size();
    }
    return n;
  }

  size_t num_shards() const { return shards_.size(); }

  /// Sum of per-shard generation counts (== num_shards() once every
  /// shard is drained to its newest dictionary).
  size_t TotalGenerations() const {
    size_t n = 0;
    for (const auto& shard : shards_) {
      ReaderLock lk(shard->mu);
      n += shard->index.NumGenerations();
    }
    return n;
  }

  /// Lifetime counters.
  uint64_t plans_applied() const {
    return plans_applied_.load(std::memory_order_relaxed);
  }
  uint64_t entries_migrated() const {
    return entries_migrated_.load(std::memory_order_relaxed);
  }
  /// Readers that exhausted optimistic retries and took the migration
  /// lock (expected ~0; a hot counter here means batches are too small).
  uint64_t lookup_slow_paths() const {
    return lookup_slow_paths_.load(std::memory_order_relaxed);
  }

  /// Registers the migration counters (hope_migration_*,
  /// hope_lookup_slow_paths_total) on `registry` — the accessors above
  /// stay the thin views — and routes plan/batch lifecycle events to
  /// `trace`. Either sink may be null; both must outlive the index.
  /// Attach before migration polling starts.
  void AttachTelemetry(telemetry::MetricRegistry* registry,
                       telemetry::TraceLog* trace) {
    trace_.store(trace, std::memory_order_relaxed);
    if (registry == nullptr) return;
    using MK = telemetry::MetricKind;
    auto add = [&](const char* name, std::function<double()> read) {
      registrations_.push_back(registry->RegisterCallback(
          name, {}, MK::kCounter, std::move(read)));
    };
    add("hope_migration_plans_applied_total",
        [this] { return static_cast<double>(plans_applied()); });
    add("hope_migration_entries_total",
        [this] { return static_cast<double>(entries_migrated()); });
    add("hope_lookup_slow_paths_total",
        [this] { return static_cast<double>(lookup_slow_paths()); });
  }

 private:
  static constexpr size_t kNoShard = ~size_t{0};
  static constexpr int kOptimisticRetries = 8;

  struct Shard {
    explicit Shard(dynamic::DictionaryManager* manager) : index(manager) {}
    mutable SharedMutex mu;
    dynamic::VersionedIndex<Tree> index HOPE_GUARDED_BY(mu);
  };

  /// In-flight plan cursor (guarded by migration_mu_). Keys of the
  /// current move are captured once under the source shard's lock, then
  /// extracted in batches; keys erased or overwritten in between are
  /// simply skipped by ExtractKeys/InsertIfAbsent.
  struct MigrationState {
    std::shared_ptr<const dynamic::RebalancePlan> plan;
    size_t move_idx = 0;
    bool collected = false;
    std::vector<std::string> keys;
    size_t pos = 0;
  };

  /// One guard covers both loads so plan and router come from the same
  /// pinned epoch. While a plan is in flight the router is plan->to;
  /// the fallback is the key's owner under plan->from when it differs.
  void RouteBoth(const std::string& key, size_t* primary,
                 size_t* fallback) const {
    ebr::EpochReclaimer::Guard guard(manager_->reclaimer());
    *primary = router_ptr_.load(std::memory_order_seq_cst)->Route(key);
    *fallback = kNoShard;
    const dynamic::RebalancePlan* plan =
        inflight_plan_.load(std::memory_order_seq_cst);
    if (plan != nullptr) {
      size_t old_owner = plan->from->Route(key);
      if (old_owner != *primary) *fallback = old_owner;
    }
  }

  bool ProbeShard(size_t s, const std::string& key, uint64_t* value) const {
    ReaderLock lk(shards_[s]->mu);
    return shards_[s]->index.Peek(key, value);
  }

  bool EraseInShard(size_t s, const std::string& key) {
    WriterLock lk(shards_[s]->mu);
    return shards_[s]->index.Erase(key);
  }

  /// Publishes `next` and retires the previous router reference through
  /// the manager's reclaimer; the sequence bump sends optimistic
  /// readers around again.
  void PublishRouterLocked(std::shared_ptr<const dynamic::RouterVersion> next)
      HOPE_REQUIRES(migration_mu_) {
    auto old = std::move(router_);
    router_ = std::move(next);
    router_ptr_.store(router_.get(), std::memory_order_seq_cst);
    manager_->reclaimer().Retire([keep = std::move(old)]() mutable {
      keep.reset();
    });
    migration_seq_.fetch_add(1, std::memory_order_seq_cst);
  }

  /// Callable only with no plan in flight.
  void BeginPlanLocked(std::shared_ptr<const dynamic::RebalancePlan> plan)
      HOPE_REQUIRES(migration_mu_) {
    mig_ = MigrationState{};
    mig_.plan = std::move(plan);
    // Publish the plan before the router: readers must never see the
    // new routing without the double-route fallback.
    inflight_plan_.store(mig_.plan.get(), std::memory_order_seq_cst);
    PublishRouterLocked(mig_.plan->to);
    if (telemetry::TraceLog* t = trace_.load(std::memory_order_relaxed))
      t->Record(telemetry::TraceEventType::kPlanApplyBegin, -1,
                mig_.plan->to->version(), mig_.plan->moves.size());
  }

  /// Callable only with a fully-moved plan.
  void CompletePlanLocked() HOPE_REQUIRES(migration_mu_) {
    inflight_plan_.store(nullptr, std::memory_order_seq_cst);
    manager_->reclaimer().Retire(
        [keep = std::move(mig_.plan)]() mutable { keep.reset(); });
    mig_ = MigrationState{};
    plans_applied_.fetch_add(1, std::memory_order_relaxed);
    migration_seq_.fetch_add(1, std::memory_order_seq_cst);
    if (telemetry::TraceLog* t = trace_.load(std::memory_order_relaxed))
      t->Record(telemetry::TraceEventType::kPlanRetired, -1,
                router_->version());
  }

  /// One bounded unit of migration work; always makes progress (collect
  /// a cursor, commit a batch, advance a move, or complete the plan).
  //
  // NO_TSA: the batch-commit block locks both shards in ascending index
  // order via `shards_[std::min(..)]` / `shards_[std::max(..)]` aliases,
  // then touches them as `shards_[mv.from_shard]` / `shards_[mv.to_shard]`
  // — the analysis cannot prove the min/max aliases cover both names.
  // Invariant preserved: both shard locks are held (ascending order, no
  // deadlock) around every index access in that block, and migration_mu_
  // is held throughout per the REQUIRES contract.
  size_t StepLocked(size_t* budget) HOPE_REQUIRES(migration_mu_)
      HOPE_NO_THREAD_SAFETY_ANALYSIS {
    const dynamic::RebalancePlan& plan = *mig_.plan;
    if (mig_.move_idx >= plan.moves.size()) {
      CompletePlanLocked();
      return 0;
    }
    const dynamic::RebalancePlan::Move& mv = plan.moves[mig_.move_idx];
    if (!mig_.collected) {
      WriterLock lk(shards_[mv.from_shard]->mu);
      mig_.keys = shards_[mv.from_shard]->index.CollectRangeKeys(
          mv.begin, mv.bounded ? &mv.end : nullptr);
      mig_.pos = 0;
      mig_.collected = true;
      return 0;
    }
    if (mig_.pos >= mig_.keys.size()) {
      mig_.move_idx++;
      mig_.collected = false;
      mig_.keys.clear();
      return 0;
    }
    const size_t n = std::min(*budget, mig_.keys.size() - mig_.pos);
    std::vector<std::string> batch(
        mig_.keys.begin() + static_cast<long>(mig_.pos),
        mig_.keys.begin() + static_cast<long>(mig_.pos + n));
    std::vector<std::pair<std::string, uint64_t>> extracted;
    {
      // Both shard locks, ascending index; commit the batch and bump
      // the sequence BEFORE unlocking, so a reader that probed either
      // side after this batch observes the bump at validation time.
      Shard& lo = *shards_[std::min(mv.from_shard, mv.to_shard)];
      Shard& hi = *shards_[std::max(mv.from_shard, mv.to_shard)];
      WriterLock lk_lo(lo.mu);
      WriterLock lk_hi(hi.mu);
      shards_[mv.from_shard]->index.ExtractKeys(batch, &extracted);
      for (auto& [key, value] : extracted)
        shards_[mv.to_shard]->index.InsertIfAbsent(key, value);
      migration_seq_.fetch_add(1, std::memory_order_seq_cst);
    }
    mig_.pos += n;
    *budget -= n;
    entries_migrated_.fetch_add(extracted.size(), std::memory_order_relaxed);
    if (!extracted.empty()) {
      if (telemetry::TraceLog* t = trace_.load(std::memory_order_relaxed))
        t->Record(telemetry::TraceEventType::kMigrationBatch,
                  static_cast<int32_t>(mv.to_shard), extracted.size());
    }
    return extracted.size();
  }

  size_t PollLocked(size_t budget) HOPE_REQUIRES(migration_mu_) {
    size_t moved = 0;
    while (budget > 0) {
      if (!mig_.plan) {
        if (router_->version() == manager_->router_version()) break;
        BeginPlanLocked(std::make_shared<const dynamic::RebalancePlan>(
            dynamic::DiffRouters(router_, manager_->router())));
      }
      moved += StepLocked(&budget);
    }
    return moved;
  }

  /// Completes the in-flight plan and catches up to the manager's
  /// router (Scan's barrier). Each iteration finishes a plan that takes
  /// the router to the version current when it began, so this terminates
  /// unless the manager publishes faster than a plan completes.
  void ApplyAllLocked() HOPE_REQUIRES(migration_mu_) {
    while (mig_.plan || router_->version() != manager_->router_version())
      PollLocked(~size_t{0} >> 1);
  }

  /// Idle maintenance: drain multi-generation shards (dictionary
  /// hot-swaps open generations; Peek never drains) so the read path
  /// stays short. TryLock keeps this off any shard a writer is busy in;
  /// the adopting WriterLock tells the analysis the success branch
  /// holds the capability.
  void DrainGenerationsLocked() HOPE_REQUIRES(migration_mu_) {
    for (auto& shard : shards_) {
      if (!shard->mu.TryLock()) continue;
      WriterLock lk(shard->mu, std::adopt_lock);
      if (shard->index.NumGenerations() > 1) shard->index.MigrateAll();
    }
  }

  dynamic::ShardedDictionaryManager* manager_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Reader-visible routing state: raw pointers published seq_cst,
  /// pointees kept alive by router_/mig_.plan (owned under
  /// migration_mu_) and freed through the manager's reclaimer after the
  /// EBR grace period. Raw loads require a live ebr Guard
  /// (tools/check_ebr_guards.py enforces this).
  HOPE_EBR_PUBLISHED std::atomic<const dynamic::RouterVersion*> router_ptr_{
      nullptr};
  HOPE_EBR_PUBLISHED std::atomic<const dynamic::RebalancePlan*> inflight_plan_{
      nullptr};
  /// Bumped (under the shard locks involved) on every committed batch,
  /// plan begin, and plan completion — the optimistic validation token.
  mutable std::atomic<uint64_t> migration_seq_{0};

  mutable Mutex migration_mu_;  ///< plan application and scans
  std::shared_ptr<const dynamic::RouterVersion> router_
      HOPE_GUARDED_BY(migration_mu_);
  MigrationState mig_ HOPE_GUARDED_BY(migration_mu_);

  std::atomic<uint64_t> plans_applied_{0};
  std::atomic<uint64_t> entries_migrated_{0};
  mutable std::atomic<uint64_t> lookup_slow_paths_{0};

  /// Lifecycle sink (set once by AttachTelemetry, read relaxed under
  /// migration_mu_) and the metric registrations' RAII handles.
  std::atomic<telemetry::TraceLog*> trace_{nullptr};
  std::vector<telemetry::MetricRegistry::Registration> registrations_;
};

}  // namespace hope::serve
