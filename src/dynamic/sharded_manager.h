// Per-key-range sharding of the dynamic dictionary manager, with online
// shard re-balancing.
//
// A single global DictionaryManager forces a whole-corpus rebuild even
// when only one key region drifted (the fig-15 experiment drifts one
// email-provider region while the rest of the keyspace stays stable).
// Sharding localizes maintenance to what actually changed:
//
//   RouterVersion    — an immutable set of N-1 range boundaries plus a
//                      version number. The initial version derives
//                      equal-weight quantiles from the build sample;
//                      later versions are re-derived from live traffic.
//                      Route(key) is a binary search.
//   ShardedDictionaryManager
//                    — one DictionaryManager per range, each with its own
//                      epoch counter, stats collector, and CPR-drop
//                      trigger, so drift in one range triggers a rebuild
//                      of only that shard's dictionary. The current
//                      RouterVersion is published through an atomic raw
//                      pointer under epoch-based reclamation (common/
//                      epoch_reclaim.h): Route()/router_version() pin an
//                      ebr::Guard around a wait-free pointer load, and a
//                      rebalance retires the superseded version, which
//                      is freed once the grace period passes AND every
//                      shared_ptr holder (plans, lagging indexes) lets
//                      go — instead of the old retain-forever list that
//                      leaked a version per rebalance for the manager's
//                      lifetime.
//   rebalance trigger (Options::rebalance_*)
//                    — decides, from per-shard encode-count EWMA traffic
//                      weights, when the load skew warrants re-deriving
//                      boundaries; RebalanceNow() computes equal-weight
//                      boundaries from the union of the per-shard
//                      reservoirs and publishes the next RouterVersion
//                      together with a RebalancePlan describing which key
//                      ranges change owner.
//   BackgroundRebuilder (background_rebuilder.h)
//                    — a single shared worker loop polls every shard's
//                      rebuild trigger and the manager's rebalance
//                      trigger.
//
// A rebalance moves only routing, never dictionaries: shards that keep
// their range keep their epochs and dictionaries untouched, and a reader
// that routed through the previous RouterVersion keeps encoding through
// the shard it picked (every shard dictionary encodes every key; only
// compression quality is range-tuned). Index entries do have to follow
// their new owner — ConcurrentShardedIndex::PollMigration
// (serve/concurrent_index.h) diffs its own router against the current
// one and migrates the moved ranges.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/epoch_reclaim.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "dynamic/dictionary_manager.h"

namespace hope::dynamic {

/// An immutable, versioned set of range boundaries mapping keys to shard
/// indices. Version 0 derives equal-weight quantiles from a build
/// sample; re-balanced versions are built from explicit boundaries.
/// Immutable after construction, so a shared_ptr<const RouterVersion>
/// snapshot can be read concurrently with a router swap.
class RouterVersion {
 public:
  /// Derives min(num_shards, distinct quantile keys + 1) ranges from the
  /// sample: boundary i is the sorted sample's (i+1)/N quantile, so each
  /// shard covers an equal share of the sample's weight. `num_shards` is
  /// clamped to >= 1; duplicate quantile keys collapse (a sample with one
  /// distinct key yields a single range). An empty sample yields a single
  /// range covering everything.
  RouterVersion(std::vector<std::string> sample, size_t num_shards);

  /// A re-derived router: `boundaries` must be sorted and strictly
  /// increasing (the manager's boundary derivation guarantees this).
  RouterVersion(uint64_t version, std::vector<std::string> boundaries)
      : version_(version), boundaries_(std::move(boundaries)) {}

  /// Shard index for a key: the number of boundaries <= key. Keys below
  /// every boundary go to shard 0; a key equal to boundary i belongs to
  /// shard i+1 (boundaries are inclusive starts of their range).
  size_t Route(std::string_view key) const {
    auto it = std::upper_bound(
        boundaries_.begin(), boundaries_.end(), key,
        [](std::string_view k, const std::string& b) {
          return k < std::string_view(b);
        });
    return static_cast<size_t>(it - boundaries_.begin());
  }

  /// Monotonically increasing across publishes; 0 = built from sample.
  uint64_t version() const { return version_; }

  size_t num_ranges() const { return boundaries_.size() + 1; }

  /// Sorted, strictly increasing; boundaries()[i] is the first key of
  /// shard i+1. Size num_ranges() - 1.
  const std::vector<std::string>& boundaries() const { return boundaries_; }

 private:
  uint64_t version_ = 0;
  std::vector<std::string> boundaries_;
};

/// The key ranges that change owner between two router versions, as
/// computed by DiffRouters(). RebalanceNow() returns the plan of its own
/// publish; ConcurrentShardedIndex::PollMigration() diffs the index's
/// router against the manager's current one, however many versions
/// apart, and migrates the moved entries. Shards not named in any move
/// keep their range (and their dictionaries and epochs) untouched.
struct RebalancePlan {
  struct Move {
    size_t from_shard = 0;
    size_t to_shard = 0;
    std::string begin;   ///< inclusive first key of the moved range
    std::string end;     ///< exclusive end; meaningful only when bounded
    bool bounded = true; ///< false: the range extends to +infinity
  };

  std::shared_ptr<const RouterVersion> from;  ///< router before the swap
  std::shared_ptr<const RouterVersion> to;    ///< router after the swap
  std::vector<Move> moves;                    ///< in ascending key order

  bool empty() const { return moves.empty(); }
};

/// Equal-weight boundary derivation over a weighted key multiset: cuts
/// `num_ranges` ranges so each holds ~1/num_ranges of the total weight.
/// Duplicate keys merge their weight; boundaries are strictly increasing
/// and never equal to the smallest key (shard 0 must own a non-empty
/// range), so fewer than num_ranges - 1 boundaries come back when the
/// key set cannot support them. Exposed for tests.
std::vector<std::string> DeriveWeightedBoundaries(
    std::vector<std::pair<std::string, double>> weighted, size_t num_ranges);

/// Diffs two routers into the elementary key ranges whose owner changes
/// (ranges between consecutive merged boundaries, ascending). Any two
/// versions work, so an index several publishes behind catches up with
/// one plan.
RebalancePlan DiffRouters(std::shared_ptr<const RouterVersion> from,
                          std::shared_ptr<const RouterVersion> to);

/// A DictionaryManager per key range. Each shard's dictionary is built
/// from the sample keys routed to it (falling back to the whole sample
/// when a partition is too small to train on), and each shard runs its
/// own EncodeStatsCollector and CPR-drop trigger (Options::shard), so
/// rebuild decisions are per-range: traffic drifting inside shard i trips
/// shard i's trigger and leaves every other shard's epoch untouched.
///
/// The shard count is fixed at construction; what moves under load is
/// the routing. PollRebalance() (called by BackgroundRebuilder's worker)
/// folds per-shard encode counts into EWMA traffic weights, checks the
/// rebalance trigger (Options::rebalance_*), and when it fires publishes
/// a re-derived RouterVersion plus the RebalancePlan an index needs to
/// migrate the moved ranges.
class ShardedDictionaryManager {
 public:
  /// The rebalance trigger fires only after this many consecutive skewed
  /// polls (hysteresis: one skewed poll after a traffic burst doesn't
  /// thrash the router).
  static constexpr uint32_t kRebalanceConsecutivePolls = 2;

  struct Options {
    size_t num_shards = 4;              ///< requested; router may collapse
    DictionaryManager::Options shard;   ///< applied to every shard manager
    /// A shard whose sample partition has fewer keys than this trains its
    /// initial dictionary on the whole sample instead (a handful of keys
    /// would overfit); its baseline still comes from its own partition.
    size_t min_shard_sample = 64;
    /// Weight of each PollRebalance() traffic observation when folding
    /// per-shard encode-count shares into the EWMA weights; clamps to
    /// [1e-6, 1] (NaN to 1e-6).
    double traffic_ewma_alpha = 0.3;
    /// RebalanceNow() refuses to re-derive boundaries from fewer than
    /// this many reservoir keys (union over shards): a handful of keys
    /// would anchor boundaries on noise.
    size_t min_rebalance_corpus = 64;
    /// After a rebalance, shards whose range changed (they appear in a
    /// plan move) get a dictionary retrained on their new range's slice
    /// of the rebalance corpus — their old dictionary was tuned to keys
    /// they no longer own. Shards that keep their range keep their
    /// dictionary and epoch untouched either way. Slices smaller than
    /// min_shard_sample skip the retrain (the next triggered rebuild
    /// adapts them once traffic arrives).
    bool retrain_moved_shards = true;
    /// The rebalance trigger: PollRebalance() re-derives boundaries once
    /// max/mean shard traffic weight stays at or above this ratio for
    /// kRebalanceConsecutivePolls consecutive polls. 0, negative or NaN
    /// disables it (the default), leaving RebalanceNow(force) only;
    /// values in (0, 1) clamp to 1.
    double rebalance_trigger_ratio = 0;
    /// A poll counts as skewed only once this many keys were encoded
    /// since the last rebalance (0 clamps to 1)...
    uint64_t rebalance_min_keys = 1024;
    /// ...and this long has passed since it (NaN or negative clamp to 0).
    double rebalance_cooldown_seconds = 1.0;
  };

  /// Builds the router and every shard's initial dictionary from
  /// `sample` (must be non-empty). Throws std::invalid_argument on an
  /// empty sample and propagates Hope::Build failures.
  ShardedDictionaryManager(const std::vector<std::string>& sample,
                           Options options);

  ShardedDictionaryManager(const ShardedDictionaryManager&) = delete;
  ShardedDictionaryManager& operator=(const ShardedDictionaryManager&) = delete;

  /// Retires the final router version and drains the reclaimer, so
  /// destruction waits out in-flight Route() readers. Indexes must be
  /// destroyed first (they must not outlive the manager).
  ~ShardedDictionaryManager();

  /// Shared-ownership snapshot of the current router version (immutable;
  /// stays valid for as long as the caller holds it, even past the
  /// manager). Takes the rebalance mutex — use Route()/router_version()
  /// on hot paths.
  std::shared_ptr<const RouterVersion> router() const
      HOPE_EXCLUDES(rebalance_mu_) {
    MutexLock lock(rebalance_mu_);
    return current_router_;
  }
  uint64_t router_version() const {
    ebr::EpochReclaimer::Guard guard(reclaimer_);
    return router_ptr_.load(std::memory_order_seq_cst)->version();
  }

  size_t num_shards() const { return shards_.size(); }

  /// Wait-free: an epoch-guarded atomic pointer load. The guard pins the
  /// RouterVersion across the binary search; a rebalance publishing
  /// concurrently retires the superseded version, which is freed only
  /// after every pinned reader exits (and every plan/index shared_ptr
  /// holder releases it).
  size_t Route(std::string_view key) const {
    ebr::EpochReclaimer::Guard guard(reclaimer_);
    return router_ptr_.load(std::memory_order_seq_cst)->Route(key);
  }

  DictionaryManager& shard(size_t i) { return *shards_[i]; }
  const DictionaryManager& shard(size_t i) const { return *shards_[i]; }

  /// Lock-free snapshot of the owning shard's current version.
  DictSnapshot Acquire(std::string_view key) const {
    return shards_[Route(key)]->Acquire();
  }

  /// Encode through the owning shard (feeds that shard's collector).
  std::string Encode(std::string_view key, size_t* bit_len = nullptr) const {
    return shards_[Route(key)]->Encode(key, bit_len);
  }

  /// Per-shard epochs in boundary order (diagnostics / bench output).
  std::vector<uint64_t> Epochs() const;

  /// True when any shard's rebuild trigger fires.
  bool ShouldRebuild() const;

  /// Polls every shard once: RebuildNow() on each, in boundary order.
  /// Returns the number of shards that published. Used by tests and by
  /// callers without a BackgroundRebuilder; the shared worker loop calls
  /// the per-shard managers directly.
  size_t RebuildPending();

  /// Folds the per-shard encode counts observed since the previous call
  /// into the EWMA traffic weights. Called by PollRebalance(); exposed
  /// for tests and manual polling.
  void UpdateTrafficWeights() HOPE_EXCLUDES(rebalance_mu_);

  /// Current EWMA traffic shares in boundary order (sum ~1).
  std::vector<double> TrafficWeights() const HOPE_EXCLUDES(rebalance_mu_);

  /// max/mean of the current traffic weights (1.0 = balanced).
  double WeightImbalance() const HOPE_EXCLUDES(rebalance_mu_);

  /// One worker-loop step: updates the traffic weights, evaluates the
  /// rebalance trigger, and runs RebalanceNow() when it fires. Returns
  /// the published plan, or null when the trigger is off or quiet or the
  /// re-derivation was a no-op. A quiet poll or a firing resets the
  /// consecutive-poll streak; a forced RebalanceNow() leaves it alone.
  std::shared_ptr<const RebalancePlan> PollRebalance()
      HOPE_EXCLUDES(rebalance_mu_);

  /// Re-derives equal-weight boundaries from the union of the per-shard
  /// reservoirs (each shard's keys weighted by its traffic share), diffs
  /// them against the current router, and — when anything moves —
  /// publishes the next RouterVersion and returns the plan. Both paths
  /// fold the latest traffic into the weights first. Returns null when
  /// `force` is false and the trigger declines, when the reservoirs hold
  /// fewer than Options::min_rebalance_corpus keys, or when the
  /// re-derived boundaries equal the current ones. Serialized
  /// internally; readers are never blocked.
  std::shared_ptr<const RebalancePlan> RebalanceNow(bool force = false)
      HOPE_EXCLUDES(rebalance_mu_);

  /// Grace periods for superseded RouterVersions (retired/reclaimed
  /// counters; TryReclaim for idle-period polling).
  ebr::EpochReclaimer& reclaimer() const { return reclaimer_; }

  /// Sums over shards (each counter is itself relaxed).
  uint64_t rebuilds_published() const;
  uint64_t rebuilds_rejected() const;

  /// Router publishes since construction (== router_version()).
  uint64_t rebalances_published() const { return rebalances_.load(); }

  /// Triggered rebalances that published nothing: the corpus was too
  /// small, or the re-derived boundaries matched the current ones (a
  /// stale-corpus symptom when paired with persistent imbalance).
  uint64_t rebalances_noop() const { return rebalance_noops_.load(); }

  /// Wires the whole sharded stack in one call: registers the rebalance
  /// counters/gauges (hope_rebalance_*, hope_router_version, plus the
  /// router reclaimer's hope_ebr_* under scope="router") and attaches
  /// every shard manager with its shard label; router publishes record
  /// kRebalancePublish on `trace`. Either sink may be null; both must
  /// outlive the manager. Attach before background polling starts.
  void AttachTelemetry(telemetry::MetricRegistry* registry,
                       telemetry::TraceLog* trace);

 private:
  std::shared_ptr<const RebalancePlan> RebalanceLocked()
      HOPE_REQUIRES(rebalance_mu_);
  double WeightImbalanceLocked() const HOPE_REQUIRES(rebalance_mu_);

  const Options options_;
  /// Grace periods for router_ptr_'s pointees (mutable: read guards pin
  /// it on const paths).
  mutable ebr::EpochReclaimer reclaimer_;
  /// Hot-path router: readers load the raw pointer inside an ebr::Guard.
  /// The pointee is co-owned by current_router_ (and any plans/indexes
  /// holding it); on supersession the manager's reference is released
  /// through Retire, i.e. only after the grace period.
  HOPE_EBR_PUBLISHED std::atomic<const RouterVersion*> router_ptr_;
  std::vector<std::unique_ptr<DictionaryManager>> shards_;

  mutable Mutex rebalance_mu_;  ///< router, weights, Rebalance
  /// The current router version (the only one the manager itself owns;
  /// superseded versions live on exactly as long as callers' plans or
  /// index snapshots reference them, plus the EBR grace period).
  std::shared_ptr<const RouterVersion> current_router_
      HOPE_GUARDED_BY(rebalance_mu_);
  /// EWMA traffic shares.
  std::vector<double> weights_ HOPE_GUARDED_BY(rebalance_mu_);
  /// Per-shard KeysObserved marks.
  std::vector<uint64_t> last_observed_ HOPE_GUARDED_BY(rebalance_mu_);
  /// Total encodes at last publish.
  uint64_t observed_at_rebalance_ HOPE_GUARDED_BY(rebalance_mu_) = 0;
  std::chrono::steady_clock::time_point last_rebalance_
      HOPE_GUARDED_BY(rebalance_mu_);
  /// Consecutive skewed polls so far (see kRebalanceConsecutivePolls).
  uint32_t rebalance_streak_ HOPE_GUARDED_BY(rebalance_mu_) = 0;
  std::atomic<uint64_t> rebalances_{0};
  std::atomic<uint64_t> rebalance_noops_{0};

  /// Lifecycle sink (set once by AttachTelemetry, read relaxed under
  /// rebalance_mu_) and the metric registrations' RAII handles.
  std::atomic<telemetry::TraceLog*> trace_{nullptr};
  std::vector<telemetry::MetricRegistry::Registration> registrations_;
};

}  // namespace hope::dynamic
