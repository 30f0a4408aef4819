// Worker thread that keeps one or more DictionaryManagers fresh off the
// hot path: it periodically evaluates each manager's rebuild trigger and,
// when staleness is detected, runs the (potentially expensive) build +
// validate + publish cycle so encoders never pay for it. A
// ShardedDictionaryManager hands all its shards to a single rebuilder,
// so N shards cost one polling thread, not N — and the same worker loop
// polls the sharded manager's rebalance trigger (PollRebalance), so
// router re-derivation also happens off the encode path.
//
// Stop() takes effect between managers, not just between sweeps: a long
// multi-shard poll (or a shard mid-build) delays shutdown by at most one
// manager's step, not the whole sweep.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "dynamic/dictionary_manager.h"

namespace hope::dynamic {

class ShardedDictionaryManager;

class BackgroundRebuilder {
 public:
  struct Options {
    /// How often the triggers are re-evaluated when nothing nudges us.
    std::chrono::milliseconds poll_interval{50};
  };

  /// Every manager must outlive the rebuilder. The worker starts
  /// immediately and polls the managers in the given order each cycle.
  explicit BackgroundRebuilder(DictionaryManager* manager)
      : BackgroundRebuilder(manager, Options{}) {}
  BackgroundRebuilder(DictionaryManager* manager, Options options)
      : BackgroundRebuilder(std::vector<DictionaryManager*>{manager},
                            options) {}
  // (Delegation instead of `Options options = {}` defaults: GCC rejects
  // a `= {}` default for a nested struct with member initializers.)
  explicit BackgroundRebuilder(std::vector<DictionaryManager*> managers)
      : BackgroundRebuilder(std::move(managers), Options{}) {}
  BackgroundRebuilder(std::vector<DictionaryManager*> managers,
                      Options options);
  /// Polls every shard of `sharded` — and its rebalance trigger — with
  /// one shared worker loop.
  explicit BackgroundRebuilder(ShardedDictionaryManager* sharded)
      : BackgroundRebuilder(sharded, Options{}) {}
  BackgroundRebuilder(ShardedDictionaryManager* sharded, Options options);
  ~BackgroundRebuilder();

  BackgroundRebuilder(const BackgroundRebuilder&) = delete;
  BackgroundRebuilder& operator=(const BackgroundRebuilder&) = delete;

  /// Wakes the worker to evaluate the triggers now (e.g. after a burst of
  /// inserts) instead of waiting out the poll interval.
  void Nudge() HOPE_EXCLUDES(mu_);

  /// Stops and joins the worker. Idempotent; the destructor calls it.
  void Stop() HOPE_EXCLUDES(mu_);

  size_t num_managers() const { return managers_.size(); }
  uint64_t rebuilds_completed() const { return rebuilds_.load(); }
  uint64_t rebalances_completed() const { return rebalances_.load(); }
  /// Retired versions freed by this worker's per-cycle TryReclaim polls
  /// (publishes also reclaim inline; this counts only the poll's share).
  uint64_t versions_reclaimed() const { return reclaims_.load(); }
  uint64_t cycles() const { return cycles_.load(); }

  /// Registers the worker-loop counters (hope_rebuilder_*) on
  /// `registry`, which must outlive the rebuilder. Null is a no-op. The
  /// managers attach their own telemetry — the rebuilder only exports
  /// its sweep activity.
  void AttachTelemetry(telemetry::MetricRegistry* registry);

 private:
  BackgroundRebuilder(std::vector<DictionaryManager*> managers,
                      std::vector<ShardedDictionaryManager*> sharded,
                      Options options);

  void Loop();

  const std::vector<DictionaryManager*> managers_;
  /// Sharded managers whose rebalance trigger this worker also polls.
  const std::vector<ShardedDictionaryManager*> sharded_;
  const Options options_;

  Mutex mu_;
  std::condition_variable cv_;
  bool stop_ HOPE_GUARDED_BY(mu_) = false;
  bool nudged_ HOPE_GUARDED_BY(mu_) = false;
  /// Mirror of stop_ readable without mu_: the sweep checks it between
  /// managers so Stop() never waits out a long multi-shard poll.
  std::atomic<bool> stop_requested_{false};

  std::atomic<uint64_t> rebuilds_{0};
  std::atomic<uint64_t> rebalances_{0};
  std::atomic<uint64_t> reclaims_{0};
  std::atomic<uint64_t> cycles_{0};
  std::vector<telemetry::MetricRegistry::Registration> registrations_;
  std::thread worker_;
};

}  // namespace hope::dynamic
