#include "dynamic/background_rebuilder.h"

#include "dynamic/sharded_manager.h"

namespace hope::dynamic {

namespace {

std::vector<DictionaryManager*> AllShards(ShardedDictionaryManager* sharded) {
  std::vector<DictionaryManager*> managers;
  managers.reserve(sharded->num_shards());
  for (size_t i = 0; i < sharded->num_shards(); i++)
    managers.push_back(&sharded->shard(i));
  return managers;
}

}  // namespace

BackgroundRebuilder::BackgroundRebuilder(
    std::vector<DictionaryManager*> managers,
    std::vector<ShardedDictionaryManager*> sharded, Options options)
    : managers_(std::move(managers)),
      sharded_(std::move(sharded)),
      options_(options),
      worker_([this] { Loop(); }) {}

BackgroundRebuilder::BackgroundRebuilder(
    std::vector<DictionaryManager*> managers, Options options)
    : BackgroundRebuilder(std::move(managers), {}, options) {}

BackgroundRebuilder::BackgroundRebuilder(ShardedDictionaryManager* sharded,
                                         Options options)
    : BackgroundRebuilder(AllShards(sharded), {sharded}, options) {}

BackgroundRebuilder::~BackgroundRebuilder() { Stop(); }

void BackgroundRebuilder::Nudge() {
  {
    MutexLock lock(mu_);
    nudged_ = true;
  }
  cv_.notify_one();
}

void BackgroundRebuilder::Stop() {
  {
    MutexLock lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  stop_requested_.store(true, std::memory_order_relaxed);
  cv_.notify_one();
  if (worker_.joinable()) worker_.join();
}

void BackgroundRebuilder::Loop() {
  UniqueLock lock(mu_);
  while (!stop_) {
    // Explicit wait loop (not cv_.wait_for with a predicate lambda):
    // the analysis checks lambda bodies with an empty lock set, so a
    // predicate reading stop_/nudged_ would be flagged even though the
    // cv holds mu_ whenever it runs. Semantics are identical — wait out
    // at most one poll interval, waking early on stop or nudge.
    const auto deadline =
        std::chrono::steady_clock::now() + options_.poll_interval;
    while (!stop_ && !nudged_) {
      if (cv_.wait_until(lock.native(), deadline) ==
          std::cv_status::timeout)
        break;
    }
    if (stop_) break;
    nudged_ = false;
    // Run the cycle unlocked so Nudge()/Stop() never wait on a build.
    lock.Unlock();
    cycles_.fetch_add(1);
    // Rebalance rides the same loop: traffic weights fold in once per
    // cycle and the router re-derives when the trigger fires. It runs
    // BEFORE the rebuild sweep: a quiet rebalance poll costs
    // microseconds while one drifted shard's rebuild can take seconds,
    // and ordering the cheap step first bounds router staleness by the
    // poll interval instead of by the slowest dictionary build.
    for (ShardedDictionaryManager* sharded : sharded_) {
      if (stop_requested_.load(std::memory_order_relaxed)) break;
      if (sharded->PollRebalance()) rebalances_.fetch_add(1);
    }
    // RebuildNow re-checks each trigger under the manager's own mutex (the
    // authoritative, race-free evaluation), so no pre-check here. Shards
    // whose trigger is quiet return kNotTriggered in microseconds, so one
    // drifted shard never starves the others of polling. The stop flag is
    // re-checked between managers: with many shards (or a shard mid-
    // build) Stop() waits for at most one manager's step, not the sweep.
    for (DictionaryManager* manager : managers_) {
      if (stop_requested_.load(std::memory_order_relaxed)) break;
      if (manager->RebuildNow() == DictionaryManager::RebuildResult::kRebuilt)
        rebuilds_.fetch_add(1);
    }
    // Epoch reclamation rides it too: retired versions age out only when
    // the epoch advances, and publishes are the only other advance site,
    // so an idle manager would otherwise park its limbo list until the
    // next publish. One TryReclaim per reclaimer per cycle keeps the
    // live-garbage bound flat regardless of publish cadence. (This is
    // also where the worker thread's epoch slot gets registered, on its
    // first guard-free scan — TryReclaim never pins, so the worker can
    // never hold the epoch back.)
    if (!stop_requested_.load(std::memory_order_relaxed)) {
      for (DictionaryManager* manager : managers_)
        reclaims_.fetch_add(manager->reclaimer().TryReclaim());
      for (ShardedDictionaryManager* sharded : sharded_)
        reclaims_.fetch_add(sharded->reclaimer().TryReclaim());
    }
    lock.Lock();
  }
}

void BackgroundRebuilder::AttachTelemetry(
    telemetry::MetricRegistry* registry) {
  if (registry == nullptr) return;
  using MK = telemetry::MetricKind;
  auto add = [&](const char* name, std::function<double()> read) {
    registrations_.push_back(
        registry->RegisterCallback(name, {}, MK::kCounter, std::move(read)));
  };
  add("hope_rebuilder_cycles_total",
      [this] { return static_cast<double>(cycles()); });
  add("hope_rebuilder_rebuilds_total",
      [this] { return static_cast<double>(rebuilds_completed()); });
  add("hope_rebuilder_rebalances_total",
      [this] { return static_cast<double>(rebalances_completed()); });
  add("hope_rebuilder_reclaims_total",
      [this] { return static_cast<double>(versions_reclaimed()); });
}

}  // namespace hope::dynamic
