// ServerLoop<Tree>: shared-nothing serving harness over a
// ConcurrentShardedIndex. N workers, each pinned to a CPU (best-effort)
// with its own bounded request queue and its own per-op latency
// histograms — no cross-worker shared mutable state on the hot path, so
// adding workers scales reads the way the index's shared locks allow.
//
// Requests are routed by shard affinity: Submit() routes the key
// through the index's wait-free Route() and enqueues on worker
// (shard % num_workers), so one shard's writer serialization maps to
// one queue and workers mostly touch disjoint shards. A maintenance
// thread applies rebalance plans in bounded batches (PollMigration)
// and drains dictionary generations while workers keep serving —
// migration-transparent by construction.
//
// Latency is measured end-to-end (enqueue to completion, steady clock),
// which is what an SLO sees: queueing delay counts — and the queueing
// component is also recorded on its own histogram, which is what makes
// open-loop (coordinated-omission-free) benchmark runs diagnosable.
// Measurement is telemetry-native: each op type has a wait-free
// telemetry::Histogram plus striped counters shared by all workers (one
// relaxed atomic per update, and snapshot-able mid-phase without
// stalling anyone). Snapshot() reads those objects into an OpStats
// whose latency is the histogram's own telemetry::HistogramSnapshot —
// the same numbers the registry exports as hope_server_latency_ns.
//
// Self-checking: a request with `check` set verifies the serving
// invariant value == KeyFingerprint(key) on every hit, and scans verify
// value order is non-decreasing (fingerprints are order-consistent with
// keys). Violations are counted, never thrown — the benchmarks gate on
// the counters staying zero while rebalances run underneath.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "serve/concurrent_index.h"
#include "serve/cpu_pin.h"
#include "telemetry/metrics.h"
#include "telemetry/registry.h"

namespace hope::serve {

/// Stable 8-byte order-consistent digest of a key: the first 8 bytes
/// big-endian, zero-padded. key1 <= key2 implies
/// KeyFingerprint(key1) <= KeyFingerprint(key2), so stored-value order
/// mirrors key order (non-strictly) and any lookup hit is verifiable
/// without a shadow map.
inline uint64_t KeyFingerprint(const std::string& key) {
  uint64_t fp = 0;
  for (size_t i = 0; i < 8; i++) {
    fp <<= 8;
    if (i < key.size()) fp |= static_cast<unsigned char>(key[i]);
  }
  return fp;
}

struct Request {
  enum class Op : uint8_t { kLookup = 0, kInsert = 1, kErase = 2, kScan = 3 };
  static constexpr size_t kNumOps = 4;

  Op op = Op::kLookup;
  /// Lookup: verify hits carry KeyFingerprint(key). Scan: verify value
  /// order.
  bool check = false;
  std::string key;
  uint64_t value = 0;      ///< insert payload
  uint32_t scan_count = 0; ///< scan length
  /// Stamped by Submit() when 0. An open-loop generator pre-stamps the
  /// intended arrival time instead, so end-to-end latency includes the
  /// schedule slip a saturated loop would otherwise hide (coordinated
  /// omission).
  uint64_t enqueue_ns = 0;
};

/// The pre-telemetry name of a latency report. hope_bench spells
/// serve::LatencyHistogram (and calls Mean() on it), so the name stays
/// as an alias until the next benchmark change drops it.
using LatencyHistogram = telemetry::HistogramSnapshot;

/// Per-op measurement snapshot.
struct OpStats {
  telemetry::HistogramSnapshot latency;
  uint64_t ops = 0;
  uint64_t hits = 0;  ///< lookup hits / erase hits / scan entries
  uint64_t check_failures = 0;
  uint64_t scan_order_violations = 0;
};

template <typename Tree>
class ServerLoop {
 public:
  struct Options {
    size_t num_workers = 4;
    size_t queue_capacity = 1024;  ///< per worker; Submit blocks when full
    bool pin_workers = true;
    size_t migration_batch = 512;  ///< keys per PollMigration call

    /// Optional: register the loop's metrics (latency/queue-delay
    /// histograms, per-op counters, queue-depth gauge) here. Must
    /// outlive the loop.
    telemetry::MetricRegistry* registry = nullptr;
    /// With `registry` and a sink: a stats thread delivers a registry
    /// snapshot at start, every `stats_interval`, and once more at
    /// Stop() — so even a short run exports at least two snapshots.
    std::chrono::milliseconds stats_interval{0};
    std::function<void(const telemetry::RegistrySnapshot&)> stats_sink;
  };

  /// `index` must outlive the loop. Workers and the migration
  /// maintenance thread start immediately.
  ServerLoop(ConcurrentShardedIndex<Tree>* index, Options options)
      : index_(index), opt_(options) {
    if (opt_.num_workers == 0) opt_.num_workers = 1;
    if (opt_.queue_capacity == 0) opt_.queue_capacity = 1;
    if (opt_.registry != nullptr) RegisterMetrics();
    workers_.reserve(opt_.num_workers);
    for (size_t w = 0; w < opt_.num_workers; w++)
      workers_.push_back(std::make_unique<Worker>());
    for (size_t w = 0; w < opt_.num_workers; w++)
      workers_[w]->thread =
          std::thread([this, w] { WorkerMain(*workers_[w], w); });
    maintenance_ = std::thread([this] { MaintenanceMain(); });
    if (opt_.registry != nullptr && opt_.stats_sink &&
        opt_.stats_interval.count() > 0)
      stats_thread_ = std::thread([this] { StatsMain(); });
  }

  ~ServerLoop() { Stop(); }

  ServerLoop(const ServerLoop&) = delete;
  ServerLoop& operator=(const ServerLoop&) = delete;

  /// Enqueues on the worker owning the key's shard; blocks while that
  /// queue is full (natural backpressure — the benchmark's arrival rate
  /// is then bounded by service rate, as in a closed-loop load test).
  void Submit(Request req) {
    if (req.enqueue_ns == 0) req.enqueue_ns = NowNs();
    Worker& wk = *workers_[index_->Route(req.key) % workers_.size()];
    {
      UniqueLock lk(wk.mu);
      // Explicit wait loop (see common/mutex.h): a predicate lambda
      // reading wk.queue would be analyzed with an empty lock set.
      while (wk.queue.size() >= opt_.queue_capacity &&
             !stop_.load(std::memory_order_acquire))
        wk.cv_space.wait(lk.native());
      if (stop_.load(std::memory_order_acquire)) return;
      pending_.fetch_add(1, std::memory_order_relaxed);
      wk.queue.push_back(std::move(req));
    }
    wk.cv_work.notify_one();
  }

  /// Blocks until every submitted request has completed. Migration may
  /// still be in flight — use index()->MigrationIdle() for that.
  void WaitIdle() const {
    while (pending_.load(std::memory_order_acquire) != 0)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  /// Drains queues and joins all threads. Idempotent; runs at
  /// destruction. Safe to call concurrently: every caller returns only
  /// after all threads are joined.
  void Stop() HOPE_EXCLUDES(join_mu_) {
    // Serialize the whole join sequence. The previous compare-exchange
    // latch let a second concurrent caller return immediately while the
    // first was still joining — if that second caller was the
    // destructor, members were torn down under live worker threads.
    MutexLock join(join_mu_);
    if (joined_) return;
    stop_.store(true, std::memory_order_release);
    for (auto& wk : workers_) {
      // Lock and release the queue mutex after the flag is set: a
      // worker that read stop_ == false is then guaranteed to already
      // be inside wait(), so the notify below cannot be lost.
      { MutexLock lk(wk->mu); }
      wk->cv_work.notify_all();
      wk->cv_space.notify_all();
    }
    for (auto& wk : workers_) wk->thread.join();
    maintenance_.join();
    if (stats_thread_.joinable()) {
      { MutexLock lk(stats_mu_); }
      stats_cv_.notify_all();
      stats_thread_.join();
    }
    joined_ = true;
  }

  /// Stats for one op, read from the telemetry objects. Count and the
  /// counters are exact; latency mean is midpoint-approximated and
  /// min/max are bucket-resolution (see telemetry::HistogramSnapshot).
  /// Take at quiesce points (after WaitIdle) for exact phase numbers.
  OpStats Snapshot(Request::Op op) const {
    const PerOpTelemetry& t = per_op_[static_cast<size_t>(op)];
    OpStats stats;
    stats.latency = t.latency.Snapshot();
    stats.ops = t.ops.Value();
    stats.hits = t.hits.Value();
    stats.check_failures = t.check_failures.Value();
    stats.scan_order_violations = t.scan_order_violations.Value();
    return stats;
  }

  /// Queue-delay distribution (Submit/pre-stamped arrival to execution
  /// start) across all ops — the coordinated-omission signal.
  telemetry::HistogramSnapshot QueueDelaySnapshot() const {
    return queue_delay_.Snapshot();
  }

  /// Clears histograms and counters (phase boundary; quiesce first —
  /// call after WaitIdle, as resetting under load can drop in-flight
  /// updates).
  void ResetStats() {
    for (PerOpTelemetry& t : per_op_) {
      t.latency.Reset();
      t.ops.Reset();
      t.hits.Reset();
      t.check_failures.Reset();
      t.scan_order_violations.Reset();
    }
    queue_delay_.Reset();
  }

  /// Workers that were successfully pinned to a CPU.
  size_t workers_pinned() const {
    return pinned_.load(std::memory_order_relaxed);
  }

  size_t num_workers() const { return workers_.size(); }
  ConcurrentShardedIndex<Tree>* index() const { return index_; }

  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  /// Maintenance-thread sleep after a poll that moved nothing.
  static constexpr unsigned kMigrationPollUs = 200;

  struct Worker {
    Mutex mu;
    std::condition_variable cv_work;
    std::condition_variable cv_space;
    std::deque<Request> queue HOPE_GUARDED_BY(mu);

    std::vector<uint64_t> scan_buf;  ///< worker-thread-local, reused
    std::thread thread;
  };

  /// Shared by all workers: every update is one relaxed atomic (striped
  /// counters, atomic histogram buckets), so there is no cross-worker
  /// contention to speak of and no mutex on the record path.
  struct PerOpTelemetry {
    telemetry::Histogram latency;
    telemetry::Counter ops;
    telemetry::Counter hits;
    telemetry::Counter check_failures;
    telemetry::Counter scan_order_violations;
  };

  void RegisterMetrics() {
    static constexpr const char* kOpNames[Request::kNumOps] = {
        "lookup", "insert", "erase", "scan"};
    auto& reg = *opt_.registry;
    for (size_t i = 0; i < Request::kNumOps; i++) {
      const telemetry::Labels labels{{"op", kOpNames[i]}};
      PerOpTelemetry& t = per_op_[i];
      registrations_.push_back(
          reg.RegisterHistogram("hope_server_latency_ns", labels, &t.latency));
      registrations_.push_back(
          reg.RegisterCounter("hope_server_ops_total", labels, &t.ops));
      registrations_.push_back(
          reg.RegisterCounter("hope_server_hits_total", labels, &t.hits));
      registrations_.push_back(reg.RegisterCounter(
          "hope_server_check_failures_total", labels, &t.check_failures));
      registrations_.push_back(
          reg.RegisterCounter("hope_server_scan_order_violations_total",
                              labels, &t.scan_order_violations));
    }
    registrations_.push_back(
        reg.RegisterHistogram("hope_server_queue_delay_ns", {}, &queue_delay_));
    registrations_.push_back(reg.RegisterCallback(
        "hope_server_queue_depth", {}, telemetry::MetricKind::kGauge, [this] {
          return static_cast<double>(
              pending_.load(std::memory_order_relaxed));
        }));
    registrations_.push_back(reg.RegisterCallback(
        "hope_server_workers_pinned", {}, telemetry::MetricKind::kGauge,
        [this] {
          return static_cast<double>(pinned_.load(std::memory_order_relaxed));
        }));
  }

  void StatsMain() {
    EmitStats();
    UniqueLock lk(stats_mu_);
    // The predicate reads only the atomic stop_ flag (nothing guarded
    // by stats_mu_), so the lambda is safe under the analysis.
    while (!stats_cv_.wait_for(lk.native(), opt_.stats_interval, [this] {
      return stop_.load(std::memory_order_acquire);
    })) {
      lk.Unlock();
      EmitStats();
      lk.Lock();
    }
    lk.Unlock();
    EmitStats();  // final snapshot: even a short run exports two
  }

  void EmitStats() { opt_.stats_sink(opt_.registry->Snapshot()); }

  void WorkerMain(Worker& wk, size_t worker_index) {
    if (opt_.pin_workers &&
        PinCurrentThreadToCpu(static_cast<unsigned>(worker_index) %
                              NumCpus()))
      pinned_.fetch_add(1, std::memory_order_relaxed);
    std::deque<Request> batch;
    for (;;) {
      {
        UniqueLock lk(wk.mu);
        // Explicit wait loop (see common/mutex.h): a predicate lambda
        // reading wk.queue would be analyzed with an empty lock set.
        while (wk.queue.empty() && !stop_.load(std::memory_order_acquire))
          wk.cv_work.wait(lk.native());
        if (wk.queue.empty() && stop_.load(std::memory_order_acquire)) return;
        batch.swap(wk.queue);
      }
      wk.cv_space.notify_all();
      for (Request& req : batch) Execute(wk, req);
      size_t done = batch.size();
      batch.clear();
      pending_.fetch_sub(done, std::memory_order_release);
    }
  }

  void Execute(Worker& wk, Request& req) {
    const uint64_t start = NowNs();
    queue_delay_.Record(start > req.enqueue_ns ? start - req.enqueue_ns : 0);
    uint64_t check_failures = 0;
    uint64_t scan_order_violations = 0;
    uint64_t hits = 0;
    switch (req.op) {
      case Request::Op::kLookup: {
        uint64_t value = 0;
        if (index_->Lookup(req.key, &value)) {
          hits = 1;
          if (req.check && value != KeyFingerprint(req.key))
            check_failures = 1;
        }
        break;
      }
      case Request::Op::kInsert:
        index_->Insert(req.key, req.value);
        break;
      case Request::Op::kErase:
        if (index_->Erase(req.key)) hits = 1;
        break;
      case Request::Op::kScan: {
        wk.scan_buf.clear();
        hits = index_->Scan(req.key, req.scan_count, &wk.scan_buf);
        if (req.check)
          for (size_t i = 1; i < wk.scan_buf.size(); i++)
            if (wk.scan_buf[i] < wk.scan_buf[i - 1]) scan_order_violations++;
        break;
      }
    }
    const uint64_t now = NowNs();
    const uint64_t latency = now > req.enqueue_ns ? now - req.enqueue_ns : 0;
    PerOpTelemetry& t = per_op_[static_cast<size_t>(req.op)];
    t.latency.Record(latency);
    t.ops.Add();
    if (hits != 0) t.hits.Add(hits);
    if (check_failures != 0) t.check_failures.Add(check_failures);
    if (scan_order_violations != 0)
      t.scan_order_violations.Add(scan_order_violations);
  }

  void MaintenanceMain() {
    for (;;) {
      // Check stop with a queue-mutex-free atomic read; migration work
      // is try-lock based so this thread never blocks shutdown.
      if (stop_.load(std::memory_order_acquire)) return;
      if (index_->PollMigration(opt_.migration_batch) == 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(kMigrationPollUs));
    }
  }

  ConcurrentShardedIndex<Tree>* index_;
  Options opt_;
  /// Telemetry objects precede registrations_ so the RAII handles (which
  /// deregister from opt_.registry) are destroyed first.
  PerOpTelemetry per_op_[Request::kNumOps];
  telemetry::Histogram queue_delay_;
  std::vector<telemetry::MetricRegistry::Registration> registrations_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::thread maintenance_;
  std::thread stats_thread_;
  Mutex stats_mu_;                    ///< stats thread's interruptible sleep
  std::condition_variable stats_cv_;
  /// Serializes Stop() callers; joined_ flips only after every thread
  /// is joined, so a losing caller blocks until shutdown is complete.
  Mutex join_mu_;
  bool joined_ HOPE_GUARDED_BY(join_mu_) = false;
  /// Stop() latch and shutdown flag in one: workers read it inside
  /// their wait predicates (under their queue mutex, but the flag
  /// itself is cross-worker so it must be atomic).
  std::atomic<bool> stop_{false};
  mutable std::atomic<uint64_t> pending_{0};
  std::atomic<size_t> pinned_{0};
};

}  // namespace hope::serve
