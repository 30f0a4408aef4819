// MetricRegistry: the process-wide name → metric directory and its
// snapshot/export layer.
//
// Registration is cold-path (a mutex-guarded vector insert, done once at
// subsystem construction); the hot path never touches the registry —
// subsystems update their own Counter/Gauge/Histogram objects (one
// relaxed atomic per update, telemetry/metrics.h) or keep their existing
// plain-atomic counters and register a read callback over the accessor.
// Snapshot() walks the directory under the mutex, reads every metric,
// and returns a value-typed RegistrySnapshot that renders as one
// JSON line (the `--stats-file` JSONL format) or as Prometheus text
// exposition (histograms as summaries with quantile labels).
//
// Lifetime: Register* returns a movable RAII Registration that removes
// the entry when destroyed, so a test-scoped ServerLoop or manager can
// attach to a longer-lived registry without dangling pointers outliving
// it — subsystems store their registrations as members, destroyed
// before the metrics they point at.
//
// Lock order: the registry mutex is held while value callbacks run, and
// callbacks may take subsystem locks (a traffic-weights mutex, say), so
// never call into the registry while holding a lock a callback needs.
// Subsystems keep that trivially: they register from constructors/
// attach methods, outside their own locks.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "telemetry/metrics.h"

namespace hope::telemetry {

/// Label set, rendered in the given order (callers pass them sorted or
/// semantically ordered; the registry does not reorder).
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One exported snapshot: values only, detached from the live metrics.
struct RegistrySnapshot {
  /// Derived histogram values (bucket counts stay in the live object).
  struct HistValues {
    uint64_t count = 0;
    uint64_t p50 = 0;
    uint64_t p99 = 0;
    uint64_t p999 = 0;
    uint64_t max = 0;
    double mean = 0.0;
  };

  struct Metric {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    double value = 0.0;  ///< counter/gauge/callback
    HistValues hist;     ///< kHistogram only
  };

  int64_t ts_ns = 0;            ///< steady-clock nanoseconds
  std::vector<Metric> metrics;  ///< sorted by (name, labels)

  /// One JSON object on one line:
  ///   {"ts_ns":N,"metrics":{"name{k=\"v\"}":value,...}}
  /// Histograms render as nested objects with count/p50_ns/p99_ns/
  /// p999_ns/mean_ns/max_ns fields.
  std::string ToJson() const;

  /// Prometheus text exposition: one # TYPE line per metric name,
  /// histograms as summaries with quantile labels, label values escaped
  /// per the format spec (backslash, double-quote, newline).
  std::string ToPrometheus() const;
};

class MetricRegistry {
 public:
  /// RAII handle: deregisters on destruction. Movable so subsystems can
  /// collect their registrations in a vector member (declared after the
  /// metrics it exposes, so deregistration runs first on teardown).
  class Registration {
   public:
    Registration() = default;
    Registration(Registration&& other) noexcept
        : registry_(other.registry_), id_(other.id_) {
      other.registry_ = nullptr;
    }
    Registration& operator=(Registration&& other) noexcept {
      if (this != &other) {
        Release();
        registry_ = other.registry_;
        id_ = other.id_;
        other.registry_ = nullptr;
      }
      return *this;
    }
    ~Registration() { Release(); }

    Registration(const Registration&) = delete;
    Registration& operator=(const Registration&) = delete;

   private:
    friend class MetricRegistry;
    Registration(MetricRegistry* registry, uint64_t id)
        : registry_(registry), id_(id) {}
    void Release();
    MetricRegistry* registry_ = nullptr;
    uint64_t id_ = 0;
  };

  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The metric object must outlive the returned Registration.
  [[nodiscard]] Registration RegisterCounter(std::string name, Labels labels,
                                             const Counter* counter);
  [[nodiscard]] Registration RegisterGauge(std::string name, Labels labels,
                                           const Gauge* gauge);
  [[nodiscard]] Registration RegisterHistogram(std::string name,
                                               Labels labels,
                                               const Histogram* histogram);
  /// Adapter for subsystems that already expose plain-atomic accessors:
  /// the callback is invoked at snapshot time (under the registry mutex;
  /// it may take subsystem locks — see the lock-order note above).
  [[nodiscard]] Registration RegisterCallback(std::string name, Labels labels,
                                              MetricKind kind,
                                              std::function<double()> read);

  /// Point-in-time read of every registered metric, sorted by name then
  /// labels. Wait-free for hot-path writers (they never see the mutex).
  RegistrySnapshot Snapshot() const HOPE_EXCLUDES(mu_);

  size_t size() const HOPE_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return entries_.size();
  }

 private:
  struct Entry {
    uint64_t id = 0;
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
    std::function<double()> read;
  };

  Registration Add(Entry entry) HOPE_EXCLUDES(mu_);
  void Remove(uint64_t id) HOPE_EXCLUDES(mu_);

  mutable Mutex mu_;
  std::vector<Entry> entries_ HOPE_GUARDED_BY(mu_);
  uint64_t next_id_ HOPE_GUARDED_BY(mu_) = 1;
};

}  // namespace hope::telemetry
