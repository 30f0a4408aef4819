// TraceLog: a bounded ring buffer of structured lifecycle events with
// steady-clock timestamps — the "what happened, when, in what order"
// companion to the registry's "how much". Subsystems record rare
// control-plane transitions (rebuild start/finish/reject, rebalance
// publish, plan apply/retire, migration batches, EBR epoch advances and
// reclaims); a snapshot returns the newest `capacity` events oldest
// first, so a stuck rebuilder or a migration stall is diagnosable from
// the event stream alone (the motivating case: PR 6's rebuilder wedge
// was invisible for a full PR cycle because nothing reported that the
// rebuild sweep had parked the worker).
//
// Recording takes a mutex: lifecycle events are control-plane rate
// (rebuilds per second at most, not requests per second), so a leaf
// mutex is simpler and cheaper than a lock-free ring — and it is never
// on an encode/lookup path. The mutex is a leaf: Record() calls nothing
// that locks, so it composes with any caller-held lock (EBR's state
// mutex, the managers' rebalance mutex).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace hope::telemetry {

enum class TraceEventType : uint8_t {
  kRebuildStart,      ///< a = shard epoch at start
  kRebuildFinish,     ///< a = new epoch, b = duration ns
  kRebuildReject,     ///< a = RebuildResult enum value, b = duration ns
  kRebalancePublish,  ///< a = new router version, b = plan move count
  kPlanApplyBegin,    ///< a = router version the plan takes effect at
  kPlanRetired,       ///< a = router version fully applied
  kMigrationBatch,    ///< shard = destination, a = entries moved
  kEpochAdvance,      ///< a = new global EBR epoch
  kEbrReclaim,        ///< a = objects freed, b = still pending
};

const char* TraceEventTypeName(TraceEventType type);

struct TraceEvent {
  uint64_t seq = 0;    ///< global order, 1-based, never wraps
  int64_t ts_ns = 0;   ///< steady-clock nanoseconds
  TraceEventType type = TraceEventType::kRebuildStart;
  int32_t shard = -1;  ///< shard index when meaningful, -1 otherwise
  uint64_t a = 0;      ///< type-specific payload (see enum comments)
  uint64_t b = 0;

  /// "seq=12 ts_ns=... rebuild-finish shard=3 a=2 b=1804" (debug/dump).
  std::string ToString() const;
};

class TraceLog {
 public:
  /// Capacity is rounded up to a power of two, minimum 8.
  explicit TraceLog(size_t capacity = 4096);

  void Record(TraceEventType type, int32_t shard = -1, uint64_t a = 0,
              uint64_t b = 0);

  /// The newest min(capacity, total_recorded) events, oldest first.
  std::vector<TraceEvent> Snapshot() const;

  /// Events ever recorded (snapshot keeps only the newest `capacity`).
  uint64_t total_recorded() const;

  size_t capacity() const { return capacity_; }

  static int64_t NowNs();

 private:
  mutable Mutex mu_;
  /// slot = (seq - 1) & (capacity - 1); sized once in the constructor,
  /// never resized after.
  std::vector<TraceEvent> ring_ HOPE_GUARDED_BY(mu_);
  uint64_t next_seq_ HOPE_GUARDED_BY(mu_) = 1;
  size_t capacity_ = 0;  ///< immutable after construction
};

}  // namespace hope::telemetry
