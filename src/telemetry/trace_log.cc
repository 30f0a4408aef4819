#include "telemetry/trace_log.h"

#include <chrono>
#include <cstdio>

namespace hope::telemetry {

const char* TraceEventTypeName(TraceEventType type) {
  switch (type) {
    case TraceEventType::kRebuildStart: return "rebuild-start";
    case TraceEventType::kRebuildFinish: return "rebuild-finish";
    case TraceEventType::kRebuildReject: return "rebuild-reject";
    case TraceEventType::kRebalancePublish: return "rebalance-publish";
    case TraceEventType::kPlanApplyBegin: return "plan-apply-begin";
    case TraceEventType::kPlanRetired: return "plan-retired";
    case TraceEventType::kMigrationBatch: return "migration-batch";
    case TraceEventType::kEpochAdvance: return "epoch-advance";
    case TraceEventType::kEbrReclaim: return "ebr-reclaim";
  }
  return "?";
}

std::string TraceEvent::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "seq=%llu ts_ns=%lld %s shard=%d a=%llu b=%llu",
                static_cast<unsigned long long>(seq),
                static_cast<long long>(ts_ns), TraceEventTypeName(type),
                shard, static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

int64_t TraceLog::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TraceLog::TraceLog(size_t capacity) {
  size_t cap = 8;
  while (cap < capacity && cap < (size_t{1} << 20)) cap <<= 1;
  MutexLock lock(mu_);
  ring_.resize(cap);
  capacity_ = cap;
}

void TraceLog::Record(TraceEventType type, int32_t shard, uint64_t a,
                      uint64_t b) {
  const int64_t now = NowNs();
  MutexLock lock(mu_);
  TraceEvent& slot = ring_[(next_seq_ - 1) & (ring_.size() - 1)];
  slot.seq = next_seq_++;
  slot.ts_ns = now;
  slot.type = type;
  slot.shard = shard;
  slot.a = a;
  slot.b = b;
}

std::vector<TraceEvent> TraceLog::Snapshot() const {
  MutexLock lock(mu_);
  const uint64_t total = next_seq_ - 1;
  const uint64_t n = total < ring_.size() ? total : ring_.size();
  std::vector<TraceEvent> out;
  out.reserve(n);
  for (uint64_t seq = total - n + 1; seq <= total; seq++)
    out.push_back(ring_[(seq - 1) & (ring_.size() - 1)]);
  return out;
}

uint64_t TraceLog::total_recorded() const {
  MutexLock lock(mu_);
  return next_seq_ - 1;
}

}  // namespace hope::telemetry
