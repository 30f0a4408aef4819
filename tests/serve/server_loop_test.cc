// ServerLoop: shared-nothing workers execute mixed op streams with
// exact accounting, end-to-end latency histograms merge across workers,
// self-checks stay clean, and shutdown is idempotent.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#include <sys/types.h>
#endif

#include "btree/btree.h"
#include "dynamic/sharded_manager.h"
#include "serve/concurrent_index.h"
#include "serve/server_loop.h"
#include "telemetry/registry.h"

namespace hope::serve {
namespace {

using dynamic::ShardedDictionaryManager;

std::vector<std::string> NumberedKeys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; i++) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%04zu", i);
    keys.push_back(buf);
  }
  return keys;
}

struct Fixture {
  std::vector<std::string> keys;
  std::unique_ptr<ShardedDictionaryManager> mgr;
  std::unique_ptr<ConcurrentShardedIndex<BTree>> index;

  explicit Fixture(size_t n = 300, size_t shards = 4) : keys(NumberedKeys(n)) {
    ShardedDictionaryManager::Options opts;
    opts.num_shards = shards;
    opts.shard.scheme = Scheme::kSingleChar;
    opts.shard.dict_size_limit = 256;
    opts.min_shard_sample = 8;
    mgr = std::make_unique<ShardedDictionaryManager>(keys, opts);
    index = std::make_unique<ConcurrentShardedIndex<BTree>>(mgr.get());
  }
};

ServerLoop<BTree>::Options SmallLoopOptions() {
  ServerLoop<BTree>::Options opts;
  opts.num_workers = 3;
  opts.queue_capacity = 16;  // small: exercise backpressure
  opts.pin_workers = false;  // CI runners reject affinity; keep quiet
  return opts;
}

TEST(ServerLoopTest, MixedOpsExactAccountingAndCleanChecks) {
  Fixture fx;
  ServerLoop<BTree> loop(fx.index.get(), SmallLoopOptions());
  EXPECT_EQ(loop.num_workers(), 3u);

  // Phase 1: load every key with its fingerprint.
  for (const auto& k : fx.keys) {
    Request req;
    req.op = Request::Op::kInsert;
    req.key = k;
    req.value = KeyFingerprint(k);
    loop.Submit(std::move(req));
  }
  loop.WaitIdle();
  OpStats ins = loop.Snapshot(Request::Op::kInsert);
  EXPECT_EQ(ins.ops, fx.keys.size());
  EXPECT_EQ(ins.latency.count, fx.keys.size());
  EXPECT_EQ(fx.index->size(), fx.keys.size());

  // Phase 2: checked lookups (all hit), one cold miss, checked scans,
  // and erases of a tail slice.
  for (const auto& k : fx.keys) {
    Request req;
    req.op = Request::Op::kLookup;
    req.check = true;
    req.key = k;
    loop.Submit(std::move(req));
  }
  {
    Request req;
    req.op = Request::Op::kLookup;
    req.key = "zzz-absent";
    loop.Submit(std::move(req));
  }
  for (size_t i = 0; i < 10; i++) {
    Request req;
    req.op = Request::Op::kScan;
    req.check = true;
    req.key = fx.keys[i * 7];
    req.scan_count = 25;
    loop.Submit(std::move(req));
  }
  const size_t erase_from = fx.keys.size() - 20;
  for (size_t i = erase_from; i < fx.keys.size(); i++) {
    Request req;
    req.op = Request::Op::kErase;
    req.key = fx.keys[i];
    loop.Submit(std::move(req));
  }
  loop.WaitIdle();

  OpStats lk = loop.Snapshot(Request::Op::kLookup);
  EXPECT_EQ(lk.ops, fx.keys.size() + 1);
  EXPECT_EQ(lk.hits, fx.keys.size());
  EXPECT_EQ(lk.check_failures, 0u);
  EXPECT_GT(lk.latency.Percentile(0.99), 0u);
  EXPECT_LE(lk.latency.Percentile(0.5), lk.latency.Percentile(0.999));

  OpStats sc = loop.Snapshot(Request::Op::kScan);
  EXPECT_EQ(sc.ops, 10u);
  EXPECT_EQ(sc.hits, 250u);  // 10 scans x 25 entries, all ranges full
  EXPECT_EQ(sc.scan_order_violations, 0u);

  OpStats er = loop.Snapshot(Request::Op::kErase);
  EXPECT_EQ(er.ops, 20u);
  EXPECT_EQ(er.hits, 20u);
  EXPECT_EQ(fx.index->size(), fx.keys.size() - 20);

  // Phase boundary: reset clears every worker's histograms.
  loop.ResetStats();
  EXPECT_EQ(loop.Snapshot(Request::Op::kLookup).ops, 0u);
  EXPECT_EQ(loop.Snapshot(Request::Op::kInsert).latency.count, 0u);

  loop.Stop();
  loop.Stop();  // idempotent
}

TEST(ServerLoopTest, DetectsCorruptValues) {
  // Plant a wrong value and verify the check counter actually fires —
  // a self-check that cannot fail is not a check.
  Fixture fx;
  fx.index->Insert(fx.keys[0], 12345);  // not the fingerprint
  ServerLoop<BTree> loop(fx.index.get(), SmallLoopOptions());
  Request req;
  req.op = Request::Op::kLookup;
  req.check = true;
  req.key = fx.keys[0];
  loop.Submit(std::move(req));
  loop.WaitIdle();
  OpStats lk = loop.Snapshot(Request::Op::kLookup);
  EXPECT_EQ(lk.ops, 1u);
  EXPECT_EQ(lk.hits, 1u);
  EXPECT_EQ(lk.check_failures, 1u);
}

TEST(ServerLoopTest, QueueDelayAndPreStampedArrivals) {
  Fixture fx;
  ServerLoop<BTree> loop(fx.index.get(), SmallLoopOptions());
  // Closed-loop requests get stamped at Submit; every executed request
  // contributes one queue-delay sample.
  for (size_t i = 0; i < 50; i++) {
    Request req;
    req.op = Request::Op::kLookup;
    req.key = fx.keys[i];
    loop.Submit(std::move(req));
  }
  loop.WaitIdle();
  telemetry::HistogramSnapshot qd = loop.QueueDelaySnapshot();
  EXPECT_EQ(qd.count, 50u);

  // Open-loop: a pre-stamped enqueue_ns survives Submit (the generator
  // owns the arrival schedule), so an intentionally ancient stamp shows
  // up as a large queue delay — the coordinated-omission fix.
  loop.ResetStats();
  Request req;
  req.op = Request::Op::kLookup;
  req.key = fx.keys[0];
  req.enqueue_ns = ServerLoop<BTree>::NowNs() - 5'000'000'000ull;  // 5s ago
  loop.Submit(std::move(req));
  loop.WaitIdle();
  qd = loop.QueueDelaySnapshot();
  ASSERT_EQ(qd.count, 1u);
  EXPECT_GE(qd.Percentile(0.5), 4'000'000'000ull);
  // The per-op latency sees the same end-to-end window.
  OpStats lk = loop.Snapshot(Request::Op::kLookup);
  EXPECT_GE(lk.latency.Percentile(0.5), 4'000'000'000ull);
}

TEST(ServerLoopTest, RegistersMetricsAndStreamsSnapshots) {
  Fixture fx;
  telemetry::MetricRegistry registry;
  std::mutex mu;
  std::vector<telemetry::RegistrySnapshot> seen;
  ServerLoop<BTree>::Options opts = SmallLoopOptions();
  opts.registry = &registry;
  opts.stats_interval = std::chrono::milliseconds(20);
  opts.stats_sink = [&](const telemetry::RegistrySnapshot& snap) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(snap);
  };
  {
    ServerLoop<BTree> loop(fx.index.get(), opts);
    // Per-op latency histograms + counters, queue-delay histogram,
    // queue-depth and workers-pinned gauges all registered.
    EXPECT_GT(registry.size(), 10u);
    for (const auto& k : fx.keys) {
      Request req;
      req.op = Request::Op::kInsert;
      req.key = k;
      req.value = KeyFingerprint(k);
      loop.Submit(std::move(req));
    }
    loop.WaitIdle();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    loop.Stop();
    // Stop emits a final snapshot, so the sink saw >= 2 (start + final)
    // and the final one carries the insert counts.
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_GE(seen.size(), 2u);
    const std::string json = seen.back().ToJson();
    EXPECT_NE(json.find("hope_server_ops_total{op=\\\"insert\\\"}"),
              std::string::npos)
        << json;
  }
  // RAII: loop destruction deregistered everything.
  EXPECT_EQ(registry.size(), 0u);
}

TEST(ServerLoopTest, CompatSnapshotMatchesRegistry) {
  // Snapshot(op) is a thin view over the telemetry metrics: the counts
  // and latency it reports must equal what the registry exports, so
  // one histogram stands behind both the report and the export.
  Fixture fx;
  telemetry::MetricRegistry registry;
  ServerLoop<BTree>::Options opts = SmallLoopOptions();
  opts.registry = &registry;
  ServerLoop<BTree> loop(fx.index.get(), opts);
  for (const auto& k : fx.keys) {
    Request req;
    req.op = Request::Op::kLookup;
    req.check = true;
    req.key = k;
    loop.Submit(std::move(req));
  }
  for (size_t i = 0; i < 10; i++) {
    Request req;
    req.op = Request::Op::kScan;
    req.check = true;
    req.key = fx.keys[i * 7];
    req.scan_count = 25;
    loop.Submit(std::move(req));
  }
  loop.WaitIdle();
  const OpStats lk = loop.Snapshot(Request::Op::kLookup);
  const telemetry::RegistrySnapshot reg = registry.Snapshot();
  double reg_ops = -1;
  for (const auto& m : reg.metrics)
    if (m.name == "hope_server_ops_total" && !m.labels.empty() &&
        m.labels[0].second == "lookup")
      reg_ops = m.value;
  EXPECT_EQ(reg_ops, static_cast<double>(lk.ops));
  EXPECT_EQ(lk.ops, fx.keys.size());

  static constexpr const char* kOpNames[Request::kNumOps] = {
      "lookup", "insert", "erase", "scan"};
  for (size_t op = 0; op < Request::kNumOps; op++) {
    const telemetry::HistogramSnapshot lat =
        loop.Snapshot(static_cast<Request::Op>(op)).latency;
    const telemetry::RegistrySnapshot::Metric* row = nullptr;
    for (const auto& m : reg.metrics)
      if (m.name == "hope_server_latency_ns" && !m.labels.empty() &&
          m.labels[0].second == kOpNames[op])
        row = &m;
    ASSERT_NE(row, nullptr) << kOpNames[op];
    EXPECT_EQ(lat.count, row->hist.count) << kOpNames[op];
    EXPECT_EQ(lat.Percentile(0.50), row->hist.p50) << kOpNames[op];
    EXPECT_EQ(lat.Percentile(0.99), row->hist.p99) << kOpNames[op];
    EXPECT_EQ(lat.Percentile(0.999), row->hist.p999) << kOpNames[op];
  }
  EXPECT_EQ(loop.Snapshot(Request::Op::kScan).latency.count, 10u);
}

#if defined(__linux__)
/// Ids of this process's threads.
std::set<pid_t> ThreadIds() {
  std::set<pid_t> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ids.insert(static_cast<pid_t>(std::stol(entry.path().filename())));
  return ids;
}

// Pinning stays inside the CPUs the loop was given: with the creating
// thread narrowed to one CPU other than CPU 0, every thread the loop
// starts ends up allowed on that CPU alone. Worker i takes the i-th CPU
// of the mask, not CPU id i, which would leave the mask (a thread may
// widen its own affinity).
TEST(ServerLoopTest, PinnedWorkersStayInsideTheAffinityMask) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  int target = -1;
  for (int cpu = 1; cpu < CPU_SETSIZE && target < 0; cpu++)
    if (CPU_ISSET(cpu, &original)) target = cpu;
  if (target < 0) GTEST_SKIP() << "no CPU other than 0 in the mask";
  cpu_set_t narrow;
  CPU_ZERO(&narrow);
  CPU_SET(target, &narrow);
  if (sched_setaffinity(0, sizeof(narrow), &narrow) != 0)
    GTEST_SKIP() << "affinity changes rejected";
  struct Restore {
    cpu_set_t* mask;
    ~Restore() { sched_setaffinity(0, sizeof(*mask), mask); }
  } restore{&original};

  Fixture fx;
  const std::set<pid_t> before = ThreadIds();
  ServerLoop<BTree>::Options opts = SmallLoopOptions();
  opts.pin_workers = true;
  ServerLoop<BTree> loop(fx.index.get(), opts);
  // Each worker pins itself first thing; give them time to start.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (loop.workers_pinned() < loop.num_workers() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(loop.workers_pinned(), loop.num_workers());

  size_t started = 0;
  for (pid_t tid : ThreadIds()) {
    if (before.count(tid) != 0) continue;
    cpu_set_t got;
    CPU_ZERO(&got);
    if (sched_getaffinity(tid, sizeof(got), &got) != 0) continue;  // exited
    started++;
    EXPECT_EQ(CPU_COUNT(&got), 1) << "thread " << tid;
    EXPECT_TRUE(CPU_ISSET(target, &got)) << "thread " << tid;
  }
  // The workers and the maintenance thread.
  EXPECT_GE(started, loop.num_workers() + 1);
}
#endif

TEST(ServerLoopTest, DestructorStopsWithQueuedWork) {
  Fixture fx;
  auto loop =
      std::make_unique<ServerLoop<BTree>>(fx.index.get(), SmallLoopOptions());
  for (const auto& k : fx.keys) {
    Request req;
    req.op = Request::Op::kInsert;
    req.key = k;
    req.value = KeyFingerprint(k);
    loop->Submit(std::move(req));
  }
  // Destruction drains accepted work before joining.
  loop.reset();
  EXPECT_EQ(fx.index->size(), fx.keys.size());
}

}  // namespace
}  // namespace hope::serve
