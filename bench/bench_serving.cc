// Tail-latency SLO benchmark for the concurrent serving layer: a
// ServerLoop (shared-nothing pinned workers, per-worker queues) serves
// mixed request streams against a ConcurrentShardedIndex while the
// router re-balances underneath, and every op records an end-to-end
// latency into an HDR-style histogram. Three phases:
//
//   read_heavy   95/5 lookups/inserts plus a 2% scan stream, stable
//                traffic, no migration — the steady-state floor.
//   write_heavy  50/50 lookups/inserts — writer-path contention.
//   drift_0..4   kHotspotMigrate traffic walks the hotspot across the
//                key space; after each phase the rebalance trigger is
//                polled until it publishes, so the NEXT phase serves
//                while the plan's key ranges migrate shard-to-shard
//                (double-routed lookups, batched moves on the loop's
//                maintenance thread).
//
// Every lookup is self-checking (values are KeyFingerprints, so a hit
// must carry the key's own fingerprint and scans must come back in
// non-decreasing fingerprint order); check_failures / scan
// _order_violations / spot_check_failures are correctness metrics the
// diff gate treats as zero-tolerance. p50/p99/p999 rows are
// machine-bound and only gated against same-machine baselines;
// ops_per_sec is the throughput gate.
//
// Load modes: the default is closed-loop (the generator submits as fast
// as the bounded queues accept, so measured latency is service time
// under saturation). `--arrival-rate <req_per_s>` switches to open-loop:
// every request carries a pre-computed intended arrival time from a
// fixed schedule, the generator sleeps only when AHEAD of schedule, and
// latency counts from the intended arrival — so a stall penalizes every
// request it delays instead of silently pausing the clock (the
// coordinated-omission fix). The two modes measure different
// quantities, so every JSON row carries a "mode" field and the diff
// gate never compares across modes.
//
// Each phase additionally emits a series="telemetry" row from the
// unified registry: rebuild rejects and check failures (zero-tolerance
// in the diff gate), lookup slow paths per million ops (thresholded),
// EBR pending garbage, and queue-delay percentiles.
//
// Scale: HOPE_BENCH_KEYS keys (default 200000); the acceptance run uses
// 1000000+. Single-Char dictionaries keep retrain cost (23ms) out of
// the serving story — Double-Char's fixed 2^16-symbol dictionary
// (~0.07 s to build from a 1% sample of 2M emails, ~0.2 s from URLs)
// would add a 65,792-entry table to every post-rebalance retrain without
// telling us anything about the serving layer.
#include <chrono>
#include <thread>

#include "bench/bench_common.h"
#include "btree/btree.h"
#include "dynamic/background_rebuilder.h"
#include "dynamic/sharded_manager.h"
#include "serve/concurrent_index.h"
#include "serve/server_loop.h"
#include "telemetry/registry.h"
#include "telemetry/trace_log.h"
#include "workload/drift.h"

namespace hope::bench {

/// Open-loop arrival rate in req/s; 0 selects the closed-loop default.
/// Set by main() from --arrival-rate before BenchMain runs the bench.
double g_arrival_rate = 0;

namespace {

using dynamic::ShardedDictionaryManager;
using serve::ConcurrentShardedIndex;
using serve::KeyFingerprint;
using serve::OpStats;
using serve::Request;
using serve::ServerLoop;

constexpr size_t kShards = 8;
constexpr size_t kWorkers = 4;

const char* OpName(size_t op) {
  static const char* kNames[] = {"lookup", "insert", "erase", "scan"};
  return kNames[op];
}

const char* ModeName() { return g_arrival_rate > 0 ? "open" : "closed"; }

// One JSON row + table line per op that saw traffic in the phase, plus
// one series="telemetry" row with the subsystem counters the diff gate
// watches. prev_slow_paths carries the cumulative slow-path count
// across phases so the row reports a per-phase rate.
void ReportPhase(ServerLoop<BTree>& loop, ShardedDictionaryManager& mgr,
                 ConcurrentShardedIndex<BTree>& index, const char* phase,
                 double secs, uint64_t* prev_slow_paths) {
  uint64_t phase_ops = 0;
  uint64_t phase_failures = 0;
  for (size_t op = 0; op < Request::kNumOps; op++) {
    OpStats s = loop.Snapshot(static_cast<Request::Op>(op));
    if (s.ops == 0) continue;
    phase_ops += s.ops;
    phase_failures += s.check_failures + s.scan_order_violations;
    const double ops_per_sec = static_cast<double>(s.ops) / secs;
    std::printf("%-12s %-7s %9llu ops  p50 %7.1fus  p99 %7.1fus  "
                "p999 %7.1fus  %10.0f ops/s  fail %llu\n",
                phase, OpName(op), static_cast<unsigned long long>(s.ops),
                static_cast<double>(s.latency.Percentile(0.50)) / 1e3,
                static_cast<double>(s.latency.Percentile(0.99)) / 1e3,
                static_cast<double>(s.latency.Percentile(0.999)) / 1e3,
                ops_per_sec,
                static_cast<unsigned long long>(s.check_failures +
                                                s.scan_order_violations));
    Report()
        .Str("series", "serving")
        .Str("phase", phase)
        .Str("op", OpName(op))
        .Str("mode", ModeName())
        .Num("ops", static_cast<double>(s.ops))
        .Num("hits", static_cast<double>(s.hits))
        .Num("p50_ns", static_cast<double>(s.latency.Percentile(0.50)))
        .Num("p99_ns", static_cast<double>(s.latency.Percentile(0.99)))
        .Num("p999_ns", static_cast<double>(s.latency.Percentile(0.999)))
        .Num("mean_ns", s.latency.mean)
        .Num("max_ns", static_cast<double>(s.latency.max))
        .Num("ops_per_sec", ops_per_sec)
        .Failures("check_failures", s.check_failures)
        .Failures("scan_order_violations", s.scan_order_violations);
  }
  // Telemetry snapshot for the phase. Queue delay is the open-loop
  // signal (intended arrival -> execution start); in closed-loop it
  // just measures the bounded queue's depth.
  const telemetry::HistogramSnapshot qd = loop.QueueDelaySnapshot();
  uint64_t ebr_pending = mgr.reclaimer().pending();
  for (size_t i = 0; i < mgr.num_shards(); i++)
    ebr_pending += mgr.shard(i).reclaimer().pending();
  const uint64_t slow = index.lookup_slow_paths();
  const double slow_delta = static_cast<double>(slow - *prev_slow_paths);
  *prev_slow_paths = slow;
  const double mops =
      phase_ops == 0 ? 1.0 : static_cast<double>(phase_ops) / 1e6;
  Report()
      .Str("series", "telemetry")
      .Str("phase", phase)
      .Str("mode", ModeName())
      .Num("telemetry_rebuild_rejects",
           static_cast<double>(mgr.rebuilds_rejected()))
      .Num("telemetry_check_failures", static_cast<double>(phase_failures))
      .Num("telemetry_lookup_slow_paths_per_mop", slow_delta / mops)
      .Num("telemetry_ebr_pending", static_cast<double>(ebr_pending))
      .Num("telemetry_queue_delay_p50_ns",
           static_cast<double>(qd.Percentile(0.50)))
      .Num("telemetry_queue_delay_p99_ns",
           static_cast<double>(qd.Percentile(0.99)));
  loop.ResetStats();
  std::fflush(stdout);
}

void Run() {
  const size_t n = NumKeys();

  DriftOptions dopt;
  dopt.model = DriftModel::kHotspotMigrate;
  dopt.num_phases = 5;
  dopt.keys_per_phase = n;
  dopt.corpus_size = n;
  DriftingWorkload drift(dopt);
  std::vector<std::string> corpus = drift.part_a();
  corpus.insert(corpus.end(), drift.part_b().begin(), drift.part_b().end());

  ShardedDictionaryManager::Options sopt;
  sopt.num_shards = kShards;
  sopt.shard.scheme = Scheme::kSingleChar;
  sopt.shard.dict_size_limit = 256;
  sopt.shard.stats.sample_every = 2;
  sopt.shard.stats.reservoir_halflife = 512;
  sopt.traffic_ewma_alpha = 0.6;
  sopt.shard.rebuild_cpr_drop = 0.03;
  sopt.shard.rebuild_min_fill = 256;
  sopt.rebalance_trigger_ratio = 1.3;
  sopt.rebalance_min_keys = n / 10;
  sopt.rebalance_cooldown_seconds = 0.05;
  // Telemetry sinks, declared before everything that attaches to them.
  telemetry::MetricRegistry registry;
  telemetry::TraceLog trace;

  ShardedDictionaryManager mgr(SampleKeys(corpus, 0.05), sopt);
  mgr.AttachTelemetry(&registry, &trace);
  dynamic::BackgroundRebuilder rebuilder(&mgr);
  rebuilder.AttachTelemetry(&registry);
  ConcurrentShardedIndex<BTree> index(&mgr);
  index.AttachTelemetry(&registry, &trace);

  Timer preload;
  for (const auto& k : corpus) index.Insert(k, KeyFingerprint(k));
  const double preload_secs = preload.Seconds();
  std::printf("preloaded %zu keys across %zu shards in %.2fs\n",
              corpus.size(), mgr.num_shards(), preload_secs);

  const bool open_loop = g_arrival_rate > 0;
  ServerLoop<BTree>::Options lopt;
  lopt.num_workers = kWorkers;
  lopt.registry = &registry;
  // Closed-loop with bounded in-flight: latency is end-to-end from
  // Submit, so the queue bound (times service time) sets the p50 floor;
  // a deep queue would just measure its own depth. Open-loop instead
  // needs deep queues — a full queue that blocks Submit re-introduces
  // the coordinated omission the pre-stamped arrival times exist to
  // fix, and the backlog itself is what queue_delay measures.
  lopt.queue_capacity = open_loop ? 65536 : 256;
  lopt.migration_batch = 256;
  ServerLoop<BTree> loop(&index, lopt);
  std::printf("%zu workers (%zu pinned)\n", loop.num_workers(),
              loop.workers_pinned());
  if (open_loop)
    std::printf("open-loop arrival rate %.0f req/s\n", g_arrival_rate);

  // Deterministic mixed stream: position in the request stream decides
  // the op, so reruns replay byte-identical workloads.
  uint64_t prev_slow_paths = 0;
  const double ns_per_req = open_loop ? 1e9 / g_arrival_rate : 0;
  auto run_phase = [&](const char* name, size_t phase, double write_frac,
                       double scan_frac) {
    auto stream = drift.Phase(phase);
    const uint64_t t0 = ServerLoop<BTree>::NowNs();
    Timer t;
    for (size_t i = 0; i < stream.size(); i++) {
      Request req;
      req.key = stream[i];
      const double roll = static_cast<double>(i % 1000) / 1000.0;
      if (roll < scan_frac) {
        req.op = Request::Op::kScan;
        req.check = true;
        req.scan_count = 50;
      } else if (roll < scan_frac + write_frac) {
        req.op = Request::Op::kInsert;
        req.value = KeyFingerprint(req.key);
      } else {
        req.op = Request::Op::kLookup;
        req.check = true;
      }
      if (open_loop) {
        // Intended arrival from the fixed schedule: latency counts from
        // when the request SHOULD have arrived, and the generator only
        // sleeps when ahead — behind schedule it submits back-to-back
        // to catch up, so a stall penalizes every request it delayed.
        const uint64_t sched =
            t0 + static_cast<uint64_t>(static_cast<double>(i) * ns_per_req);
        req.enqueue_ns = sched;
        const uint64_t now = ServerLoop<BTree>::NowNs();
        if (sched > now)
          std::this_thread::sleep_for(std::chrono::nanoseconds(sched - now));
      }
      loop.Submit(std::move(req));
    }
    loop.WaitIdle();
    ReportPhase(loop, mgr, index, name, t.Seconds(), &prev_slow_paths);
  };

  run_phase("read_heavy", 0, /*write_frac=*/0.05, /*scan_frac=*/0.02);
  run_phase("write_heavy", 0, /*write_frac=*/0.50, /*scan_frac=*/0.02);

  // Drift phases: serve phase p, then poll the rebalance trigger until
  // its consecutive-imbalance check fires (the background worker may
  // be inside a dictionary build, so poll directly). The published
  // plan's ranges migrate under phase p+1's live traffic.
  char phase_name[32];
  for (size_t p = 0; p < drift.num_phases(); p++) {
    std::snprintf(phase_name, sizeof(phase_name), "drift_%zu", p);
    run_phase(phase_name, p, /*write_frac=*/0.10, /*scan_frac=*/0.002);
    for (int spin = 0; spin < 10; spin++) {
      mgr.PollRebalance();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  // Spot-check: after every phase and migration, a stable slice of the
  // corpus must still be exact, and a long scan must stay ordered.
  uint64_t spot_failures = 0;
  const size_t step = corpus.size() < 1000 ? 1 : corpus.size() / 1000;
  for (size_t i = 0; i < corpus.size(); i += step) {
    uint64_t v = 0;
    if (!index.Lookup(corpus[i], &v) || v != KeyFingerprint(corpus[i]))
      spot_failures++;
  }
  std::vector<uint64_t> out;
  index.Scan(corpus[0], 1000, &out);
  for (size_t j = 1; j < out.size(); j++)
    if (out[j] < out[j - 1]) spot_failures++;

  rebuilder.Stop();
  loop.Stop();
  std::printf("rebalances %llu, plans applied %llu, entries migrated %llu, "
              "reader slow paths %llu, spot-check failures %llu\n",
              static_cast<unsigned long long>(mgr.rebalances_published()),
              static_cast<unsigned long long>(index.plans_applied()),
              static_cast<unsigned long long>(index.entries_migrated()),
              static_cast<unsigned long long>(index.lookup_slow_paths()),
              static_cast<unsigned long long>(spot_failures));
  Report()
      .Str("series", "serving_summary")
      .Str("mode", ModeName())
      .Num("preload_seconds", preload_secs)
      .Num("rebalances", static_cast<double>(mgr.rebalances_published()))
      .Num("plans_applied", static_cast<double>(index.plans_applied()))
      .Num("entries_migrated", static_cast<double>(index.entries_migrated()))
      .Num("lookup_slow_paths",
           static_cast<double>(index.lookup_slow_paths()))
      .Num("router_version", static_cast<double>(index.router_version()))
      .Failures("spot_check_failures", spot_failures);
}

}  // namespace
}  // namespace hope::bench

int main(int argc, char** argv) {
  // --arrival-rate is consumed here: BenchMain owns the shared flags
  // and rejects anything it does not recognize.
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; i++) {
    if (!std::strcmp(argv[i], "--arrival-rate") && i + 1 < argc) {
      unsigned long long rate = 0;
      if (!hope::ParsePositiveUint(argv[++i], 100000000ull, &rate)) {
        std::fprintf(
            stderr, "usage: %s [--json <path>] [--arrival-rate <req_per_s>]\n",
            argv[0]);
        return 2;
      }
      hope::bench::g_arrival_rate = static_cast<double>(rate);
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  return hope::bench::BenchMain(static_cast<int>(passthrough.size()),
                                passthrough.data(), "serving",
                                hope::bench::Run);
}
