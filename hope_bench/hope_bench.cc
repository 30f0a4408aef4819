// hope_bench: the repository's benchmark. Each run builds one workload
// from a seed, measures it for a fixed number of seconds, checks every
// result against an oracle outside the timing window, and writes its
// metrics as JSON.
//
//   hope_bench --workload <name> --seed <n> --seconds <s> --json <path>
//              [--trace <path>] [--scale <f>]
//
// Workloads (hope_bench/README.md gives the reasons for each):
//   point_email       Double-Char over 2M emails in a B+tree; Zipf lookups
//   point_url         3-Grams over 500k URLs in ART; Zipf lookups
//   insert_scan_wiki  4-Grams over 1M wiki titles in HOT; alternating
//                     inserts of fresh titles and Zipf scans, with the
//                     100k newest fresh titles kept live
//   serve_steady      ConcurrentShardedIndex<B+tree> behind a ServerLoop,
//                     open loop at a fixed 20k req/s, with one forced
//                     dictionary rebuild in the middle of the window
//
// Untraced runs report the end-to-end metrics. `--trace <path>` runs the
// same workload with layer spans held in memory (trace.h), a layer probe
// and the raw-key baseline, reports the per-layer metrics, and writes a
// Chrome trace-event file. `--scale` shrinks every key and op count (the
// smoke test). Exit codes: 0 ok, 1 a result check failed (the JSON is
// still written) or a runtime error, 2 usage error.
#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "art/art.h"
#include "btree/btree.h"
#include "common/mutex.h"
#include "datasets/datasets.h"
#include "dynamic/background_rebuilder.h"
#include "dynamic/sharded_manager.h"
#include "hope/hope.h"
#include "hot/hot.h"
#include "serve/concurrent_index.h"
#include "serve/server_loop.h"
#include "trace.h"
#include "workload/workload.h"

namespace hope_bench {
namespace {

using hope::Art;
using hope::BTree;
using hope::DatasetId;
using hope::Hope;
using hope::Hot;
using hope::Scheme;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 8;
  std::string json;
  std::string trace;  ///< empty: untraced run
  double scale = 1;

  bool traced() const { return !trace.empty(); }
  size_t Scaled(size_t n) const {
    return std::max<size_t>(
        1, static_cast<size_t>(static_cast<double>(n) * scale));
  }
};

/// The run's metrics in insertion order, plus the op counts behind the
/// correctness verdict.
class Report {
 public:
  void Set(const std::string& name, double value) {
    for (auto& [n, v] : metrics_)
      if (n == name) {
        v = value;
        return;
      }
    metrics_.emplace_back(name, value);
  }

  void Count(bool ok) {
    attempted++;
    if (!ok) failed++;
  }

  bool Write(const Args& args) const {
    std::FILE* f = std::fopen(args.json.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, "
                 "\"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 args.traced() ? "true" : "false",
                 static_cast<unsigned long long>(attempted),
                 static_cast<unsigned long long>(failed));
    // A metric that could not be measured (0/0) is written as null.
    for (size_t i = 0; i < metrics_.size(); i++) {
      std::fprintf(f, "%s\"%s\": ", i ? ", " : "", metrics_[i].first.c_str());
      if (std::isfinite(metrics_[i].second))
        std::fprintf(f, "%.17g", metrics_[i].second);
      else
        std::fputs("null", f);
    }
    std::fputs("}}\n", f);
    return std::fclose(f) == 0;
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
};

constexpr size_t kWarmupOps = 200000;
constexpr size_t kProbeOps = 100000;
constexpr size_t kQueryStream = 2000000;
constexpr uint32_t kMaxScanLen = 100;
constexpr int kSetups = 3;
constexpr uint64_t kSloNs = 1000000;  ///< 1 ms latency limit
/// Library latencies are reported as the median over this many equal
/// windows of the timed phase, so a burst of interference from other
/// processes that is shorter than half the phase does not move them.
constexpr int kWindows = 16;

// ---------------------------------------------------------------------------
// Library workloads: one tree over HOPE-encoded keys, driven single-threaded.

enum class Op : uint8_t { kLookup = 0, kInsert = 1, kScan = 2 };
constexpr std::array<Op, 3> kOps = {Op::kLookup, Op::kInsert, Op::kScan};
constexpr const char* kOpNames[] = {"lookup", "insert", "scan"};

// The compile-time tree adapter: the driver is templated on the tree, so
// each probe is a direct (inlinable) call; these overloads fill the gaps
// in the trees' otherwise identical interfaces.
const char* TreeName(const BTree*) { return "btree"; }
const char* TreeName(const Art*) { return "art"; }
const char* TreeName(const Hot*) { return "hot"; }
double Depth(const BTree& t) { return t.Height(); }
double Depth(const Art& t) { return t.AverageLeafDepth(); }
double Depth(const Hot& t) { return t.AverageLeafDepth(); }

struct LibrarySpec {
  DatasetId dataset;
  size_t load_keys;    ///< loaded (sorted) during set-up
  size_t insert_pool;  ///< 0: point lookups; else insert/scan alternation
  /// Fresh keys kept live: each insert beyond this many erases the oldest
  /// fresh key, outside the timing, so the tree's size stays fixed however
  /// fast the inserts run. The pool is reused cyclically.
  size_t live_fresh;
  Scheme scheme;
  size_t dict_limit;
};

/// Exact oracle for the insert/scan workload. Every key the workload can
/// hold (loaded and insert-pool keys) gets its rank in global key order,
/// and a Fenwick tree counts the live ranks, so a scan result is checked
/// in O(len log n) against "the first min(len, live keys >= start) live
/// keys, ascending". Values name keys: the loaded key at sorted position
/// i has value i, insert-pool key j has value load_keys + j.
class ScanOracle {
 public:
  ScanOracle(const std::vector<std::string>& sorted_load,
             const std::vector<std::string>& pool)
      : rank_(sorted_load.size() + pool.size()),
        live_(rank_.size(), false),
        fenwick_(rank_.size() + 1, 0) {
    std::vector<uint32_t> order(pool.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return pool[a] < pool[b]; });
    const size_t load = sorted_load.size();
    size_t i = 0, j = 0;
    for (uint32_t r = 0; r < rank_.size(); r++) {
      if (j == order.size() || (i < load && sorted_load[i] < pool[order[j]]))
        rank_[i++] = r;
      else
        rank_[load + order[j++]] = r;
    }
    for (uint64_t v = 0; v < load; v++) MarkLive(v);
  }

  void MarkLive(uint64_t value) { Mark(value, true); }
  void MarkDead(uint64_t value) { Mark(value, false); }

  bool CheckScan(uint64_t start_value, size_t len,
                 const std::vector<uint64_t>& out) const {
    const size_t r0 = rank_[start_value];
    if (out.size() != std::min(len, live_count_ - LiveBelow(r0)))
      return false;
    size_t prev = 0;
    for (size_t k = 0; k < out.size(); k++) {
      if (out[k] >= live_.size() || !live_[out[k]]) return false;
      const size_t r = rank_[out[k]];
      if (r < r0 || (k > 0 && r <= prev)) return false;
      prev = r;
    }
    // Strictly increasing live ranks, as many as there are live keys in
    // [r0, last]: nothing in between was skipped.
    return out.empty() || LiveBelow(prev + 1) - LiveBelow(r0) == out.size();
  }

 private:
  void Mark(uint64_t value, bool live) {
    live_[value] = live;
    live ? live_count_++ : live_count_--;
    for (size_t i = rank_[value] + 1; i < fenwick_.size(); i += i & (~i + 1))
      live ? fenwick_[i]++ : fenwick_[i]--;
  }

  size_t LiveBelow(size_t r) const {
    size_t n = 0;
    for (size_t i = r; i > 0; i -= i & (~i + 1)) n += fenwick_[i];
    return n;
  }

  std::vector<uint32_t> rank_;  ///< value -> global rank
  std::vector<bool> live_;      ///< by value
  std::vector<uint32_t> fenwick_;
  size_t live_count_ = 0;
};

struct OpSpec {
  Op op;
  const std::string* key;
  uint64_t value;  ///< insert payload / expected lookup value
  uint32_t len;    ///< scan length
};

struct OpResult {
  bool found = false;
  uint64_t value = 0;
  std::vector<uint64_t> out;
};

/// Timestamps of one op: start, encode done (= tree call start), tree
/// call done, end (after the encoded key is freed).
struct OpTimes {
  uint64_t start = 0, encoded = 0, probed = 0, end = 0;
};

/// One op against `tree`: encode the key (raw when `hope` is null), then
/// the tree call. With kLayers the encode/tree boundary is stamped too.
template <bool kLayers, typename Tree>
OpTimes Execute(const Hope* hope, Tree& tree, const OpSpec& op,
                OpResult* r) {
  OpTimes t;
  r->out.clear();
  t.start = NowNs();
  {
    std::string enc;
    std::string_view key = *op.key;
    if (hope != nullptr) {
      enc = hope->Encode(key);
      key = enc;
    }
    if constexpr (kLayers) t.encoded = NowNs();
    switch (op.op) {
      case Op::kLookup:
        r->found = tree.Lookup(key, &r->value);
        break;
      case Op::kInsert:
        tree.Insert(key, op.value);
        break;
      case Op::kScan:
        tree.Scan(key, op.len, &r->out);
        break;
    }
    if constexpr (kLayers) t.probed = NowNs();
  }
  t.end = NowNs();
  return t;
}

template <typename Tree>
class LibraryRun {
 public:
  LibraryRun(const LibrarySpec& spec, const Args& args, Report* report)
      : spec_(spec), args_(args), report_(report) {}

  void Run(Trace* trace) {
    Generate();
    Setup();
    const auto warm_q = hope::GenerateZipfQueries(
        sorted_.size(), args_.Scaled(kWarmupOps), args_.seed ^ 0x77aa);
    const auto queries = hope::GenerateZipfQueries(
        sorted_.size(), args_.Scaled(kQueryStream), args_.seed ^ 0x5eed);
    const auto lens = hope::GenerateScanLengths(queries.size(), kMaxScanLen,
                                                args_.seed ^ 0x1e45);
    Phase<false>(warm_q, lens, warm_q.size(), UINT64_MAX, nullptr, nullptr);
    // The warm-up fills the fresh-key window, so from here on the tree
    // holds a fixed number of keys.
    report_->Set("bytes_per_key", BytesPerKey());

    // Untraced runs measure the whole window; the traced run splits it
    // into an untraced half and a traced half (the tracing overhead).
    std::vector<uint32_t> latency;
    std::vector<size_t> window_ends;
    const double untraced_s = trace ? args_.seconds / 2 : args_.seconds;
    Phase<false>(queries, lens, SIZE_MAX, Deadline(untraced_s), &latency,
                 nullptr, untraced_s / kWindows, &window_ends);
    ReportLatency(latency, window_ends);
    if (trace != nullptr) {
      std::vector<uint32_t> traced_latency;
      Phase<true>(queries, lens, SIZE_MAX, Deadline(args_.seconds / 2),
                  &traced_latency, trace);
      report_->Set("driver.trace_overhead_frac",
                   Mean(traced_latency) / Mean(latency) - 1);
    }
    CheckFresh();
    if (trace != nullptr) LayerProbes(*trace, queries, lens);
  }

 private:
  void Generate() {
    const size_t load = args_.Scaled(spec_.load_keys);
    auto keys = hope::GenerateDataset(
        spec_.dataset,
        load + (spec_.insert_pool ? args_.Scaled(spec_.insert_pool) : 0),
        args_.seed);
    pool_.assign(keys.begin() + static_cast<long>(load), keys.end());
    live_fresh_ = spec_.insert_pool ? args_.Scaled(spec_.live_fresh) : 0;
    keys.resize(load);
    sample_ = hope::SampleKeys(keys, 0.01);
    std::sort(keys.begin(), keys.end());
    sorted_ = std::move(keys);
    if (!pool_.empty()) oracle_ = std::make_unique<ScanOracle>(sorted_, pool_);
  }

  /// Builds the dictionary, encodes the sorted keys in one batch, and
  /// loads the tree, kSetups times; the last set-up is the one measured.
  void Setup() {
    std::vector<double> total, build, select, assign, dict, encode, load;
    for (int rep = 0; rep < kSetups; rep++) {
      tree_.reset();
      hope_.reset();
      const uint64_t t0 = NowNs();
      hope::BuildStats stats;
      hope_ = Hope::Build(spec_.scheme, sample_, spec_.dict_limit, &stats);
      const uint64_t t1 = NowNs();
      const std::vector<std::string> enc = hope_->EncodeBatch(sorted_);
      const uint64_t t2 = NowNs();
      tree_ = std::make_unique<Tree>();
      for (size_t i = 0; i < enc.size(); i++) tree_->Insert(enc[i], i);
      const uint64_t t3 = NowNs();
      total.push_back(static_cast<double>(t3 - t0) / 1e9);
      build.push_back(static_cast<double>(t1 - t0) / 1e9);
      select.push_back(stats.symbol_select_seconds);
      assign.push_back(stats.code_assign_seconds);
      dict.push_back(stats.dict_build_seconds);
      encode.push_back(static_cast<double>(t2 - t1) /
                       static_cast<double>(sorted_.size()));
      load.push_back(static_cast<double>(t3 - t2) / 1e9);
      if (rep + 1 == kSetups) {
        double raw = 0, packed = 0;
        for (size_t i = 0; i < enc.size(); i++) {
          raw += static_cast<double>(sorted_[i].size());
          packed += static_cast<double>(enc[i].size());
        }
        report_->Set("hope.cpr", raw / packed);
      }
    }
    dict_bytes_ = hope_->dict().MemoryBytes();
    report_->Set("setup_s", Median(total));
    report_->Set("hope.build_s", Median(build));
    report_->Set("hope.symbol_select_s", Median(select));
    report_->Set("hope.code_assign_s", Median(assign));
    report_->Set("hope.dict_build_s", Median(dict));
    report_->Set("hope.bulk_encode_ns_per_key", Median(encode));
    report_->Set("hope.dict_bytes", static_cast<double>(dict_bytes_));
    report_->Set("hope.dict_entries",
                 static_cast<double>(hope_->dict().NumEntries()));
    report_->Set("index.load_s", Median(load));
  }

  size_t LiveFresh() const { return std::min(inserted_, live_fresh_); }
  size_t LiveKeys() const { return sorted_.size() + LiveFresh(); }

  /// The pool index of the fresh key inserted `back` inserts ago (1: the
  /// latest); `back` is at most the pool size.
  size_t FreshIndex(size_t back) const {
    return (inserted_ - back) % pool_.size();
  }

  /// (Tree + dictionary bytes) per live key.
  double BytesPerKey() const {
    return static_cast<double>(tree_->MemoryBytes() + dict_bytes_) /
           static_cast<double>(LiveKeys());
  }

  static uint64_t Deadline(double seconds) {
    return NowNs() + static_cast<uint64_t>(seconds * 1e9);
  }

  /// The workload's i-th op.
  OpSpec NextOp(size_t i, const std::vector<uint32_t>& queries,
                const std::vector<uint32_t>& lens) const {
    const size_t slot = (spec_.insert_pool ? i / 2 : i) % queries.size();
    const uint32_t q = queries[slot];
    if (spec_.insert_pool == 0) return {Op::kLookup, &sorted_[q], q, 0};
    if (i % 2 == 0) {
      const size_t j = inserted_ % pool_.size();
      return {Op::kInsert, &pool_[j], sorted_.size() + j, 0};
    }
    return {Op::kScan, &sorted_[q], q, lens[slot % lens.size()]};
  }

  /// Checks `op`'s result. After an insert that overfills the fresh-key
  /// window it also erases the oldest fresh key, which must be present.
  bool Check(const OpSpec& op, const OpResult& r) {
    switch (op.op) {
      case Op::kLookup:
        return r.found && r.value == op.value;
      case Op::kInsert: {
        oracle_->MarkLive(op.value);
        inserted_++;
        if (inserted_ <= live_fresh_) return true;
        const size_t j = FreshIndex(live_fresh_ + 1);
        oracle_->MarkDead(sorted_.size() + j);
        return tree_->Erase(hope_->Encode(pool_[j]));
      }
      case Op::kScan:
        return oracle_->CheckScan(op.value, op.len, r.out);
    }
    return false;
  }

  /// Runs ops until `max_ops` or the deadline. Every result is checked
  /// after its timestamps are taken. With `window_ends`, records
  /// latency->size() every `window_s`.
  template <bool kTraced>
  void Phase(const std::vector<uint32_t>& queries,
             const std::vector<uint32_t>& lens, size_t max_ops,
             uint64_t deadline, std::vector<uint32_t>* latency,
             Trace* trace, double window_s = 0,
             std::vector<size_t>* window_ends = nullptr) {
    const auto window_ns = static_cast<uint64_t>(window_s * 1e9);
    uint64_t next_window = NowNs() + window_ns;
    Trace::Series* op_series[3] = {};
    Trace::Series* tree_series[3] = {};
    Trace::Series* encode_series = nullptr;
    if constexpr (kTraced) {
      const std::string tree = TreeName(static_cast<Tree*>(nullptr));
      for (size_t k = 0; k < kOps.size(); k++) {
        op_series[k] = trace->Get(std::string("op.") + kOpNames[k]);
        tree_series[k] = trace->Get(tree + "." + kOpNames[k]);
      }
      encode_series = trace->Get("hope.encode");
    }
    OpResult r;
    for (size_t i = 0; i < max_ops; i++) {
      const OpSpec op = NextOp(i, queries, lens);
      const OpTimes t = Execute<kTraced>(hope_.get(), *tree_, op, &r);
      if (latency != nullptr) latency->push_back(ClampNs(t.end - t.start));
      if constexpr (kTraced) {
        const auto k = static_cast<size_t>(op.op);
        const uint64_t req = next_request_++;
        trace->Span(op_series[k], req, t.start, t.end);
        trace->Span(encode_series, req, t.start, t.encoded);
        trace->Span(tree_series[k], req, t.encoded, t.probed);
      }
      report_->Count(Check(op, r));
      if (window_ends != nullptr && t.end >= next_window) {
        window_ends->push_back(latency->size());
        next_window += window_ns;
      }
      if (t.end >= deadline) break;
    }
    if (window_ends != nullptr &&
        (window_ends->empty() || window_ends->back() != latency->size()))
      window_ends->push_back(latency->size());
  }

  /// Per-window p50, p99 and throughput (ops over their summed
  /// latency), each reported as its median over the windows.
  void ReportLatency(const std::vector<uint32_t>& latency,
                     const std::vector<size_t>& window_ends) {
    std::vector<double> p50, p99, rate;
    size_t begin = 0;
    for (size_t end : window_ends) {
      const std::vector<uint32_t> w(latency.begin() + static_cast<long>(begin),
                                    latency.begin() + static_cast<long>(end));
      begin = end;
      if (w.empty()) continue;
      p50.push_back(Quantile(w, 0.50));
      p99.push_back(Quantile(w, 0.99));
      rate.push_back(static_cast<double>(w.size()) / (Sum(w) / 1e9));
    }
    report_->Set("latency_p50_ns", Median(p50));
    report_->Set("latency_p99_ns", Median(p99));
    report_->Set("ops_per_sec", Median(rate));
    report_->Set("samples", static_cast<double>(latency.size()));
    size_t slow = 0;
    for (uint32_t ns : latency) slow += ns > kSloNs;
    report_->Set("driver.slo_miss_frac",
                 static_cast<double>(slow) /
                     static_cast<double>(latency.size()));
  }

  /// After the timed phase every live fresh key must be found with its
  /// value, and as many of the keys erased last must be absent.
  void CheckFresh() {
    OpResult r;
    const size_t checked =
        std::min({inserted_, 2 * live_fresh_, pool_.size()});
    for (size_t back = 1; back <= checked; back++) {
      const size_t j = FreshIndex(back);
      const OpSpec op{Op::kLookup, &pool_[j], sorted_.size() + j, 0};
      Execute<false>(hope_.get(), *tree_, op, &r);
      report_->Count(back <= live_fresh_ ? r.found && r.value == op.value
                                         : !r.found);
    }
  }

  struct ProbeTimes {
    std::vector<uint32_t> encode[3];
    std::vector<uint32_t> tree[3];
  };

  /// The layer probe: Zipf lookups, inserts and scans over loaded keys,
  /// with encode and tree timed apart. An insert re-inserts a loaded key
  /// with its own value (an overwrite), so the tree's contents stay put.
  ProbeTimes Probe(const Hope* hope, Tree& tree,
                   const std::vector<uint32_t>& queries,
                   const std::vector<uint32_t>& lens) {
    ProbeTimes times;
    OpResult r;
    const size_t n = std::min(args_.Scaled(kProbeOps), queries.size());
    for (Op o : kOps) {
      const auto k = static_cast<size_t>(o);
      for (size_t i = 0; i < n; i++) {
        const uint32_t q = queries[i];
        const OpSpec op{o, &sorted_[q], q, lens[i]};
        const OpTimes t = Execute<true>(hope, tree, op, &r);
        times.encode[k].push_back(ClampNs(t.encoded - t.start));
        times.tree[k].push_back(ClampNs(t.probed - t.encoded));
        if (o == Op::kLookup) report_->Count(r.found && r.value == q);
        if (o == Op::kScan && oracle_)
          report_->Count(oracle_->CheckScan(q, op.len, r.out));
      }
    }
    return times;
  }

  void LayerProbes(Trace& trace, const std::vector<uint32_t>& queries,
                   const std::vector<uint32_t>& lens) {
    // Span coverage of the traced half: the share of op time outside the
    // encode and tree spans.
    const std::string tree_name = TreeName(static_cast<Tree*>(nullptr));
    double op_ns = 0;
    double child_ns = Sum(trace.Get("hope.encode")->durations);
    for (size_t k = 0; k < kOps.size(); k++) {
      op_ns += Sum(trace.Get(std::string("op.") + kOpNames[k])->durations);
      child_ns += Sum(trace.Get(tree_name + "." + kOpNames[k])->durations);
    }
    report_->Set("driver.span_gap_frac", 1 - child_ns / op_ns);

    const ProbeTimes enc = Probe(hope_.get(), *tree_, queries, lens);
    std::vector<uint32_t> all_encodes;
    for (const auto& e : enc.encode)
      all_encodes.insert(all_encodes.end(), e.begin(), e.end());
    const auto lookup = static_cast<size_t>(Op::kLookup);
    const double enc_lookup_ns = Mean(enc.encode[lookup]);
    const double tree_lookup_ns = Mean(enc.tree[lookup]);
    report_->Set("hope.encode_ns", Mean(all_encodes));
    report_->Set("hope.encode_p99_ns", Quantile(all_encodes, 0.99));
    report_->Set("hope.encode_share",
                 enc_lookup_ns / (enc_lookup_ns + tree_lookup_ns));
    for (size_t k = 0; k < kOps.size(); k++)
      report_->Set(std::string("index.") + kOpNames[k] + "_ns",
                   Mean(enc.tree[k]));
    const auto live = static_cast<double>(LiveKeys());
    const double bytes_per_key = BytesPerKey();
    report_->Set("index.bytes_per_key",
                 static_cast<double>(tree_->MemoryBytes()) / live);
    report_->Set("index.depth", Depth(*tree_));
    tree_.reset();

    // The paper's baseline: the same tree over raw keys, holding the same
    // live keys: the loaded ones, then the live fresh ones, oldest first.
    Tree raw;
    for (size_t i = 0; i < sorted_.size(); i++) raw.Insert(sorted_[i], i);
    for (size_t back = LiveFresh(); back > 0; back--)
      raw.Insert(pool_[FreshIndex(back)], sorted_.size() + FreshIndex(back));
    const double raw_bytes = static_cast<double>(raw.MemoryBytes()) / live;
    const ProbeTimes base = Probe(nullptr, raw, queries, lens);
    for (size_t k = 0; k < kOps.size(); k++)
      report_->Set(std::string("index.raw_") + kOpNames[k] + "_ns",
                   Mean(base.tree[k]));
    report_->Set("index.raw_bytes_per_key", raw_bytes);
    report_->Set("ratio.latency_vs_raw",
                 (enc_lookup_ns + tree_lookup_ns) / Mean(base.tree[lookup]));
    report_->Set("ratio.bytes_vs_raw", bytes_per_key / raw_bytes);
    // The library workloads have no serving loop, rebuilds or EBR.
    for (const char* name :
         {"serve.queue_share", "dynamic.rebuilds_published",
          "dynamic.rebuilds_rejected", "serve.lookup_slow_paths",
          "ebr.pending_max", "driver.backlog_max"})
      report_->Set(name, 0);
  }

  const LibrarySpec spec_;
  const Args& args_;
  Report* report_;

  std::vector<std::string> sorted_;  ///< loaded keys, ascending
  std::vector<std::string> pool_;    ///< insert pool, in insert order
  std::vector<std::string> sample_;
  std::unique_ptr<ScanOracle> oracle_;  ///< insert/scan workload only
  std::unique_ptr<Hope> hope_;
  std::unique_ptr<Tree> tree_;
  size_t dict_bytes_ = 0;
  size_t inserted_ = 0;    ///< fresh-key inserts so far
  size_t live_fresh_ = 0;  ///< spec_.live_fresh, scaled
  uint64_t next_request_ = 0;
};

// ---------------------------------------------------------------------------
// serve_steady: the serving stack under an open loop.

constexpr size_t kServeKeys = 1000000;
constexpr size_t kShards = 8;
constexpr size_t kWorkers = 2;
constexpr double kArrivalRate = 20000;  ///< req/s, never recalibrated
constexpr double kServeWarmupS = 2;
/// Forced shard rebuilds in the timed window, which put one generation
/// drain in every window. This is not the rate the traffic asks for: with
/// bench_serving's compression-drop policy (0.03, 256) the same traffic
/// publishes a few times in its first seconds, then about once a minute
/// (hope_bench/README.md), which rounds to none per window. One is the
/// fewest that makes the drain's cost part of every run.
constexpr int kRebuildsPerWindow = 1;
constexpr uint32_t kServeScanLen = 50;
constexpr uint64_t kSampleEveryNs = 10000000;  ///< backlog sampling, 10 ms
constexpr const char* kServeOpNames[] = {"lookup", "insert", "erase", "scan"};

using Request = hope::serve::Request;
using hope::serve::KeyFingerprint;

/// Tree adapter for the serving stack (ConcurrentShardedIndex<ServedTree>):
/// forwards to hope::BTree with no virtual call, keeps a registry of live
/// trees so bytes/key covers every generation of every shard, and charges
/// tree time to the calling thread's clock when one is installed (the
/// single-threaded layer probe; serving threads never install one).
class ServedTree {
 public:
  static thread_local uint64_t* clock_ns;

  ServedTree() {
    hope::MutexLock lock(RegistryMu());
    Registry().insert(this);
  }
  ~ServedTree() {
    hope::MutexLock lock(RegistryMu());
    Registry().erase(this);
  }
  ServedTree(const ServedTree&) = delete;
  ServedTree& operator=(const ServedTree&) = delete;

  void Insert(std::string_view key, uint64_t value) {
    const uint64_t t0 = clock_ns ? NowNs() : 0;
    tree_.Insert(key, value);
    if (clock_ns) *clock_ns += NowNs() - t0;
  }
  bool Lookup(std::string_view key, uint64_t* value) const {
    const uint64_t t0 = clock_ns ? NowNs() : 0;
    const bool found = tree_.Lookup(key, value);
    if (clock_ns) *clock_ns += NowNs() - t0;
    return found;
  }
  bool Erase(std::string_view key) { return tree_.Erase(key); }
  size_t Scan(std::string_view start, size_t count,
              std::vector<uint64_t>* out) const {
    const uint64_t t0 = clock_ns ? NowNs() : 0;
    const size_t n = tree_.Scan(start, count, out);
    if (clock_ns) *clock_ns += NowNs() - t0;
    return n;
  }
  size_t size() const { return tree_.size(); }

  /// Sums over every live tree; call only once all serving threads have
  /// been joined.
  static size_t LiveMemoryBytes() {
    hope::MutexLock lock(RegistryMu());
    size_t n = 0;
    for (const ServedTree* t : Registry()) n += t->tree_.MemoryBytes();
    return n;
  }
  static int MaxHeight() {
    hope::MutexLock lock(RegistryMu());
    int h = 0;
    for (const ServedTree* t : Registry()) h = std::max(h, t->tree_.Height());
    return h;
  }

 private:
  static hope::Mutex& RegistryMu() {
    static hope::Mutex mu;
    return mu;
  }
  static std::unordered_set<const ServedTree*>& Registry() {
    static std::unordered_set<const ServedTree*> live;
    return live;
  }

  BTree tree_;
};

thread_local uint64_t* ServedTree::clock_ns = nullptr;

using ServedIndex = hope::serve::ConcurrentShardedIndex<ServedTree>;
using ServedLoop = hope::serve::ServerLoop<ServedTree>;

class ServeRun {
 public:
  ServeRun(const Args& args, Report* report) : args_(args), report_(report) {}

  void Run(Trace* trace) {
    const size_t preload = args_.Scaled(kServeKeys);
    // Inserts are 5% of requests; 6% of the requests the run will send
    // leaves a margin, so the insert share never runs dry.
    const auto fresh = static_cast<size_t>(
        (kServeWarmupS + args_.seconds) * kArrivalRate * 0.06);
    keys_ = hope::GenerateDataset(DatasetId::kEmail, preload + fresh,
                                  args_.seed);
    fresh_.assign(keys_.begin() + static_cast<long>(preload), keys_.end());
    keys_.resize(preload);
    sample_ = hope::SampleKeys(keys_, 0.05);
    Setup();

    // Every shard has the never-policy, so the rebuilder only reclaims
    // retired versions; the driver forces the window's rebuilds itself.
    hope::dynamic::BackgroundRebuilder rebuilder(mgr_.get());
    ServedLoop::Options lopt;
    lopt.num_workers = kWorkers;
    // Open loop: a full queue that blocked Submit would hide the backlog.
    lopt.queue_capacity = size_t{1} << 20;
    lopt.migration_batch = 256;
    ServedLoop loop(index_.get(), lopt);

    queries_ = hope::GenerateZipfQueries(
        keys_.size(), args_.Scaled(kQueryStream), args_.seed ^ 0x5eed);
    rng_.seed(args_.seed);
    OpenLoop(loop, kServeWarmupS, 0, nullptr);
    CountLoopFailures(loop);
    loop.ResetStats();
    backlog_max_ = 0;
    ebr_pending_max_ = 0;
    const uint64_t published_before = mgr_->rebuilds_published();
    const double window_s =
        OpenLoop(loop, args_.seconds, kRebuildsPerWindow, trace);
    ReportWindow(loop, window_s);
    CountLoopFailures(loop);
    report_->Set("dynamic.rebuilds_published",
                 static_cast<double>(mgr_->rebuilds_published() -
                                     published_before));
    report_->Set("dynamic.rebuilds_rejected",
                 static_cast<double>(mgr_->rebuilds_rejected()));
    report_->Set("serve.lookup_slow_paths",
                 static_cast<double>(index_->lookup_slow_paths()));
    report_->Set("driver.backlog_max", static_cast<double>(backlog_max_));
    report_->Set("ebr.pending_max", static_cast<double>(ebr_pending_max_));
    rebuilder.Stop();
    SpotCheck();
    loop.Stop();

    size_t dict_bytes = 0, dict_entries = 0;
    for (size_t s = 0; s < mgr_->num_shards(); s++) {
      const hope::dynamic::DictSnapshot snap = mgr_->shard(s).Acquire();
      dict_bytes += snap.hope->dict().MemoryBytes();
      dict_entries += snap.hope->dict().NumEntries();
    }
    const double live = static_cast<double>(index_->size());
    const double tree_bytes =
        static_cast<double>(ServedTree::LiveMemoryBytes());
    report_->Set("bytes_per_key",
                 (tree_bytes + static_cast<double>(dict_bytes)) / live);
    report_->Set("index.bytes_per_key", tree_bytes / live);
    report_->Set("index.depth", ServedTree::MaxHeight());
    report_->Set("hope.dict_bytes", static_cast<double>(dict_bytes));
    report_->Set("hope.dict_entries", static_cast<double>(dict_entries));
    if (trace != nullptr) LayerProbes(*trace, tree_bytes + dict_bytes);
  }

 private:
  static hope::dynamic::ShardedDictionaryManager::Options ManagerOptions() {
    hope::dynamic::ShardedDictionaryManager::Options o;
    o.num_shards = kShards;
    // Single-Char keeps a rebuild at tens of milliseconds, so the cost a
    // rebuild imposes on serving is the generation drain, not the build.
    o.shard.scheme = Scheme::kSingleChar;
    o.shard.dict_size_limit = 256;
    o.shard.stats.sample_every = 2;
    o.shard.stats.reservoir_halflife = 512;
    // Every forced rebuild publishes: a compression-gain gate would make
    // the number of publishes in the window depend on the sample.
    o.shard.min_cpr_gain = -1;
    return o;
  }

  /// Manager build plus preload, kSetups times; the last one serves.
  void Setup() {
    std::vector<double> total, load;
    for (int rep = 0; rep < kSetups; rep++) {
      index_.reset();
      mgr_.reset();
      const uint64_t t0 = NowNs();
      mgr_ = std::make_unique<hope::dynamic::ShardedDictionaryManager>(
          sample_, ManagerOptions());
      index_ = std::make_unique<ServedIndex>(mgr_.get());
      const uint64_t t1 = NowNs();
      for (const std::string& k : keys_) index_->Insert(k, KeyFingerprint(k));
      const uint64_t t2 = NowNs();
      total.push_back(static_cast<double>(t2 - t0) / 1e9);
      load.push_back(static_cast<double>(t2 - t1) / 1e9);
    }
    report_->Set("setup_s", Median(total));
    report_->Set("index.load_s", Median(load));
  }

  /// 93% lookups, 5% inserts of fresh keys, 2% scans; lookup and scan
  /// keys are Zipf-chosen preloaded keys.
  Request NextRequest() {
    Request req;
    const uint64_t roll = rng_() % 100;
    if (roll < 5 && inserted_ < fresh_.size()) {
      req.op = Request::Op::kInsert;
      req.key = fresh_[inserted_++];
      req.value = KeyFingerprint(req.key);
      return req;
    }
    req.key = keys_[queries_[next_query_++ % queries_.size()]];
    req.check = true;
    if (roll >= 98) {
      req.op = Request::Op::kScan;
      req.scan_count = kServeScanLen;
    }
    return req;
  }

  static uint64_t Completed(const ServedLoop& loop) {
    uint64_t n = 0;
    for (size_t op = 0; op < Request::kNumOps; op++)
      n += loop.Snapshot(static_cast<Request::Op>(op)).ops;
    return n;
  }

  uint64_t EbrPending() const {
    uint64_t n = mgr_->reclaimer().pending();
    for (size_t s = 0; s < mgr_->num_shards(); s++)
      n += mgr_->shard(s).reclaimer().pending();
    return n;
  }

  /// Runs the generator on a thread of its own: clients are not part of
  /// the server, and on the main thread it shared a malloc arena with the
  /// preloaded index, whose frees during a generation drain stalled it
  /// for tens of milliseconds. Returns Generate()'s window length.
  double OpenLoop(ServedLoop& loop, double seconds, int rebuilds,
                  Trace* trace) {
    double window_s = 0;
    std::exception_ptr error;
    std::thread generator([&] {
      try {
        window_s = Generate(loop, seconds, rebuilds, trace);
      } catch (...) {
        error = std::current_exception();
      }
    });
    generator.join();
    if (error) std::rethrow_exception(error);
    return window_s;
  }

  /// Forces `rebuilds` shard rebuilds, evenly spaced over `seconds` from
  /// `t0`, on shards 0, 1, ... in turn. Each must publish.
  void ForceRebuilds(uint64_t t0, double seconds, int rebuilds) {
    for (int k = 0; k < rebuilds; k++) {
      const double at_s = seconds * (2 * k + 1) / (2 * rebuilds);
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
              t0 + static_cast<uint64_t>(at_s * 1e9))));
      const auto shard = static_cast<size_t>(k) % mgr_->num_shards();
      report_->Count(mgr_->shard(shard).RebuildNow(/*force=*/true) ==
                     hope::dynamic::DictionaryManager::RebuildResult::kRebuilt);
    }
  }

  /// Submits requests at kArrivalRate for `seconds`, each stamped with its
  /// intended arrival time, then waits for the loop to drain. A thread of
  /// its own forces `rebuilds` shard rebuilds meanwhile, so the generator
  /// never waits on a build. Returns the window's length in seconds, from
  /// first arrival to last completion.
  double Generate(ServedLoop& loop, double seconds, int rebuilds,
                  Trace* trace) {
    // The generator sleeps between 50 us arrivals; the default 50 us
    // timer slack would make every request late by about its own gap.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const size_t n = static_cast<size_t>(seconds * kArrivalRate);
    const double gap_ns = 1e9 / kArrivalRate;
    Trace::Series* submit = trace ? trace->Get("driver.submit") : nullptr;
    // Built up front, so the generator allocates no key while pacing.
    std::vector<Request> requests(n);
    for (Request& req : requests) req = NextRequest();
    const uint64_t completed_before = Completed(loop);
    uint64_t published = mgr_->rebuilds_published();
    std::vector<uint32_t> lag;
    lag.reserve(n);
    const uint64_t t0 = NowNs();
    std::jthread rebuild_driver([&] { ForceRebuilds(t0, seconds, rebuilds); });
    uint64_t next_sample = t0;
    for (size_t i = 0; i < n; i++) {
      Request& req = requests[i];
      const uint64_t due =
          t0 + static_cast<uint64_t>(static_cast<double>(i) * gap_ns);
      req.enqueue_ns = due;
      uint64_t now = NowNs();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = NowNs();
      }
      lag.push_back(ClampNs(now - due));
      loop.Submit(std::move(req));
      if (submit != nullptr) trace->Span(submit, i, now, NowNs());
      if (now >= next_sample) {
        next_sample = now + kSampleEveryNs;
        const uint64_t backlog = i + 1 - (Completed(loop) - completed_before);
        backlog_max_ = std::max(backlog_max_, backlog);
        ebr_pending_max_ = std::max(ebr_pending_max_, EbrPending());
        const uint64_t p = mgr_->rebuilds_published();
        if (trace != nullptr) {
          trace->Counter("driver.backlog", now, static_cast<double>(backlog));
          for (; published < p; published++)
            trace->Instant("dynamic.publish", now);
        }
        published = p;
      }
    }
    rebuild_driver.join();  // it counts into report_ too
    loop.WaitIdle();
    const double window_s = static_cast<double>(NowNs() - t0) / 1e9;
    report_->Set("driver.gen_lag_p99_ns", Quantile(lag, 0.99));
    report_->attempted += n;
    return window_s;
  }

  /// Check failures, scan-order violations and lookup misses (every
  /// looked-up key was preloaded) since the last ResetStats.
  void CountLoopFailures(const ServedLoop& loop) {
    for (size_t op = 0; op < Request::kNumOps; op++) {
      const hope::serve::OpStats s =
          loop.Snapshot(static_cast<Request::Op>(op));
      report_->failed += s.check_failures + s.scan_order_violations;
      if (static_cast<Request::Op>(op) == Request::Op::kLookup)
        report_->failed += s.ops - s.hits;
    }
  }

  void ReportWindow(const ServedLoop& loop, double window_s) {
    hope::serve::LatencyHistogram all;
    uint64_t ops = 0;
    for (size_t op = 0; op < Request::kNumOps; op++) {
      const hope::serve::OpStats s =
          loop.Snapshot(static_cast<Request::Op>(op));
      if (s.ops == 0) continue;
      all.Merge(s.latency);
      ops += s.ops;
      const std::string name = kServeOpNames[op];
      report_->Set(name + "_p50_ns",
                   static_cast<double>(s.latency.Percentile(0.50)));
      report_->Set(name + "_p99_ns",
                   static_cast<double>(s.latency.Percentile(0.99)));
      report_->Set(name + "_samples", static_cast<double>(s.ops));
    }
    report_->Set("latency_p50_ns", static_cast<double>(all.Percentile(0.50)));
    report_->Set("latency_p99_ns", static_cast<double>(all.Percentile(0.99)));
    report_->Set("ops_per_sec", static_cast<double>(ops) / window_s);
    report_->Set("samples", static_cast<double>(ops));
    // Share of requests over the limit. The histogram has no bucket
    // accessor, so bisect for the quantile whose value crosses 1 ms.
    double lo = 0, hi = 1;
    for (int i = 0; i < 40; i++) {
      const double mid = (lo + hi) / 2;
      (all.Percentile(mid) > kSloNs ? hi : lo) = mid;
    }
    report_->Set("driver.slo_miss_frac", 1 - hi);
    const hope::telemetry::HistogramSnapshot qd = loop.QueueDelaySnapshot();
    report_->Set("serve.queue_delay_p50_ns",
                 static_cast<double>(qd.Percentile(0.50)));
    report_->Set("serve.queue_delay_p99_ns",
                 static_cast<double>(qd.Percentile(0.99)));
    report_->Set("serve.service_mean_ns", all.Mean() - qd.mean);
    report_->Set("serve.queue_share", qd.mean / all.Mean());
  }

  /// bench_serving's post-run check: every fresh key inserted, a 1/1000
  /// slice of the preload, and one long ordered scan.
  void SpotCheck() {
    uint64_t v = 0;
    for (size_t j = 0; j < inserted_; j++)
      report_->Count(index_->Lookup(fresh_[j], &v) &&
                     v == KeyFingerprint(fresh_[j]));
    const size_t step = std::max<size_t>(1, keys_.size() / 1000);
    for (size_t i = 0; i < keys_.size(); i += step)
      report_->Count(index_->Lookup(keys_[i], &v) &&
                     v == KeyFingerprint(keys_[i]));
    std::vector<uint64_t> out;
    index_->Scan(keys_[0], 1000, &out);
    report_->Count(std::is_sorted(out.begin(), out.end()));
  }

  /// Single-threaded probe after the loop has stopped. Each lookup is
  /// split into route, dictionary acquire, encode, and the index lookup
  /// (whose tree time the adapter measures); overwrite inserts and scans
  /// time the index's write and range paths. Then the raw-key baseline
  /// and the dictionary build and bulk-encode costs.
  void LayerProbes(Trace& trace, double encoded_bytes) {
    const size_t n = std::min(args_.Scaled(kProbeOps), queries_.size());
    std::vector<std::string> live = keys_;
    live.insert(live.end(), fresh_.begin(),
                fresh_.begin() + static_cast<long>(inserted_));
    std::vector<std::string> live_sorted = live;
    std::sort(live_sorted.begin(), live_sorted.end());
    const auto lens = hope::GenerateScanLengths(n, kMaxScanLen, args_.seed);

    // The same lookups twice: untraced (for the tracing overhead), then
    // with a span per stage.
    Trace::Series* op = trace.Get("op.lookup");
    Trace::Series* route = trace.Get("serve.route");
    Trace::Series* acquire = trace.Get("dynamic.acquire");
    Trace::Series* encode = trace.Get("hope.encode");
    Trace::Series* lookup = trace.Get("serve.index_lookup");
    std::vector<uint32_t> plain, tree_lookup;
    uint64_t tree_ns = 0, v = 0;
    for (const bool traced : {false, true}) {
      for (size_t i = 0; i < n; i++) {
        const std::string& key = keys_[queries_[i]];
        uint64_t t[5] = {NowNs()};
        const size_t s = index_->Route(key);
        if (traced) t[1] = NowNs();
        const hope::dynamic::DictSnapshot snap = mgr_->shard(s).Acquire();
        if (traced) t[2] = NowNs();
        const std::string enc = snap.hope->Encode(key);
        if (traced) {
          t[3] = NowNs();
          tree_ns = 0;
          ServedTree::clock_ns = &tree_ns;
        }
        const bool found = index_->Lookup(key, &v);
        ServedTree::clock_ns = nullptr;
        if (traced) {
          t[4] = NowNs();
          trace.Span(route, i, t[0], t[1]);
          trace.Span(acquire, i, t[1], t[2]);
          trace.Span(encode, i, t[2], t[3]);
          trace.Span(lookup, i, t[3], t[4]);
          trace.Span(op, i, t[0], NowNs());
          tree_lookup.push_back(ClampNs(tree_ns));
        } else {
          plain.push_back(ClampNs(NowNs() - t[0]));
        }
        report_->Count(found && v == KeyFingerprint(key) && !enc.empty());
      }
    }
    const double route_ns = Mean(route->durations);
    const double acquire_ns = Mean(acquire->durations);
    const double encode_ns = Mean(encode->durations);
    const double index_ns = Mean(lookup->durations);
    report_->Set("driver.trace_overhead_frac",
                 Mean(op->durations) / Mean(plain) - 1);
    report_->Set("driver.span_gap_frac",
                 1 - (Sum(route->durations) + Sum(acquire->durations) +
                      Sum(encode->durations) + Sum(lookup->durations)) /
                         Sum(op->durations));
    report_->Set("serve.route_ns", route_ns);
    report_->Set("dynamic.acquire_ns", acquire_ns);
    report_->Set("serve.index_lookup_ns", index_ns);
    report_->Set("serve.lookup_residual_ns",
                 index_ns - route_ns - acquire_ns - encode_ns);
    report_->Set("hope.encode_ns", encode_ns);
    report_->Set("hope.encode_p99_ns", Quantile(encode->durations, 0.99));
    report_->Set("hope.encode_share", encode_ns / index_ns);
    report_->Set("index.lookup_ns", Mean(tree_lookup));

    // Overwrite inserts and scans through the index, scans checked
    // exactly against the sorted live keys.
    std::vector<uint32_t> index_insert, tree_insert, index_scan, tree_scan;
    std::vector<uint64_t> out;
    for (size_t i = 0; i < n; i++) {
      const std::string& key = keys_[queries_[i]];
      ServedTree::clock_ns = &tree_ns;
      tree_ns = 0;
      uint64_t t0 = NowNs();
      index_->Insert(key, KeyFingerprint(key));
      index_insert.push_back(ClampNs(NowNs() - t0));
      tree_insert.push_back(ClampNs(tree_ns));
      tree_ns = 0;
      out.clear();
      t0 = NowNs();
      index_->Scan(key, lens[i], &out);
      index_scan.push_back(ClampNs(NowNs() - t0));
      ServedTree::clock_ns = nullptr;
      tree_scan.push_back(ClampNs(tree_ns));
      const auto pos = static_cast<size_t>(
          std::lower_bound(live_sorted.begin(), live_sorted.end(), key) -
          live_sorted.begin());
      bool ok = out.size() ==
                std::min<size_t>(lens[i], live_sorted.size() - pos);
      for (size_t j = 0; ok && j < out.size(); j++)
        ok = out[j] == KeyFingerprint(live_sorted[pos + j]);
      report_->Count(ok);
    }
    report_->Set("serve.index_insert_ns", Mean(index_insert));
    report_->Set("serve.index_scan_ns", Mean(index_scan));
    report_->Set("index.insert_ns", Mean(tree_insert));
    report_->Set("index.scan_ns", Mean(tree_scan));

    // Raw-key baseline: one B+tree over the live keys, in insert order.
    BTree raw;
    for (const std::string& k : live) raw.Insert(k, KeyFingerprint(k));
    std::vector<uint32_t> raw_times[3];
    OpResult r;
    for (Op o : kOps) {
      for (size_t i = 0; i < n; i++) {
        const std::string& key = keys_[queries_[i]];
        const OpSpec spec{o, &key, KeyFingerprint(key), lens[i]};
        const OpTimes t = Execute<true>(nullptr, raw, spec, &r);
        raw_times[static_cast<size_t>(o)].push_back(
            ClampNs(t.probed - t.encoded));
        if (o == Op::kLookup) report_->Count(r.found && r.value == spec.value);
      }
    }
    const double live_n = static_cast<double>(live.size());
    const double raw_bytes = static_cast<double>(raw.MemoryBytes()) / live_n;
    for (size_t k = 0; k < kOps.size(); k++)
      report_->Set(std::string("index.raw_") + kOpNames[k] + "_ns",
                   Mean(raw_times[k]));
    report_->Set("index.raw_bytes_per_key", raw_bytes);
    report_->Set("ratio.latency_vs_raw",
                 (encode_ns + Mean(tree_lookup)) /
                     Mean(raw_times[static_cast<size_t>(Op::kLookup)]));
    report_->Set("ratio.bytes_vs_raw", encoded_bytes / live_n / raw_bytes);

    // The manager builds its shard dictionaries internally; time the same
    // scheme on the same sample directly for the Fig. 9 split.
    std::vector<double> build, select, assign, dict, bulk;
    for (int rep = 0; rep < kSetups; rep++) {
      hope::BuildStats stats;
      const uint64_t t0 = NowNs();
      auto h = Hope::Build(Scheme::kSingleChar, sample_, 256, &stats);
      const uint64_t t1 = NowNs();
      const std::vector<std::string> enc = h->EncodeBatch(keys_);
      const uint64_t t2 = NowNs();
      build.push_back(static_cast<double>(t1 - t0) / 1e9);
      select.push_back(stats.symbol_select_seconds);
      assign.push_back(stats.code_assign_seconds);
      dict.push_back(stats.dict_build_seconds);
      bulk.push_back(static_cast<double>(t2 - t1) /
                     static_cast<double>(keys_.size()));
    }
    double raw_len = 0, packed = 0;
    for (const std::string& k : live) {
      raw_len += static_cast<double>(k.size());
      packed += static_cast<double>(mgr_->Acquire(k).hope->Encode(k).size());
    }
    report_->Set("hope.build_s", Median(build));
    report_->Set("hope.symbol_select_s", Median(select));
    report_->Set("hope.code_assign_s", Median(assign));
    report_->Set("hope.dict_build_s", Median(dict));
    report_->Set("hope.bulk_encode_ns_per_key", Median(bulk));
    report_->Set("hope.cpr", raw_len / packed);
  }

  const Args& args_;
  Report* report_;
  std::vector<std::string> keys_;   ///< preloaded, in generated order
  std::vector<std::string> fresh_;  ///< insert pool
  std::vector<std::string> sample_;
  std::vector<uint32_t> queries_;
  size_t next_query_ = 0;
  size_t inserted_ = 0;
  std::mt19937_64 rng_;
  uint64_t backlog_max_ = 0;
  uint64_t ebr_pending_max_ = 0;
  std::unique_ptr<hope::dynamic::ShardedDictionaryManager> mgr_;
  std::unique_ptr<ServedIndex> index_;
};

// ---------------------------------------------------------------------------

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <point_email|point_url|insert_scan_wiki|"
               "serve_steady> --seed <n> --seconds <s> --json <path> "
               "[--trace <path>] [--scale <f>]\n",
               argv0);
  return 2;
}

bool ParseDouble(const char* s, double lo, double hi, double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0' || !(v >= lo && v <= hi))
    return false;
  *out = v;
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 == 0) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      errno = 0;
      args->seed = std::strtoull(value, &end, 10);
      if (errno != 0 || end == value || *end != '\0' || value[0] == '-')
        return false;
    } else if (flag == "--seconds") {
      if (!ParseDouble(value, 0.01, 3600, &args->seconds)) return false;
    } else if (flag == "--scale") {
      if (!ParseDouble(value, 1e-4, 1, &args->scale)) return false;
    } else if (flag == "--json") {
      args->json = value;
    } else if (flag == "--trace") {
      args->trace = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->json.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage(argv[0]);
  Report report;
  Trace trace;
  Trace* tr = args.traced() ? &trace : nullptr;
  const std::string& w = args.workload;
  if (w == "point_email") {
    LibraryRun<BTree>({DatasetId::kEmail, 2000000, 0, 0, Scheme::kDoubleChar,
                       size_t{1} << 16},
                      args, &report)
        .Run(tr);
  } else if (w == "point_url") {
    LibraryRun<Art>(
        {DatasetId::kUrl, 500000, 0, 0, Scheme::kThreeGrams, size_t{1} << 14},
        args, &report)
        .Run(tr);
  } else if (w == "insert_scan_wiki") {
    // The warm-up's inserts fill the fresh-key window.
    LibraryRun<Hot>({DatasetId::kWiki, 1000000, 1000000, kWarmupOps / 2,
                     Scheme::kFourGrams, size_t{1} << 14},
                    args, &report)
        .Run(tr);
  } else if (w == "serve_steady") {
    ServeRun(args, &report).Run(tr);
  } else {
    return Usage(argv[0]);
  }
  report.Set("failed_op_frac", static_cast<double>(report.failed) /
                                   static_cast<double>(report.attempted));
  if (!report.Write(args)) {
    std::fprintf(stderr, "hope_bench: cannot write %s\n", args.json.c_str());
    return 1;
  }
  if (tr != nullptr && !trace.Write(args.trace)) {
    std::fprintf(stderr, "hope_bench: cannot write %s\n", args.trace.c_str());
    return 1;
  }
  if (report.failed != 0) {
    std::fprintf(stderr, "hope_bench: %llu of %llu ops failed their check\n",
                 static_cast<unsigned long long>(report.failed),
                 static_cast<unsigned long long>(report.attempted));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hope_bench

int main(int argc, char** argv) {
  try {
    return hope_bench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hope_bench: %s\n", e.what());
    return 1;
  }
}
