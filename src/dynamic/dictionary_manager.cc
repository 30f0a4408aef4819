#include "dynamic/dictionary_manager.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "telemetry/trace_log.h"

namespace hope::dynamic {

namespace {

/// Below this many reservoir keys a rebuild would overfit a handful of
/// strings; wait for the collector to see more traffic.
constexpr size_t kMinRebuildCorpus = 16;

/// Options::rebuild_cpr_drop ceiling: at 1.0 the trigger could never fire.
constexpr double kMaxCprDrop = 0.99;

/// Mean per-key compression rate (PerKeyCpr averaged over the corpus) —
/// the same statistic the collector's EWMA tracks, so gate comparisons
/// and published baselines are apples-to-apples with it (the aggregate
/// byte-total ratio of Hope::CompressionRate weighs long keys more and
/// diverges from the EWMA whenever key lengths vary).
double MeanKeyCpr(const Hope& hope, const std::vector<std::string>& keys) {
  if (keys.empty()) return 0;
  double sum = 0;
  for (const auto& key : keys) {
    size_t bits = 0;
    hope.Encode(key, &bits);
    sum += PerKeyCpr(key.size(), bits);
  }
  return sum / static_cast<double>(keys.size());
}

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `now_ns` plus `seconds` (>= 0, not NaN), saturating at the clock's
/// maximum: casting a double past INT64_MAX to int64_t is undefined (on
/// x86-64 it yields INT64_MIN, which would turn a huge backoff into none).
int64_t DeadlineNs(int64_t now_ns, double seconds) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const double ns = seconds * 1e9;
  return ns < static_cast<double>(kMax - now_ns)
             ? now_ns + static_cast<int64_t>(ns)
             : kMax;
}

}  // namespace

bool DictionaryManager::InBackoff() const {
  return SteadyNowNs() < backoff_until_ns_.load(std::memory_order_relaxed);
}

DictionaryManager::DictionaryManager(
    std::unique_ptr<Hope> initial, Options options,
    const std::vector<std::string>& baseline_keys)
    : options_([&] {
        Options o = options;
        // NaN fails every comparison, so `!(x >= 0)` catches it alongside
        // the negative "off" values.
        o.rebuild_cpr_drop = !(o.rebuild_cpr_drop >= 0)
                                 ? -1.0
                                 : std::min(o.rebuild_cpr_drop, kMaxCprDrop);
        o.rebuild_min_fill = std::max<size_t>(o.rebuild_min_fill, 1);
        if (!(o.rebuild_backoff_seconds > 0)) o.rebuild_backoff_seconds = 0;
        return o;
      }()),
      collector_(options.stats) {
  if (!initial) throw std::invalid_argument("initial dictionary is null");
  double baseline = 0;
  if (!baseline_keys.empty()) {
    baseline = MeanKeyCpr(*initial, baseline_keys);
    baseline_cpr_.store(baseline);
  }
  collector_.MarkRebuild(baseline);
  current_.store(new Version{0, std::move(initial)},
                 std::memory_order_seq_cst);
}

DictionaryManager::~DictionaryManager() {
  // Retire the final version and wait out the grace period. Guarantee:
  // a reader already pinned when this retire runs (it entered Acquire()
  // before destruction began) is safe — its pin predates the retire
  // tag, so the second epoch advance (and therefore the free) waits for
  // its guard to exit, and the pointer deliberately stays published so
  // a pinned reader that has not yet loaded current_ still finds a
  // valid Version (a nullptr store would turn that window into a null
  // deref). This is the documented exception to Retire()'s
  // unreachability precondition: an Acquire() that BEGINS after
  // destruction has started is a use of a dying object and undefined
  // like any other such call — the drain cannot and does not protect
  // it. Drain also frees versions retired by earlier publishes whose
  // grace period had not yet passed.
  // ebr-exempt: destructor — no concurrent publisher exists, and Drain()
  // below waits out pinned readers before the Version is freed.
  reclaimer_.RetireDelete(current_.load(std::memory_order_seq_cst));
  reclaimer_.Drain();
}

DictSnapshot DictionaryManager::Acquire() const {
  // The guard pins the epoch across the raw load AND the shared_ptr
  // copy: the Version cannot be freed until the guard exits, and the
  // copied Hope handle keeps the snapshot valid indefinitely after.
  ebr::EpochReclaimer::Guard guard(reclaimer_);
  const Version* v = current_.load(std::memory_order_seq_cst);
  return DictSnapshot{v->epoch, v->hope};
}

bool DictionaryManager::ShouldRebuild() const {
  if (options_.rebuild_cpr_drop < 0 || InBackoff()) return false;
  if (collector_.ReservoirFill() < options_.rebuild_min_fill) return false;
  const double ewma = collector_.EwmaCompressionRate();
  const double baseline = baseline_cpr_.load();
  return ewma > 0 && baseline > 0 &&
         ewma < baseline * (1.0 - options_.rebuild_cpr_drop);
}

DictionaryManager::RebuildResult DictionaryManager::RebuildNow(bool force) {
  MutexLock lock(rebuild_mu_);
  if (!force && !ShouldRebuild()) return RebuildResult::kNotTriggered;
  telemetry::TraceLog* trace = trace_.load(std::memory_order_relaxed);
  const int32_t shard = trace_shard_.load(std::memory_order_relaxed);
  const int64_t t0 = SteadyNowNs();
  auto elapsed = [t0] {
    return static_cast<uint64_t>(SteadyNowNs() - t0);
  };
  auto reject = [&, this](RebuildResult r) {
    rejected_.fetch_add(1);
    backoff_until_ns_.store(
        DeadlineNs(SteadyNowNs(), options_.rebuild_backoff_seconds),
        std::memory_order_relaxed);
    if (trace != nullptr)
      trace->Record(telemetry::TraceEventType::kRebuildReject, shard,
                    static_cast<uint64_t>(r), elapsed());
    return r;
  };

  std::vector<std::string> corpus = collector_.ReservoirSnapshot();
  if (corpus.size() < kMinRebuildCorpus)
    return RebuildResult::kInsufficientData;

  // Every start event pairs with a finish or reject (the trigger and
  // corpus gates above emit nothing — they fire every poll).
  // ebr-exempt: rebuild_mu_ is held — publishes (the only retire source
  // for current_) are serialized with us, so the pointee cannot be freed
  // under this read.
  if (trace != nullptr)
    trace->Record(telemetry::TraceEventType::kRebuildStart, shard,
                  current_.load(std::memory_order_relaxed)->epoch);

  std::unique_ptr<Hope> candidate;
  try {
    candidate = Hope::Build(options_.scheme, corpus, options_.dict_size_limit);
  } catch (const std::exception&) {
    return reject(RebuildResult::kRejectedBuildError);
  }

  for (const std::string& key : corpus) {
    size_t bits = 0;
    std::string enc = candidate->Encode(key, &bits);
    if (candidate->Decode(enc, bits) != key)
      return reject(RebuildResult::kRejectedRoundTrip);
  }

  // The EWMA approximates the live dictionary's mean per-key CPR on
  // recent keys, so the candidate is gated on the same statistic over the
  // reservoir.
  double candidate_cpr = MeanKeyCpr(*candidate, corpus);
  double live_cpr = collector_.EwmaCompressionRate();
  if (options_.min_cpr_gain >= 0 && live_cpr > 0 &&
      candidate_cpr < live_cpr * (1.0 + options_.min_cpr_gain))
    return reject(RebuildResult::kRejectedNoGain);

  const uint64_t new_epoch = PublishLocked(std::move(candidate), candidate_cpr);
  if (trace != nullptr)
    trace->Record(telemetry::TraceEventType::kRebuildFinish, shard, new_epoch,
                  elapsed());
  return RebuildResult::kRebuilt;
}

uint64_t DictionaryManager::Publish(
    std::unique_ptr<Hope> candidate,
    const std::vector<std::string>* baseline_keys) {
  MutexLock lock(rebuild_mu_);
  std::vector<std::string> corpus =
      baseline_keys ? *baseline_keys : collector_.ReservoirSnapshot();
  // With no traffic observed yet there is nothing to measure the
  // candidate on; carry the previous baseline forward rather than storing
  // 0, which would unseed the EWMA and permanently disable the
  // CPR-drop trigger.
  double fresh_cpr = corpus.empty() ? baseline_cpr_.load()
                                    : MeanKeyCpr(*candidate, corpus);
  return PublishLocked(std::move(candidate), fresh_cpr);
}

uint64_t DictionaryManager::PublishLocked(std::unique_ptr<Hope> candidate,
                                          double fresh_cpr) {
  // rebuild_mu_ is held, so the relaxed epoch read cannot race another
  // publish; swap first, then retire — the predecessor must be
  // unreachable before it enters the limbo list.
  // ebr-exempt: rebuild_mu_ is held — publishes are serialized, so the
  // predecessor cannot be retired until this writer does it below.
  uint64_t epoch =
      current_.load(std::memory_order_relaxed)->epoch + 1;
  const Version* old = current_.exchange(
      new Version{epoch, std::move(candidate)},
      std::memory_order_seq_cst);
  epoch_.store(epoch, std::memory_order_seq_cst);
  reclaimer_.RetireDelete(old);
  baseline_cpr_.store(fresh_cpr);
  collector_.MarkRebuild(fresh_cpr);
  published_.fetch_add(1);
  return epoch;
}

void DictionaryManager::AttachTelemetry(telemetry::MetricRegistry* registry,
                                        telemetry::TraceLog* trace,
                                        int shard) {
  trace_shard_.store(shard, std::memory_order_relaxed);
  trace_.store(trace, std::memory_order_relaxed);
  reclaimer_.SetTraceLog(trace);
  if (registry == nullptr) return;
  telemetry::Labels labels;
  if (shard >= 0) labels.emplace_back("shard", std::to_string(shard));
  using MK = telemetry::MetricKind;
  auto add = [&](const char* name, MK kind, std::function<double()> read) {
    registrations_.push_back(
        registry->RegisterCallback(name, labels, kind, std::move(read)));
  };
  add("hope_dict_rebuilds_published_total", MK::kCounter,
      [this] { return static_cast<double>(rebuilds_published()); });
  add("hope_dict_rebuilds_rejected_total", MK::kCounter,
      [this] { return static_cast<double>(rebuilds_rejected()); });
  add("hope_dict_epoch", MK::kGauge,
      [this] { return static_cast<double>(epoch()); });
  add("hope_dict_baseline_cpr", MK::kGauge, [this] { return baseline_cpr(); });

  telemetry::Labels ebr_labels{{"scope", "dict"}};
  for (auto& l : labels) ebr_labels.push_back(l);
  auto ebr_regs = reclaimer_.RegisterMetrics(registry, std::move(ebr_labels));
  for (auto& r : ebr_regs) registrations_.push_back(std::move(r));
}

}  // namespace hope::dynamic
