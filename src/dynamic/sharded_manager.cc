#include "dynamic/sharded_manager.h"

#include <stdexcept>
#include <utility>

#include "telemetry/trace_log.h"

namespace hope::dynamic {

RouterVersion::RouterVersion(std::vector<std::string> sample,
                             size_t num_shards) {
  if (num_shards < 1) num_shards = 1;
  if (sample.empty() || num_shards == 1) return;
  std::sort(sample.begin(), sample.end());
  boundaries_.reserve(num_shards - 1);
  for (size_t i = 1; i < num_shards; i++) {
    // Equal-weight quantiles over the sorted sample (duplicates keep
    // their weight, so a hot key pulls boundaries toward itself).
    const std::string& b = sample[i * sample.size() / num_shards];
    // Strictly increasing boundaries only: equal quantile keys collapse
    // into one range, and a boundary at the sample minimum would leave
    // shard 0 empty over the sample.
    if ((boundaries_.empty() && b > sample.front()) ||
        (!boundaries_.empty() && b > boundaries_.back()))
      boundaries_.push_back(b);
  }
}

std::vector<std::string> DeriveWeightedBoundaries(
    std::vector<std::pair<std::string, double>> weighted, size_t num_ranges) {
  if (num_ranges < 2 || weighted.empty()) return {};
  std::sort(weighted.begin(), weighted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Merge duplicate keys so one hot key is a single cut candidate whose
  // weight is its full traffic share.
  size_t w = 0;
  for (size_t r = 1; r < weighted.size(); r++) {
    if (weighted[r].first == weighted[w].first) {
      weighted[w].second += weighted[r].second;
    } else if (++w != r) {  // guard the self-move when nothing merged yet
      weighted[w] = std::move(weighted[r]);
    }
  }
  weighted.resize(w + 1);

  double total = 0;
  for (const auto& [key, weight] : weighted) total += weight;
  if (!(total > 0)) return {};

  std::vector<std::string> boundaries;
  boundaries.reserve(num_ranges - 1);
  size_t j = 0;
  double cum = weighted[0].second;
  for (size_t i = 1; i < num_ranges; i++) {
    double target = static_cast<double>(i) * total /
                    static_cast<double>(num_ranges);
    // The boundary is the first key whose cumulative weight strictly
    // exceeds the target (matches the unweighted quantile rule: uniform
    // weights reproduce sample[i * n / N]).
    while (j + 1 < weighted.size() && cum <= target)
      cum += weighted[++j].second;
    const std::string& b = weighted[j].first;
    if ((boundaries.empty() && b > weighted.front().first) ||
        (!boundaries.empty() && b > boundaries.back()))
      boundaries.push_back(b);
  }
  return boundaries;
}

RebalancePlan DiffRouters(std::shared_ptr<const RouterVersion> from,
                          std::shared_ptr<const RouterVersion> to) {
  RebalancePlan plan;
  plan.from = from;
  plan.to = to;

  // Elementary intervals between consecutive merged boundaries: within
  // each, ownership is constant under both routers, so routing the
  // interval's first key decides the whole interval.
  std::vector<std::string> cuts;
  cuts.reserve(from->boundaries().size() + to->boundaries().size());
  std::merge(from->boundaries().begin(), from->boundaries().end(),
             to->boundaries().begin(), to->boundaries().end(),
             std::back_inserter(cuts));
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  // Crossing a cut always changes at least one router's owner (every cut
  // is a boundary of one of them), so each changed interval is its own
  // move — no two adjacent intervals share a from->to mapping.
  auto add = [&](const std::string& begin, const std::string* end) {
    size_t f = from->Route(begin);
    size_t t = to->Route(begin);
    if (f == t) return;
    plan.moves.push_back(
        {f, t, begin, end ? *end : std::string(), end != nullptr});
  };

  std::string prev;  // "" is below every boundary: the global minimum
  for (const std::string& cut : cuts) {
    add(prev, &cut);
    prev = cut;
  }
  add(prev, nullptr);
  return plan;
}

ShardedDictionaryManager::ShardedDictionaryManager(
    const std::vector<std::string>& sample, Options options)
    : options_([&] {
        Options o = options;
        // NaN fails every comparison, so the `!(x >= lo)` and `!(x > 0)`
        // forms catch it (std::clamp would pass NaN through).
        double& alpha = o.traffic_ewma_alpha;
        alpha = !(alpha >= 1e-6) ? 1e-6 : std::min(alpha, 1.0);
        o.min_rebalance_corpus = std::max<size_t>(o.min_rebalance_corpus, 2);
        double& ratio = o.rebalance_trigger_ratio;
        ratio = !(ratio > 0) ? 0.0 : std::max(ratio, 1.0);
        o.rebalance_min_keys = std::max<uint64_t>(o.rebalance_min_keys, 1);
        double& cooldown = o.rebalance_cooldown_seconds;
        if (!(cooldown > 0)) cooldown = 0;
        return o;
      }()),
      last_rebalance_(std::chrono::steady_clock::now()) {
  if (sample.empty())
    throw std::invalid_argument("sharded manager needs a non-empty sample");

  current_router_ =
      std::make_shared<const RouterVersion>(sample, options_.num_shards);
  router_ptr_.store(current_router_.get(), std::memory_order_seq_cst);

  const std::shared_ptr<const RouterVersion>& router = current_router_;
  std::vector<std::vector<std::string>> partitions(router->num_ranges());
  for (const std::string& key : sample)
    partitions[router->Route(key)].push_back(key);

  shards_.reserve(router->num_ranges());
  for (auto& partition : partitions) {
    // Tiny partitions (skewed samples, collapsed boundaries) train on the
    // whole sample so every shard starts with a usable dictionary; the
    // shard's baseline CPR still comes from its own keys.
    const std::vector<std::string>& corpus =
        partition.size() >= options_.min_shard_sample ? partition : sample;
    auto initial = Hope::Build(options_.shard.scheme, corpus,
                               options_.shard.dict_size_limit);
    const std::vector<std::string>& baseline =
        partition.empty() ? sample : partition;
    shards_.push_back(std::make_unique<DictionaryManager>(
        std::move(initial), options_.shard, baseline));
  }
  weights_.assign(shards_.size(), 1.0 / static_cast<double>(shards_.size()));
  last_observed_.assign(shards_.size(), 0);
}

ShardedDictionaryManager::~ShardedDictionaryManager() {
  // Hand the manager's reference on the final router to the reclaimer
  // and wait out the grace period. Same teardown contract as
  // ~DictionaryManager: a reader pinned before this retire runs blocks
  // the free until its guard exits (the raw pointer stays published so
  // such a reader still finds a valid version), while a Route() that
  // BEGINS after destruction has started is a use of a dying object and
  // undefined regardless. Index snapshots holding the version keep it
  // alive past the drain.
  {
    MutexLock lock(rebalance_mu_);
    reclaimer_.Retire(
        [keep = std::move(current_router_)]() mutable { keep.reset(); });
  }
  reclaimer_.Drain();
}

std::vector<uint64_t> ShardedDictionaryManager::Epochs() const {
  std::vector<uint64_t> epochs;
  epochs.reserve(shards_.size());
  for (const auto& shard : shards_) epochs.push_back(shard->epoch());
  return epochs;
}

bool ShardedDictionaryManager::ShouldRebuild() const {
  for (const auto& shard : shards_)
    if (shard->ShouldRebuild()) return true;
  return false;
}

size_t ShardedDictionaryManager::RebuildPending() {
  size_t published = 0;
  for (auto& shard : shards_)
    if (shard->RebuildNow() == DictionaryManager::RebuildResult::kRebuilt)
      published++;
  return published;
}

void ShardedDictionaryManager::UpdateTrafficWeights() {
  MutexLock lock(rebalance_mu_);
  std::vector<uint64_t> deltas(shards_.size());
  uint64_t total = 0;
  for (size_t s = 0; s < shards_.size(); s++) {
    uint64_t observed = shards_[s]->stats().KeysObserved();
    deltas[s] = observed - last_observed_[s];
    last_observed_[s] = observed;
    total += deltas[s];
  }
  // No traffic since the last poll: keep the weights (folding in a 0/0
  // share would invent data).
  if (total == 0) return;
  for (size_t s = 0; s < shards_.size(); s++) {
    double share =
        static_cast<double>(deltas[s]) / static_cast<double>(total);
    weights_[s] += options_.traffic_ewma_alpha * (share - weights_[s]);
  }
}

std::vector<double> ShardedDictionaryManager::TrafficWeights() const {
  MutexLock lock(rebalance_mu_);
  return weights_;
}

double ShardedDictionaryManager::WeightImbalanceLocked() const {
  double sum = 0, max = 0;
  for (double w : weights_) {
    sum += w;
    max = std::max(max, w);
  }
  if (!(sum > 0)) return 1.0;
  return max / (sum / static_cast<double>(weights_.size()));
}

double ShardedDictionaryManager::WeightImbalance() const {
  MutexLock lock(rebalance_mu_);
  return WeightImbalanceLocked();
}

std::shared_ptr<const RebalancePlan>
ShardedDictionaryManager::PollRebalance() {
  UpdateTrafficWeights();
  MutexLock lock(rebalance_mu_);
  if (options_.rebalance_trigger_ratio == 0) return nullptr;  // trigger off

  uint64_t observed_total = 0;
  for (uint64_t o : last_observed_) observed_total += o;
  const uint64_t keys_since = observed_total - observed_at_rebalance_;
  const double seconds_since =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    last_rebalance_)
          .count();
  const bool skewed =
      WeightImbalanceLocked() >= options_.rebalance_trigger_ratio &&
      keys_since >= options_.rebalance_min_keys &&
      seconds_since >= options_.rebalance_cooldown_seconds;
  if (!skewed) {
    rebalance_streak_ = 0;
    return nullptr;
  }
  if (++rebalance_streak_ < kRebalanceConsecutivePolls) return nullptr;
  rebalance_streak_ = 0;
  return RebalanceLocked();
}

std::shared_ptr<const RebalancePlan> ShardedDictionaryManager::RebalanceNow(
    bool force) {
  if (!force) return PollRebalance();
  // Fold in the latest traffic before deriving: a forced rebalance with
  // stale weights would underweight the hot shard's reservoir.
  UpdateTrafficWeights();
  MutexLock lock(rebalance_mu_);
  return RebalanceLocked();
}

std::shared_ptr<const RebalancePlan>
ShardedDictionaryManager::RebalanceLocked() {
  std::shared_ptr<const RouterVersion> current = current_router_;

  // The rebalance corpus is the union of the per-shard reservoirs, each
  // shard's keys weighted by its traffic share: a reservoir holds a
  // fixed-size sample of its shard's stream, so per-key weight w_s/|R_s|
  // makes the union reflect traffic, not reservoir capacity.
  std::vector<std::pair<std::string, double>> weighted;
  for (size_t s = 0; s < shards_.size(); s++) {
    std::vector<std::string> reservoir =
        shards_[s]->stats().ReservoirSnapshot();
    if (reservoir.empty()) continue;
    double per_key = std::max(weights_[s], 1e-6) /
                     static_cast<double>(reservoir.size());
    for (std::string& key : reservoir)
      weighted.emplace_back(std::move(key), per_key);
  }
  if (weighted.size() < options_.min_rebalance_corpus) {
    rebalance_noops_.fetch_add(1);
    return nullptr;
  }

  // Keep the plain keys: the retrain step partitions them by the new
  // boundaries (DeriveWeightedBoundaries consumes the pairs).
  std::vector<std::string> corpus;
  if (options_.retrain_moved_shards) {
    corpus.reserve(weighted.size());
    for (const auto& [key, weight] : weighted) corpus.push_back(key);
  }

  std::vector<std::string> boundaries =
      DeriveWeightedBoundaries(std::move(weighted), shards_.size());
  if (boundaries == current->boundaries()) {
    rebalance_noops_.fetch_add(1);
    return nullptr;
  }

  auto next = std::make_shared<const RouterVersion>(current->version() + 1,
                                                    std::move(boundaries));
  auto plan = std::make_shared<const RebalancePlan>(DiffRouters(current, next));

  // Retrain BEFORE publishing: the new version becomes visible (via the
  // wait-free router_version()) only once fully prepared, so an index
  // that sees it and calls router() never waits out the dictionary
  // builds on rebalance_mu_. Shards whose range changed get a
  // dictionary trained on their new range's slice of the corpus;
  // everyone else keeps dictionary + epoch.
  if (options_.retrain_moved_shards && !plan->moves.empty()) {
    std::vector<bool> affected(shards_.size(), false);
    for (const RebalancePlan::Move& mv : plan->moves) {
      affected[mv.from_shard] = true;
      affected[mv.to_shard] = true;
    }
    std::vector<std::vector<std::string>> parts(shards_.size());
    for (std::string& key : corpus)
      parts[next->Route(key)].push_back(std::move(key));
    for (size_t s = 0; s < shards_.size(); s++) {
      if (!affected[s]) continue;
      if (parts[s].size() >= options_.min_shard_sample) {
        try {
          shards_[s]->Publish(Hope::Build(options_.shard.scheme, parts[s],
                                          options_.shard.dict_size_limit),
                              &parts[s]);
        } catch (const std::exception&) {
          // Keep the old dictionary; the shard's own rebuild trigger will
          // adapt it once the migrated traffic arrives.
        }
      }
      // The corpus migrates with the routing: a moved shard's sampled
      // stream history describes keys it no longer owns, so its
      // reservoir restarts from the new range's slice (possibly empty —
      // it refills as the migrated traffic arrives). Seed only a quarter
      // of the capacity: the slice is already one derivation old, and a
      // full-capacity seed would dominate the next derivation too —
      // back-to-back rebalances would then feed on their own output
      // instead of fresh traffic.
      size_t seed_cap = std::max<size_t>(
          1, shards_[s]->stats().reservoir_capacity() / 4);
      if (parts[s].size() > seed_cap) parts[s].resize(seed_cap);
      shards_[s]->stats().SeedReservoir(std::move(parts[s]));
    }
  }

  current_router_ = next;
  router_ptr_.store(next.get(), std::memory_order_seq_cst);
  // Swap first, retire second: the manager's reference on the
  // superseded version is released only after every reader pinned at or
  // before the swap exits. The plan's from/to handles (and any index
  // snapshot) keep the pointee alive beyond the grace period for
  // shared_ptr holders, who need no guard.
  reclaimer_.Retire([keep = std::move(current)]() mutable { keep.reset(); });
  rebalances_.fetch_add(1);
  if (telemetry::TraceLog* t = trace_.load(std::memory_order_relaxed))
    t->Record(telemetry::TraceEventType::kRebalancePublish, -1,
              next->version(), plan->moves.size());

  // Reset the hysteresis baseline: the new boundaries equalize expected
  // load, so the skew EWMA starts over from balanced (keeping the old
  // weights would immediately re-fire the trigger on stale skew).
  weights_.assign(shards_.size(), 1.0 / static_cast<double>(shards_.size()));
  uint64_t observed_total = 0;
  for (size_t s = 0; s < shards_.size(); s++) {
    last_observed_[s] = shards_[s]->stats().KeysObserved();
    observed_total += last_observed_[s];
  }
  observed_at_rebalance_ = observed_total;
  last_rebalance_ = std::chrono::steady_clock::now();
  return plan;
}

uint64_t ShardedDictionaryManager::rebuilds_published() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->rebuilds_published();
  return n;
}

uint64_t ShardedDictionaryManager::rebuilds_rejected() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->rebuilds_rejected();
  return n;
}

void ShardedDictionaryManager::AttachTelemetry(
    telemetry::MetricRegistry* registry, telemetry::TraceLog* trace) {
  trace_.store(trace, std::memory_order_relaxed);
  reclaimer_.SetTraceLog(trace);
  for (size_t s = 0; s < shards_.size(); s++)
    shards_[s]->AttachTelemetry(registry, trace, static_cast<int>(s));
  if (registry == nullptr) return;
  using MK = telemetry::MetricKind;
  auto add = [&](const char* name, MK kind, std::function<double()> read) {
    registrations_.push_back(
        registry->RegisterCallback(name, {}, kind, std::move(read)));
  };
  add("hope_rebalance_published_total", MK::kCounter,
      [this] { return static_cast<double>(rebalances_published()); });
  add("hope_rebalance_noop_total", MK::kCounter,
      [this] { return static_cast<double>(rebalances_noop()); });
  // Takes rebalance_mu_ at snapshot time; the registry is never
  // snapshotted with rebalance_mu_ held (see registry.h lock order).
  add("hope_rebalance_weight_imbalance", MK::kGauge,
      [this] { return WeightImbalance(); });
  add("hope_router_version", MK::kGauge,
      [this] { return static_cast<double>(router_version()); });

  auto ebr_regs =
      reclaimer_.RegisterMetrics(registry, {{"scope", "router"}});
  for (auto& r : ebr_regs) registrations_.push_back(std::move(r));
}

}  // namespace hope::dynamic
