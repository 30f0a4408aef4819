// Localized-drift harness of bench_dynamic_rebuild:
// confines a DriftingWorkload's A->B blend to the key range of a single
// shard (the "victim"), so a ShardedDictionaryManager sees drift in one
// shard while every other shard's traffic stays stable.
//
// Header-only and private to bench_dynamic_rebuild, which links both
// hope_workload and hope_dynamic (it uses each).
#pragma once

#include <random>
#include <string>
#include <vector>

#include "dynamic/sharded_manager.h"
#include "workload/drift.h"

namespace hope {

/// Pre-routes the workload's part-B pool and picks the victim: the shard
/// owning the most part-B weight. Requires a model whose partition
/// predicate is orthogonal to key order (kUrlStyle), so every shard's
/// range contains B keys to drift toward.
class LocalizedDrift {
 public:
  LocalizedDrift(const DriftingWorkload& drift,
                 const dynamic::ShardedDictionaryManager& manager)
      : drift_(&drift),
        manager_(&manager),
        b_by_shard_(manager.num_shards()) {
    for (const auto& k : drift.part_b())
      b_by_shard_[manager.Route(k)].push_back(k);
    for (size_t s = 1; s < b_by_shard_.size(); s++)
      if (b_by_shard_[s].size() > b_by_shard_[victim_].size()) victim_ = s;
  }

  size_t victim() const { return victim_; }

  /// True when the corpus was too small to leave any part-B keys in the
  /// victim's range (the stream then stays stable everywhere).
  bool degenerate() const { return b_by_shard_[victim_].empty(); }

  /// Phase stream: every key starts as a stable part-A draw; draws routed
  /// to the victim shard blend toward that shard's part-B pool by the
  /// phase's mix fraction. Deterministic per (seed, phase).
  std::vector<std::string> PhaseStream(size_t phase, size_t count,
                                       uint64_t seed) const {
    std::mt19937_64 rng(seed ^ (0x10CA1ull * (phase + 1)));
    double frac_b = drift_->MixFraction(phase);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_int_distribution<size_t> pick_a(0,
                                                 drift_->part_a().size() - 1);
    const auto& b_pool = b_by_shard_[victim_];
    std::vector<std::string> keys;
    keys.reserve(count);
    for (size_t i = 0; i < count; i++) {
      const std::string& a = drift_->part_a()[pick_a(rng)];
      if (manager_->Route(a) == victim_ && !b_pool.empty() &&
          coin(rng) < frac_b) {
        std::uniform_int_distribution<size_t> pick_b(0, b_pool.size() - 1);
        keys.push_back(b_pool[pick_b(rng)]);
      } else {
        keys.push_back(a);
      }
    }
    return keys;
  }

 private:
  const DriftingWorkload* drift_;
  const dynamic::ShardedDictionaryManager* manager_;
  std::vector<std::vector<std::string>> b_by_shard_;
  size_t victim_ = 0;
};

/// Mean CPR of a key set through the sharded manager's current shard
/// dictionaries (one snapshot per shard, taken up front).
inline double MeasureShardedCpr(
    const dynamic::ShardedDictionaryManager& sharded,
    const std::vector<std::string>& keys) {
  std::vector<dynamic::DictSnapshot> snaps;
  snaps.reserve(sharded.num_shards());
  for (size_t s = 0; s < sharded.num_shards(); s++)
    snaps.push_back(sharded.shard(s).Acquire());
  size_t original = 0, compressed = 0;
  for (const auto& k : keys) {
    size_t bits = 0;
    snaps[sharded.Route(k)].hope->Encode(k, &bits);
    original += k.size();
    compressed += (bits + 7) / 8;
  }
  return compressed == 0 ? 1.0
                         : static_cast<double>(original) /
                               static_cast<double>(compressed);
}

/// max/mean of a stream's routed per-shard counts under a manager's
/// current router: 1.0 = perfectly balanced, N = every request on one of
/// N shards. The spread metric the rebalance bench and the docs quote.
inline double StreamSpread(const dynamic::ShardedDictionaryManager& mgr,
                           const std::vector<std::string>& keys) {
  std::vector<size_t> counts(mgr.num_shards(), 0);
  for (const auto& k : keys) counts[mgr.Route(k)]++;
  size_t max = 0, sum = 0;
  for (size_t c : counts) {
    max = std::max(max, c);
    sum += c;
  }
  if (sum == 0) return 1.0;
  return static_cast<double>(max) /
         (static_cast<double>(sum) / static_cast<double>(counts.size()));
}

/// "0/1/0/0"-style per-shard epoch list for reports.
inline std::string EpochsString(const std::vector<uint64_t>& epochs) {
  std::string s;
  for (size_t i = 0; i < epochs.size(); i++) {
    if (i) s += '/';
    s += std::to_string(epochs[i]);
  }
  return s;
}

}  // namespace hope
