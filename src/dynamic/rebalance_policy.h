// Pluggable shard re-balancing triggers: given the sharded manager's
// traffic-weight view, decide whether the load skew warrants re-deriving
// the router's boundaries. Unlike RebuildPolicy's pure predicates,
// rebalance policies may keep hysteresis state (e.g. a consecutive-poll
// counter) — the ShardedDictionaryManager serializes every evaluation
// under its rebalance mutex, so implementations still need no locking.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace hope::dynamic {

/// Snapshot of the signals a rebalance policy may consult, assembled by
/// the ShardedDictionaryManager from its traffic tracker and rebalance
/// history.
struct RebalanceSignals {
  /// Per-shard EWMA traffic shares in boundary order (sum ~1 once any
  /// traffic has been observed; initialized to 1/N).
  std::vector<double> weights;
  /// max(weights) / mean(weights): 1.0 = perfectly balanced, N = all
  /// traffic on one of N shards.
  double max_over_mean = 1.0;
  uint64_t keys_since_rebalance = 0;
  double seconds_since_rebalance = 0;
  uint64_t router_version = 0;
};

class RebalancePolicy {
 public:
  virtual ~RebalancePolicy() = default;
  /// Non-const: policies may advance hysteresis state on every call. The
  /// manager evaluates under its rebalance mutex (one caller at a time).
  virtual bool ShouldRebalance(const RebalanceSignals& s) = 0;
  virtual const char* Name() const = 0;
};

/// Triggers when max/mean shard traffic weight stays at or above
/// `trigger_ratio` for `consecutive_polls` consecutive evaluations
/// (hysteresis: one skewed poll after a traffic burst doesn't thrash the
/// router), with at least `min_keys` keys observed and at least
/// `cooldown_seconds` elapsed since the last rebalance. A non-qualifying
/// poll resets the consecutive counter. Degenerate inputs clamp:
/// trigger_ratio to >= 1 (NaN -> 1), min_keys 0 -> 1, cooldown to >= 0
/// (NaN -> 0), consecutive_polls 0 -> 1.
std::unique_ptr<RebalancePolicy> MakeWeightImbalancePolicy(
    double trigger_ratio, uint64_t min_keys = 1024,
    double cooldown_seconds = 1.0, uint32_t consecutive_polls = 2);

}  // namespace hope::dynamic
