#include "dynamic/rebalance_policy.h"

#include <algorithm>
#include <cmath>

namespace hope::dynamic {

namespace {

class WeightImbalancePolicy final : public RebalancePolicy {
 public:
  WeightImbalancePolicy(double trigger_ratio, uint64_t min_keys,
                        double cooldown_seconds, uint32_t consecutive_polls)
      : trigger_ratio_(std::isnan(trigger_ratio)
                           ? 1.0
                           : std::max(trigger_ratio, 1.0)),
        min_keys_(std::max<uint64_t>(min_keys, 1)),
        cooldown_seconds_(std::isnan(cooldown_seconds)
                              ? 0.0
                              : std::max(cooldown_seconds, 0.0)),
        consecutive_polls_(std::max<uint32_t>(consecutive_polls, 1)) {}

  bool ShouldRebalance(const RebalanceSignals& s) override {
    bool skewed = s.max_over_mean >= trigger_ratio_ &&
                  s.keys_since_rebalance >= min_keys_ &&
                  s.seconds_since_rebalance >= cooldown_seconds_;
    if (!skewed) {
      streak_ = 0;
      return false;
    }
    if (++streak_ < consecutive_polls_) return false;
    streak_ = 0;
    return true;
  }

  const char* Name() const override { return "weight-imbalance"; }

 private:
  const double trigger_ratio_;
  const uint64_t min_keys_;
  const double cooldown_seconds_;
  const uint32_t consecutive_polls_;
  uint32_t streak_ = 0;
};

}  // namespace

std::unique_ptr<RebalancePolicy> MakeWeightImbalancePolicy(
    double trigger_ratio, uint64_t min_keys, double cooldown_seconds,
    uint32_t consecutive_polls) {
  return std::make_unique<WeightImbalancePolicy>(
      trigger_ratio, min_keys, cooldown_seconds, consecutive_polls);
}

}  // namespace hope::dynamic
