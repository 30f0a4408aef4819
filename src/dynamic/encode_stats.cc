#include "dynamic/encode_stats.h"

#include <algorithm>
#include <cmath>

namespace hope::dynamic {

EncodeStatsCollector::EncodeStatsCollector(Options options)
    : options_([&] {
        Options o = options;
        o.reservoir_size = std::max<size_t>(1, o.reservoir_size);
        o.sample_every = std::max<size_t>(1, o.sample_every);
        o.ewma_alpha = std::clamp(o.ewma_alpha, 1e-6, 1.0);
        if (std::isnan(o.reservoir_halflife) || o.reservoir_halflife < 0)
          o.reservoir_halflife = 0;
        return o;
      }()) {
  {
    MutexLock lock(mu_);
    reservoir_.reserve(options_.reservoir_size);
  }
  if (options_.reservoir_halflife > 0) {
    // Each sample replaces a uniformly random slot with probability p, so
    // a resident key survives one sample with 1 - p/C; choose p so that
    // after H samples survival is 1/2: p = C * (1 - 2^(-1/H)), capped at
    // one replacement per sample.
    replace_prob_ = std::min(
        1.0, static_cast<double>(options_.reservoir_size) *
                 (1.0 - std::exp2(-1.0 / options_.reservoir_halflife)));
  }
}

void EncodeStatsCollector::OnEncode(std::string_view key, size_t bit_len) {
  uint64_t n = observed_.fetch_add(1, std::memory_order_relaxed);
  if (n % options_.sample_every != 0) return;

  double cpr = PerKeyCpr(key.size(), bit_len);

  MutexLock lock(mu_);
  sampled_++;
  if (ewma_seeded_) {
    ewma_cpr_ += options_.ewma_alpha * (cpr - ewma_cpr_);
  } else {
    ewma_cpr_ = cpr;
    ewma_seeded_ = true;
  }
  if (reservoir_.size() < options_.reservoir_size) {
    reservoir_.emplace_back(key);
  } else if (replace_prob_ > 0) {
    // Recency-biased mode: fixed replacement probability, so resident
    // keys decay exponentially with the configured half-life instead of
    // Algorithm R's 1/i slowdown.
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    if (coin(rng_) < replace_prob_) {
      std::uniform_int_distribution<uint64_t> slot(0, reservoir_.size() - 1);
      reservoir_[slot(rng_)].assign(key.data(), key.size());
    }
  } else {
    // Algorithm R: the i-th sampled key replaces a random slot with
    // probability capacity / i, keeping the reservoir uniform.
    std::uniform_int_distribution<uint64_t> slot(0, sampled_ - 1);
    uint64_t s = slot(rng_);
    if (s < reservoir_.size()) reservoir_[s].assign(key.data(), key.size());
  }
}

double EncodeStatsCollector::EwmaCompressionRate() const {
  MutexLock lock(mu_);
  return ewma_seeded_ ? ewma_cpr_ : 0.0;
}

uint64_t EncodeStatsCollector::KeysObserved() const {
  return observed_.load(std::memory_order_relaxed);
}

uint64_t EncodeStatsCollector::KeysSampled() const {
  MutexLock lock(mu_);
  return sampled_;
}

size_t EncodeStatsCollector::ReservoirFill() const {
  MutexLock lock(mu_);
  return reservoir_.size();
}

std::vector<std::string> EncodeStatsCollector::ReservoirSnapshot() const {
  MutexLock lock(mu_);
  return reservoir_;
}

void EncodeStatsCollector::SeedReservoir(std::vector<std::string> keys) {
  MutexLock lock(mu_);
  if (keys.size() > options_.reservoir_size)
    keys.resize(options_.reservoir_size);
  reservoir_ = std::move(keys);
  // Restart the sampling stream at the seeded contents, exactly like the
  // post-swap restart in MarkRebuild.
  sampled_ = reservoir_.size();
}

void EncodeStatsCollector::MarkRebuild(double fresh_cpr) {
  MutexLock lock(mu_);
  ewma_cpr_ = fresh_cpr;
  ewma_seeded_ = fresh_cpr > 0;
  // Restart the Algorithm-R stream at the current contents: without this,
  // replacement probability decays as capacity / lifetime-sampled and a
  // long-lived collector would stop tracking drift (new keys displace old
  // ones at full rate again after every swap).
  sampled_ = reservoir_.size();
}

}  // namespace hope::dynamic
