// Encode-path statistics for the dynamic dictionary manager: a sampled
// reservoir of recently encoded keys (the rebuild corpus) and an EWMA of
// the per-key compression rate (the staleness signal). Attached to every
// published Hope version through the EncodeObserver hook, so readers feed
// it for free as they encode.
//
// Hot-path cost is kept low by observing only every `sample_every`-th
// encode; the sampled updates take one mutex. All methods are
// thread-safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "hope/encoder.h"

namespace hope::dynamic {

/// Compression rate of a single key, byte-padded like
/// Hope::CompressionRate. The EWMA, the rebuild gain gate, and published
/// baselines must all use this one definition — comparing a candidate
/// measured one way against an EWMA accumulated another would bias
/// publish/reject decisions.
inline double PerKeyCpr(size_t key_size, size_t bit_len) {
  size_t padded = (bit_len + 7) / 8;
  return padded == 0 ? 1.0
                     : static_cast<double>(key_size) /
                           static_cast<double>(padded);
}

class EncodeStatsCollector : public EncodeObserver {
 public:
  struct Options {
    size_t reservoir_size = 4096;  ///< keys retained for rebuilds
    size_t sample_every = 8;       ///< observe every k-th encode (>= 1)
    double ewma_alpha = 0.02;      ///< weight of each observed key's CPR
    /// 0 (default): uniform reservoir sampling (Vitter's Algorithm R)
    /// over the stream since the last swap. > 0: recency-biased
    /// sampling — once the reservoir is full, each sampled key replaces
    /// a uniformly random slot with a fixed probability chosen so a
    /// resident key's survival halves every `reservoir_halflife`
    /// sampled keys. The rebuild/rebalance corpus then tracks fast
    /// drifts without shrinking the reservoir. Half-lives much smaller
    /// than the capacity saturate at one replacement per sample (the
    /// fastest possible turnover). NaN/negative disable (uniform).
    double reservoir_halflife = 0;
  };

  // (Delegation instead of a defaulted Options argument: GCC rejects a
  // `= {}` default for a nested struct with member initializers.)
  EncodeStatsCollector() : EncodeStatsCollector(Options{}) {}
  explicit EncodeStatsCollector(Options options);

  /// EncodeObserver: records the key into the reservoir (Vitter's
  /// algorithm R over the sampled stream) and folds its compression rate
  /// into the EWMA.
  void OnEncode(std::string_view key, size_t bit_len) override;

  /// EWMA of original bytes / byte-padded encoded bytes. Returns 0 until
  /// the first sampled key.
  double EwmaCompressionRate() const;

  uint64_t KeysObserved() const;  ///< total OnEncode calls
  uint64_t KeysSampled() const;   ///< keys that reached the reservoir stage
  size_t ReservoirFill() const;
  size_t reservoir_capacity() const { return options_.reservoir_size; }

  /// Copies the current reservoir contents (rebuild corpus).
  std::vector<std::string> ReservoirSnapshot() const;

  /// Replaces the reservoir contents (truncated to capacity) and
  /// restarts the sampling stream. Used by the sharded manager's
  /// rebalance: when a shard's key range changes, its sampled stream
  /// history no longer describes the range it owns, so the new range's
  /// slice of the rebalance corpus is seeded in its place.
  void SeedReservoir(std::vector<std::string> keys);

  /// Called by the manager when a new dictionary version is published:
  /// re-seeds the EWMA at the fresh dictionary's measured rate and
  /// restarts the reservoir's sampling stream (contents are kept, but
  /// post-swap keys displace them at full rate again, so the corpus
  /// keeps tracking drift over long lifetimes).
  void MarkRebuild(double fresh_cpr);

 private:
  const Options options_;
  /// Per-sample probability of replacing a reservoir slot in the
  /// recency-biased mode; 0 when Options::reservoir_halflife disables it.
  double replace_prob_ = 0;
  std::atomic<uint64_t> observed_{0};

  mutable Mutex mu_;
  std::mt19937_64 rng_ HOPE_GUARDED_BY(mu_){0x9E3779B97F4A7C15ull};
  std::vector<std::string> reservoir_ HOPE_GUARDED_BY(mu_);
  uint64_t sampled_ HOPE_GUARDED_BY(mu_) = 0;
  double ewma_cpr_ HOPE_GUARDED_BY(mu_) = 0;
  bool ewma_seeded_ HOPE_GUARDED_BY(mu_) = false;
};

}  // namespace hope::dynamic
