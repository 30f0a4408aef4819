// The dynamic dictionary manager: owns immutable, reference-counted HOPE
// dictionary versions and swaps in fresh ones as the key distribution
// drifts away from the build sample.
//
//   readers ──Acquire()──► {epoch, shared_ptr<const Hope>}   (lock-free)
//   served encodes ──OnEncode()──► EncodeStatsCollector (reservoir + EWMA)
//   CPR-drop trigger ──ShouldRebuild()──► BackgroundRebuilder ──RebuildNow()
//   candidate Hope ──validate──► Publish() ──► new epoch, old versions
//                                              live until last reader drops
//
// A snapshot stays valid for as long as the caller holds it — even past
// the manager's destruction: versions are immutable, reference-counted
// and hold no pointer back into the manager, so a reader that acquired
// epoch N can keep encoding/decoding with it while epoch N+1 (or N+5) is
// live. Encoding through a snapshot is a plain encode: only
// Encode() here and VersionedIndex's served encodes feed the collector.
//
// The current version is published through a plain atomic<const
// Version*> protected by epoch-based reclamation (common/epoch_reclaim
// .h): Acquire() pins an ebr::Guard, loads the pointer wait-free, and
// copies the refcounted Hope handle out before unpinning; Publish swaps
// the pointer and Retire()s the predecessor, which is freed once every
// reader pinned at or before the swap has exited. (atomic<shared_ptr>
// solved lifetime but libstdc++-12's _Sp_atomic futex protocol trips
// TSan under publish/acquire contention, and retaining raw pointers
// forever — the router layer's first workaround — leaks on exactly the
// long-running servers this layer targets.) Teardown drains the
// reclaimer, so destruction waits out in-flight readers instead of
// freeing a Version under them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/epoch_reclaim.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "dynamic/encode_stats.h"
#include "hope/hope.h"
#include "telemetry/registry.h"

namespace hope::dynamic {

/// An acquired dictionary version. Copyable; keeps the version alive.
struct DictSnapshot {
  uint64_t epoch = 0;
  std::shared_ptr<const Hope> hope;
};

class DictionaryManager {
 public:
  struct Options {
    Scheme scheme = Scheme::kDoubleChar;       ///< scheme for rebuilds
    size_t dict_size_limit = size_t{1} << 14;  ///< entry cap for rebuilds
    EncodeStatsCollector::Options stats;
    /// Candidate must beat the live dictionary's reservoir CPR by this
    /// fraction (0 = any improvement; negative disables the gate).
    double min_cpr_gain = 0.0;
    /// After a rejected candidate, suppress triggered rebuilds for this
    /// long: when traffic is intrinsically less compressible the trigger
    /// condition persists, and without backoff the background worker
    /// would repeat the full build+validate cycle every poll. NaN or
    /// negative clamp to 0; a deadline past the clock's range saturates
    /// (never expires).
    double rebuild_backoff_seconds = 5.0;
    /// The rebuild trigger: fire once the EWMA compression rate falls
    /// more than this fraction below the published baseline (0.05 = 5%
    /// worse). Negative or NaN disables it (the default), leaving manual
    /// RebuildNow(force) only; values above 0.99 clamp to 0.99 (at 1.0
    /// the gate could never fire).
    double rebuild_cpr_drop = -1;
    /// The trigger also waits for this many reservoir keys to rebuild
    /// from (0 clamps to 1).
    size_t rebuild_min_fill = 256;
  };

  enum class RebuildResult {
    kRebuilt,            ///< candidate validated and published
    kNotTriggered,       ///< trigger off or quiet, or backoff active
    kInsufficientData,   ///< reservoir too small to build from
    kRejectedBuildError, ///< Hope::Build failed on the reservoir corpus
    kRejectedRoundTrip,  ///< candidate failed lossless validation
    kRejectedNoGain,     ///< candidate did not improve compression enough
  };

  /// Takes ownership of the initial dictionary (epoch 0). `baseline_keys`
  /// (typically the build sample) seeds the baseline compression rate the
  /// CPR-drop trigger compares against; without it the baseline stays
  /// unknown until the first publish.
  DictionaryManager(std::unique_ptr<Hope> initial, Options options,
                    const std::vector<std::string>& baseline_keys = {});

  DictionaryManager(const DictionaryManager&) = delete;
  DictionaryManager& operator=(const DictionaryManager&) = delete;

  /// Retires the final version and drains the reclaimer: destruction
  /// blocks until every Acquire() that was already inside its guard
  /// when teardown began has exited, so those readers never touch a
  /// freed Version. (An Acquire() that starts after destruction has
  /// begun is undefined, as for any method on a dying object.)
  /// Snapshots already returned stay valid — they own the Hope via
  /// shared_ptr, not the guard.
  ~DictionaryManager();

  /// Wait-free reader snapshot of the current version (an epoch-guarded
  /// pointer load plus a refcount bump).
  DictSnapshot Acquire() const;

  /// The current version's epoch: one atomic load, no guard. Publish
  /// stores it after the swap, so an epoch read here is never ahead of
  /// what Acquire() returns.
  uint64_t epoch() const { return epoch_.load(std::memory_order_seq_cst); }

  /// Serving encode through the current version; feeds the stats
  /// collector. Encodes that are not real requests go through a
  /// snapshot's Hope instead.
  std::string Encode(std::string_view key, size_t* bit_len = nullptr) const {
    size_t bits = 0;
    std::string enc;
    Acquire().hope->EncodeTo(key, &enc, &bits);
    collector_.OnEncode(key, bits);
    if (bit_len) *bit_len = bits;
    return enc;
  }

  EncodeStatsCollector& stats() { return collector_; }
  const EncodeStatsCollector& stats() const { return collector_; }

  /// True while a rejected candidate's backoff window is active; rebuild
  /// attempts are suppressed (pollers should stop nudging).
  bool InBackoff() const;

  /// True when the CPR-drop trigger fires (see Options::rebuild_cpr_drop)
  /// and no rejection backoff is active (used by BackgroundRebuilder and
  /// external pollers).
  bool ShouldRebuild() const;

  /// Rebuilds a candidate from the reservoir, validates it (every
  /// reservoir key must round-trip encode→decode), and publishes it on
  /// success. `force` skips the trigger check (not the validation).
  /// Serialized internally — concurrent callers queue on a mutex; readers
  /// are never blocked.
  RebuildResult RebuildNow(bool force = false) HOPE_EXCLUDES(rebuild_mu_);

  /// Installs an externally built candidate unconditionally (validation
  /// belongs to the RebuildNow path), bumping the epoch. Returns the new
  /// epoch. The fresh baseline CPR is measured on `baseline_keys` when
  /// given (e.g. the corpus the caller built the candidate from), else on
  /// the reservoir.
  uint64_t Publish(std::unique_ptr<Hope> candidate,
                   const std::vector<std::string>* baseline_keys = nullptr)
      HOPE_EXCLUDES(rebuild_mu_);

  /// Lifetime counters (relaxed reads; exact only when rebuilds quiesce).
  uint64_t rebuilds_published() const { return published_.load(); }
  uint64_t rebuilds_rejected() const { return rejected_.load(); }
  double baseline_cpr() const { return baseline_cpr_.load(); }

  /// The manager's version reclaimer: retired/reclaimed counters bound
  /// the live-garbage Version count, and pollers (BackgroundRebuilder)
  /// call TryReclaim() so idle periods still free the limbo list.
  ebr::EpochReclaimer& reclaimer() const { return reclaimer_; }

  /// Registers the manager's counters/gauges (hope_dict_*, plus its
  /// reclaimer's hope_ebr_* under scope="dict") on `registry` — the
  /// existing accessors above stay the thin views they always were —
  /// and routes rebuild + EBR lifecycle events to `trace`. Labels carry
  /// shard=`shard` when >= 0 (the sharded manager's per-shard identity).
  /// Either sink may be null; both must outlive the manager. Attach
  /// before concurrent rebuild activity starts: attachment is a plain
  /// store the rebuild path reads relaxed.
  void AttachTelemetry(telemetry::MetricRegistry* registry,
                       telemetry::TraceLog* trace, int shard = -1);

 private:
  struct Version {
    uint64_t epoch;
    std::shared_ptr<const Hope> hope;
  };

  uint64_t PublishLocked(std::unique_ptr<Hope> candidate, double fresh_cpr)
      HOPE_REQUIRES(rebuild_mu_);

  const Options options_;
  /// Thread-safe; mutable so the const serving Encode() can feed it.
  mutable EncodeStatsCollector collector_;

  /// Grace periods for current_'s pointees (mutable: pinning a read
  /// guard mutates reclaimer state even on const paths).
  mutable ebr::EpochReclaimer reclaimer_;
  /// Hot-path publication point. Readers load it inside an ebr::Guard;
  /// PublishLocked swaps it and retires the predecessor.
  HOPE_EBR_PUBLISHED std::atomic<const Version*> current_;
  /// current_'s epoch, stored by PublishLocked after the swap.
  std::atomic<uint64_t> epoch_{0};
  Mutex rebuild_mu_;  ///< serializes RebuildNow/Publish
  /// Rejection-backoff deadline, steady_clock nanoseconds since epoch
  /// (atomic so lockless ShouldRebuild()/InBackoff() can read it).
  std::atomic<int64_t> backoff_until_ns_{0};
  std::atomic<double> baseline_cpr_{0};
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> rejected_{0};

  /// Lifecycle sink + the shard label rebuild events carry (-1 =
  /// unsharded). Set once by AttachTelemetry, read relaxed on the
  /// (mutex-serialized) rebuild path.
  std::atomic<telemetry::TraceLog*> trace_{nullptr};
  std::atomic<int32_t> trace_shard_{-1};
  std::vector<telemetry::MetricRegistry::Registration> registrations_;
};

}  // namespace hope::dynamic
