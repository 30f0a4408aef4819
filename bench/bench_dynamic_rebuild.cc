// Dynamic dictionary manager under distribution drift, three
// experiments:
//
// 1. Global drift (the fig-15 Email provider split made gradual): a
//    static dictionary (built once from a phase-0 sample, the paper's
//    protocol) versus a managed one (stats collector + CPR-drop
//    trigger + versioned hot-swap) on the same drifting key stream.
//    Series "phase"/"summary" in the JSON.
//
// 2. Localized drift (URL corpus, kUrlStyle model): only one shard's key
//    range blends toward query-style URLs while the rest of the keyspace
//    stays stable. A ShardedDictionaryManager (per-range dictionaries,
//    independent epochs) is compared against a single global managed
//    dictionary on the same stream. The sharded manager should rebuild
//    only the drifted shard — the other shards' epochs stay at 0 — while
//    matching or beating the global manager's final compression. Series
//    "localized_phase"/"localized_summary" in the JSON.
//
// 3. Hotspot migration (URL corpus, kHotspotMigrate model): traffic
//    walks from the lower half of the key space to the upper half. A
//    fixed-boundary sharded manager ends with every request on its last
//    shard; the re-balancing manager (weight-imbalance trigger, versioned
//    router, reservoir-derived boundaries) re-derives the boundaries
//    online and spreads the hot range back across all shards, while a
//    ConcurrentShardedIndex follows the RebalancePlans and must keep
//    lookups and cross-shard scans correct across every migration.
//    Series "rebalance_phase"/"rebalance_summary" in the JSON.
//
// Every experiment compares where two dictionaries end up, so rebuild
// and rebalance polls run synchronously at phase boundaries, with no
// rejection backoff and no rebalance cooldown (both are wall-clock
// gates): a background worker's timing against the key stream would
// make the compared CPRs and spreads vary run to run (one rejected
// rebuild plus a 5 s backoff would freeze the remaining phases).
//
// Each experiment ends in a verdict: the managed dictionary published a
// rebuild ("rebuilds" in "summary"), the sharded rebuilds stayed on the
// drifted shard ("rebuilds_localized"), and the re-balanced spread ended
// under the threshold ("spread_under_threshold"). A missed verdict makes
// the bench exit 1 once the report is written, as a *_failures count
// does, so the ctest smoke run gates all three. The localized verdict
// needs HOPE_BENCH_KEYS >= 10000: at 5000 and below (1000 keys per
// phase), a stable shard's thin traffic also trips a rebuild.
#include <map>

#include "bench/bench_common.h"
#include "btree/btree.h"
#include "dynamic/dictionary_manager.h"
#include "dynamic/sharded_manager.h"
#include "dynamic/versioned_index.h"
#include "serve/concurrent_index.h"
#include "workload/drift.h"
#include "bench/localized_drift.h"

namespace hope::bench {
namespace {

using dynamic::DictionaryManager;
using dynamic::ShardedDictionaryManager;
using dynamic::VersionedIndex;
using serve::ConcurrentShardedIndex;

size_t missed_verdicts = 0;

void Verdict(bool held, const char* what) {
  if (held) return;
  std::fprintf(stderr, "verdict missed: %s\n", what);
  missed_verdicts++;
}

DictionaryManager::Options ManagerOptions(Scheme scheme, size_t limit) {
  DictionaryManager::Options mopt;
  mopt.scheme = scheme;
  mopt.dict_size_limit = limit;
  mopt.stats.reservoir_size = 4096;
  mopt.stats.sample_every = 4;
  mopt.stats.ewma_alpha = 0.002;
  return mopt;
}

void RunGlobalDrift() {
  PrintHeader("Dynamic rebuild: static vs managed dictionary under drift");

  DriftOptions dopt;
  dopt.num_phases = 5;
  dopt.keys_per_phase = std::max<size_t>(NumKeys() / dopt.num_phases, 1000);
  dopt.seed = 42;
  DriftingWorkload drift(dopt);

  const Scheme scheme = Scheme::kDoubleChar;
  const size_t limit = size_t{1} << 14;
  auto phase0 = drift.Phase(0);
  auto sample = SampleKeys(phase0, 0.02);

  // Static: the paper's build-once protocol.
  auto static_dict = Hope::Build(scheme, sample, limit);

  // Managed: the same initial dictionary (cloned, not rebuilt), plus the
  // full dynamic stack.
  DictionaryManager::Options mopt = ManagerOptions(scheme, limit);
  mopt.rebuild_cpr_drop = 0.02;
  mopt.rebuild_min_fill = 1024;
  mopt.rebuild_backoff_seconds = 0;  // one poll per phase boundary
  DictionaryManager mgr(static_dict->Clone(), mopt, phase0);

  // A live index rides along: its lookups must stay correct across every
  // swap the manager publishes, before and after it adopts the swap.
  VersionedIndex<BTree> index(&mgr);
  size_t index_checked = 0, index_wrong = 0, reencoded = 0;

  std::printf("  %zu phases x %zu keys, scheme %s, drop trigger 2%%\n\n",
              drift.num_phases(), dopt.keys_per_phase, SchemeName(scheme));
  std::printf("  %-6s %7s %12s %12s %8s %9s\n", "Phase", "B-mix", "StaticCPR",
              "ManagedCPR", "Epoch", "Rebuilds");

  for (size_t p = 0; p < drift.num_phases(); p++) {
    auto keys = drift.Phase(p);

    // Serve the phase through the managed encoder (feeding the collector)
    // and keep the index current.
    for (size_t i = 0; i < keys.size(); i++) {
      mgr.Encode(keys[i]);
      if (i % 16 == 0) index.Insert(keys[i], i);
    }
    mgr.RebuildNow();  // the trigger decides whether to act

    // Spot-check the index under the dictionary it was built with
    // (lookups adopt nothing), then adopt a swap if one was published.
    for (size_t i = 0; i < keys.size(); i += 64) {
      uint64_t v = 0;
      index_checked++;
      if (!index.Peek(keys[i], &v)) index_wrong++;
    }
    reencoded += index.Refresh();

    double static_cpr = static_dict->CompressionRate(keys);
    double managed_cpr = mgr.Acquire().hope->CompressionRate(keys);
    std::printf("  %-6zu %6.0f%% %12.3f %12.3f %8llu %9llu\n", p,
                100 * drift.MixFraction(p), static_cpr, managed_cpr,
                static_cast<unsigned long long>(mgr.epoch()),
                static_cast<unsigned long long>(mgr.rebuilds_published()));
    std::fflush(stdout);
    Report()
        .Str("series", "phase")
        .Num("phase", static_cast<double>(p))
        .Num("mix_fraction_b", drift.MixFraction(p))
        .Num("static_cpr", static_cpr)
        .Num("managed_cpr", managed_cpr)
        .Num("epoch", static_cast<double>(mgr.epoch()))
        .Num("rebuilds", static_cast<double>(mgr.rebuilds_published()));
  }

  // Post-drift summary on the final distribution: the acceptance signal
  // is managed > static here.
  auto final_keys = drift.Phase(drift.num_phases() - 1);
  double static_final = static_dict->CompressionRate(final_keys);
  double managed_final = mgr.Acquire().hope->CompressionRate(final_keys);
  std::printf("\n  final distribution: static %.3fx vs managed %.3fx "
              "(%+.1f%%), %llu swaps\n",
              static_final, managed_final,
              100.0 * (managed_final / static_final - 1.0),
              static_cast<unsigned long long>(mgr.rebuilds_published()));
  std::printf("  index: %zu/%zu spot lookups correct across swaps, "
              "%zu entries re-encoded by Refresh\n",
              index_checked - index_wrong, index_checked, reencoded);
  Report()
      .Str("series", "summary")
      .Num("static_cpr_final", static_final)
      .Num("managed_cpr_final", managed_final)
      .Num("managed_gain_percent",
           100.0 * (managed_final / static_final - 1.0))
      .Num("rebuilds", static_cast<double>(mgr.rebuilds_published()))
      .Num("rebuilds_rejected", static_cast<double>(mgr.rebuilds_rejected()))
      .Num("index_lookups_checked", static_cast<double>(index_checked))
      .Failures("index_lookup_failures", index_wrong)
      .Num("index_migrated", static_cast<double>(reencoded));
  Verdict(mgr.rebuilds_published() > 0,
          "global drift: the managed dictionary published no rebuild");
}

void RunLocalizedDrift() {
  PrintHeader("Localized drift: sharded vs global managed dictionary");

  // URL corpus with the kUrlStyle model: part A (path-style) and part B
  // (query-style) both span the whole host-ordered key range, so drift
  // can be confined to one shard's range.
  DriftOptions dopt;
  dopt.model = DriftModel::kUrlStyle;
  dopt.num_phases = 5;
  dopt.keys_per_phase = std::max<size_t>(NumKeys() / dopt.num_phases, 1000);
  dopt.seed = 1234;
  DriftingWorkload drift(dopt);

  const Scheme scheme = Scheme::kDoubleChar;
  const size_t limit = size_t{1} << 14;
  const size_t num_shards = 4;
  auto phase0 = drift.Phase(0);
  // A denser sample than the global experiment's 2%: it is split N ways,
  // and each shard's baseline CPR is measured on its own partition.
  auto sample = SampleKeys(phase0, 0.05);

  // Per-shard traffic is 1/N of the stream, so shards sample denser and
  // average faster than the global experiment; the 1% publish gain gate
  // keeps a stable shard's no-better-than-live candidates from bumping
  // epochs on baseline noise (they are rejected, not published).
  auto manager_options = [&] {
    DictionaryManager::Options mopt = ManagerOptions(scheme, limit);
    mopt.stats.sample_every = 2;
    mopt.stats.ewma_alpha = 0.005;
    mopt.min_cpr_gain = 0.01;
    mopt.rebuild_backoff_seconds = 0;  // one poll per phase boundary
    mopt.rebuild_cpr_drop = 0.03;
    mopt.rebuild_min_fill = 256;
    return mopt;
  };

  ShardedDictionaryManager::Options sopt;
  sopt.num_shards = num_shards;
  sopt.shard = manager_options();
  ShardedDictionaryManager sharded(sample, sopt);

  DictionaryManager global(Hope::Build(scheme, sample, limit),
                           manager_options(), phase0);

  // Confine the drift to the shard owning the most part-B weight.
  LocalizedDrift localized_drift(drift, sharded);
  const size_t victim = localized_drift.victim();
  if (localized_drift.degenerate())
    std::printf("  note: corpus too small for a drifting shard; "
                "stream stays stable\n");

  ConcurrentShardedIndex<BTree> index(&sharded);
  size_t index_checked = 0, index_wrong = 0;
  // Shards whose manager published after their last insert serve under
  // their old dictionary until an insert or an idle poll adopts the swap.
  size_t lagged = 0, still_lagging = 0;
  auto lagging = [&] {
    const std::vector<uint64_t> adopted = index.ShardEpochs();
    const std::vector<uint64_t> current = sharded.Epochs();
    size_t n = 0;
    for (size_t s = 0; s < num_shards; s++) n += adopted[s] != current[s];
    return n;
  };

  auto phase_stream = [&](size_t phase) {
    return localized_drift.PhaseStream(phase, dopt.keys_per_phase, dopt.seed);
  };

  std::printf("  %zu phases x %zu keys, %zu shards, victim shard %zu, "
              "scheme %s, drop trigger 3%% + 1%% gain gate\n\n",
              drift.num_phases(), dopt.keys_per_phase, sharded.num_shards(),
              victim, SchemeName(scheme));
  std::printf("  %-6s %7s %12s %12s %8s %12s\n", "Phase", "B-mix",
              "GlobalCPR", "ShardedCPR", "G-epoch", "ShardEpochs");

  for (size_t p = 0; p < drift.num_phases(); p++) {
    auto keys = phase_stream(p);
    for (size_t i = 0; i < keys.size(); i++) {
      global.Encode(keys[i]);
      sharded.Encode(keys[i]);
      if (i % 16 == 0) index.Insert(keys[i], i);
    }
    global.RebuildNow();
    sharded.RebuildPending();
    for (size_t i = 0; i < keys.size(); i += 64) {
      uint64_t v = 0;
      index_checked++;
      if (!index.Lookup(keys[i], &v)) index_wrong++;
    }
    // No plan is pending, so one poll only adopts the swaps.
    lagged += lagging();
    index.PollMigration();
    still_lagging += lagging();

    double global_cpr = global.Acquire().hope->CompressionRate(keys);
    double sharded_cpr = MeasureShardedCpr(sharded, keys);
    auto epochs = sharded.Epochs();
    std::printf("  %-6zu %6.0f%% %12.3f %12.3f %8llu %12s\n", p,
                100 * drift.MixFraction(p), global_cpr, sharded_cpr,
                static_cast<unsigned long long>(global.epoch()),
                EpochsString(epochs).c_str());
    std::fflush(stdout);
    Report()
        .Str("series", "localized_phase")
        .Num("phase", static_cast<double>(p))
        .Num("mix_fraction_b", drift.MixFraction(p))
        .Num("global_cpr", global_cpr)
        .Num("sharded_cpr", sharded_cpr)
        .Num("global_epoch", static_cast<double>(global.epoch()))
        .Num("victim_epoch", static_cast<double>(epochs[victim]))
        .Str("shard_epochs", EpochsString(epochs));
  }
  auto final_keys = phase_stream(drift.num_phases() - 1);
  double global_final = global.Acquire().hope->CompressionRate(final_keys);
  double sharded_final = MeasureShardedCpr(sharded, final_keys);
  auto epochs = sharded.Epochs();
  uint64_t max_other_epoch = 0;
  for (size_t s = 0; s < epochs.size(); s++)
    if (s != victim) max_other_epoch = std::max(max_other_epoch, epochs[s]);
  bool localized = epochs[victim] > 0 && max_other_epoch == 0;

  std::printf("\n  final: global %.3fx vs sharded %.3fx (%+.1f%%); "
              "victim epoch %llu, other shards' max epoch %llu -> %s\n",
              global_final, sharded_final,
              100.0 * (sharded_final / global_final - 1.0),
              static_cast<unsigned long long>(epochs[victim]),
              static_cast<unsigned long long>(max_other_epoch),
              localized ? "rebuilds localized" : "NOT localized");
  std::printf("  index: %zu/%zu spot lookups correct across swaps, "
              "%zu shard swaps adopted by an idle poll, %zu missed\n",
              index_checked - index_wrong, index_checked, lagged,
              still_lagging);
  Report()
      .Str("series", "localized_summary")
      .Num("num_shards", static_cast<double>(sharded.num_shards()))
      .Num("victim_shard", static_cast<double>(victim))
      .Num("global_cpr_final", global_final)
      .Num("sharded_cpr_final", sharded_final)
      .Num("sharded_gain_percent",
           100.0 * (sharded_final / global_final - 1.0))
      .Num("victim_epoch", static_cast<double>(epochs[victim]))
      .Num("max_other_epoch", static_cast<double>(max_other_epoch))
      .Num("rebuilds_localized", localized ? 1 : 0)
      .Num("global_rebuilds", static_cast<double>(global.rebuilds_published()))
      .Num("sharded_rebuilds",
           static_cast<double>(sharded.rebuilds_published()))
      .Str("shard_epochs", EpochsString(epochs))
      .Num("index_lookups_checked", static_cast<double>(index_checked))
      .Failures("index_lookup_failures", index_wrong)
      .Num("index_shards_lagging", static_cast<double>(lagged))
      .Failures("index_refresh_failures", still_lagging);
  Verdict(localized, "localized drift: rebuilds not confined to the victim");
}

void RunRebalance() {
  PrintHeader("Hotspot migration: re-balancing vs fixed-boundary shards");

  DriftOptions dopt;
  dopt.model = DriftModel::kHotspotMigrate;
  dopt.num_phases = 5;
  dopt.keys_per_phase = std::max<size_t>(NumKeys() / dopt.num_phases, 1000);
  dopt.seed = 99;
  DriftingWorkload drift(dopt);

  const Scheme scheme = Scheme::kDoubleChar;
  const size_t limit = size_t{1} << 14;
  const size_t num_shards = 4;
  const double kImbalanceThreshold = 1.5;
  auto phase0 = drift.Phase(0);
  auto sample = SampleKeys(phase0, 0.05);

  // Identical shard options for both managers; the recency-biased
  // reservoir (half-life in sampled keys) keeps the rebuild/rebalance
  // corpus tracking the migrating hotspot.
  auto shard_options = [&] {
    DictionaryManager::Options mopt = ManagerOptions(scheme, limit);
    mopt.stats.sample_every = 2;
    mopt.stats.ewma_alpha = 0.005;
    mopt.stats.reservoir_halflife = 512;
    mopt.min_cpr_gain = 0.01;
    mopt.rebuild_backoff_seconds = 0;  // one poll per phase boundary
    mopt.rebuild_cpr_drop = 0.03;
    mopt.rebuild_min_fill = 256;
    return mopt;
  };

  ShardedDictionaryManager::Options sopt;
  sopt.num_shards = num_shards;
  sopt.shard = shard_options();
  // Fold traffic observations in fast: the phase structure gives the
  // EWMA only a handful of polls per phase to see a shifted mix.
  sopt.traffic_ewma_alpha = 0.6;

  ShardedDictionaryManager fixed(sample, sopt);
  sopt.rebalance_trigger_ratio = kImbalanceThreshold;
  sopt.rebalance_min_keys = 2000;
  sopt.rebalance_cooldown_seconds = 0;
  ShardedDictionaryManager rebal(sample, sopt);

  // The index rides the re-balancing manager: its entries must follow
  // every RebalancePlan, and lookups + cross-shard scans must stay
  // correct across the migrations. `model` is the ground truth.
  ConcurrentShardedIndex<BTree> index(&rebal);
  std::map<std::string, uint64_t> model;
  size_t lookups_checked = 0, lookups_wrong = 0;
  size_t scans_checked = 0, scans_wrong = 0;

  // One worker-loop sweep, run at each phase boundary: rebuild polls,
  // rebalance polls past the trigger's two-poll hysteresis (the first
  // folds the phase's traffic into the weights), then the index's
  // maintenance loop applies any published plan.
  auto maintain = [&] {
    fixed.RebuildPending();
    rebal.RebuildPending();
    for (int poll = 0; poll < 3; poll++) rebal.PollRebalance();
    while (!index.MigrationIdle()) index.PollMigration();
  };

  auto check_scan = [&](const std::string& start, size_t count) {
    std::vector<uint64_t> got;
    index.Scan(start, count, &got);
    std::vector<uint64_t> want;
    for (auto it = model.lower_bound(start);
         it != model.end() && want.size() < count; ++it)
      want.push_back(it->second);
    scans_checked++;
    if (got != want) scans_wrong++;
  };

  std::printf("  %zu phases x %zu keys, %zu shards, scheme %s, imbalance "
              "trigger %.1fx\n\n",
              drift.num_phases(), dopt.keys_per_phase, num_shards,
              SchemeName(scheme), kImbalanceThreshold);
  std::printf("  %-6s %7s %10s %10s %9s %9s %7s %12s\n", "Phase", "B-mix",
              "FixedCPR", "RebalCPR", "F-spread", "R-spread", "RtrVer",
              "ShardEpochs");

  for (size_t p = 0; p < drift.num_phases(); p++) {
    auto keys = drift.Phase(p);
    for (size_t i = 0; i < keys.size(); i++) {
      fixed.Encode(keys[i]);
      rebal.Encode(keys[i]);
      if (i % 16 == 0) {
        index.Insert(keys[i], i);
        model[keys[i]] = i;
      }
    }
    maintain();

    for (size_t i = 0; i < keys.size(); i += 64) {
      if (i % (16 * 64) != 0) continue;  // only keys the index holds
      uint64_t v = 0;
      lookups_checked++;
      auto it = model.find(keys[i]);
      bool found = index.Lookup(keys[i], &v);
      if (!found || it == model.end() || v != it->second) lookups_wrong++;
    }
    check_scan("", 128);
    if (!model.empty()) {
      auto mid = model.begin();
      std::advance(mid, static_cast<long>(model.size() / 2));
      check_scan(mid->first, 64);
    }

    double fixed_cpr = MeasureShardedCpr(fixed, keys);
    double rebal_cpr = MeasureShardedCpr(rebal, keys);
    double fixed_spread = StreamSpread(fixed, keys);
    double rebal_spread = StreamSpread(rebal, keys);
    std::printf("  %-6zu %6.0f%% %10.3f %10.3f %9.2f %9.2f %7llu %12s\n", p,
                100 * drift.MixFraction(p), fixed_cpr, rebal_cpr,
                fixed_spread, rebal_spread,
                static_cast<unsigned long long>(rebal.router_version()),
                EpochsString(rebal.Epochs()).c_str());
    std::fflush(stdout);
    Report()
        .Str("series", "rebalance_phase")
        .Num("phase", static_cast<double>(p))
        .Num("mix_fraction_b", drift.MixFraction(p))
        .Num("fixed_cpr", fixed_cpr)
        .Num("rebal_cpr", rebal_cpr)
        .Num("fixed_spread", fixed_spread)
        .Num("rebal_spread", rebal_spread)
        .Num("router_version", static_cast<double>(rebal.router_version()))
        .Str("rebal_shard_epochs", EpochsString(rebal.Epochs()));
  }
  // Settle passes: the hotspot stops moving (the blend saturates at pure
  // B past the last phase), so the re-deriving router gets to converge —
  // the steady state a live system would reach once a migration ends.
  auto final_keys = drift.Phase(drift.num_phases());
  for (int round = 0; round < 6; round++) {
    if (StreamSpread(rebal, final_keys) <= kImbalanceThreshold) break;
    for (const auto& k : final_keys) {
      fixed.Encode(k);
      rebal.Encode(k);
    }
    maintain();
  }

  double fixed_final = MeasureShardedCpr(fixed, final_keys);
  double rebal_final = MeasureShardedCpr(rebal, final_keys);
  double fixed_spread = StreamSpread(fixed, final_keys);
  double rebal_spread = StreamSpread(rebal, final_keys);
  size_t migrated = index.entries_migrated();
  bool balanced = rebal_spread <= kImbalanceThreshold;

  std::printf("\n  final: fixed %.3fx spread %.2f vs re-balanced %.3fx "
              "spread %.2f (%+.1f%% CPR), router version %llu -> %s\n",
              fixed_final, fixed_spread, rebal_final, rebal_spread,
              100.0 * (rebal_final / fixed_final - 1.0),
              static_cast<unsigned long long>(rebal.router_version()),
              balanced ? "traffic re-balanced" : "NOT re-balanced");
  std::printf("  index: %zu/%zu lookups and %zu/%zu scans correct across "
              "%llu migrations (%zu entries moved between shards)\n",
              lookups_checked - lookups_wrong, lookups_checked,
              scans_checked - scans_wrong, scans_checked,
              static_cast<unsigned long long>(rebal.rebalances_published()),
              migrated);
  Report()
      .Str("series", "rebalance_summary")
      .Num("num_shards", static_cast<double>(num_shards))
      .Num("imbalance_threshold", kImbalanceThreshold)
      .Num("fixed_cpr_final", fixed_final)
      .Num("rebal_cpr_final", rebal_final)
      .Num("rebal_gain_percent", 100.0 * (rebal_final / fixed_final - 1.0))
      .Num("fixed_spread_final", fixed_spread)
      .Num("rebal_spread_final", rebal_spread)
      .Num("router_version", static_cast<double>(rebal.router_version()))
      .Num("rebalances", static_cast<double>(rebal.rebalances_published()))
      .Num("rebalances_noop", static_cast<double>(rebal.rebalances_noop()))
      .Num("spread_under_threshold", balanced ? 1 : 0)
      .Num("fixed_rebuilds", static_cast<double>(fixed.rebuilds_published()))
      .Num("rebal_rebuilds", static_cast<double>(rebal.rebuilds_published()))
      .Num("index_lookups_checked", static_cast<double>(lookups_checked))
      .Failures("index_lookup_failures", lookups_wrong)
      .Num("index_scans_checked", static_cast<double>(scans_checked))
      .Failures("index_scan_failures", scans_wrong)
      .Num("index_migrated", static_cast<double>(migrated));
  Verdict(balanced, "hotspot migration: spread ended above the threshold");
}

void Run() {
  RunGlobalDrift();
  RunLocalizedDrift();
  RunRebalance();
}

}  // namespace
}  // namespace hope::bench

int main(int argc, char** argv) {
  const int rc = hope::bench::BenchMain(argc, argv, "dynamic_rebuild",
                                        hope::bench::Run);
  return rc == 0 && hope::bench::missed_verdicts > 0 ? 1 : rc;
}
