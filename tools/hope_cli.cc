// hope_cli — command-line front end for the HOPE encoder.
//
//   hope_cli build  <scheme> <keys.txt> <dict.hope> [dict_size]
//       Builds a dictionary from newline-separated sample keys and saves
//       it (schemes: single-char double-char alm 3-grams 4-grams
//       alm-improved).
//   hope_cli encode <dict.hope>
//       Reads keys from stdin, writes "<bitlen> <hex-encoding>" lines.
//   hope_cli decode <dict.hope>
//       Reads "<bitlen> <hex-encoding>" lines, writes the original keys.
//   hope_cli stats  <dict.hope> [keys.txt]
//       Prints dictionary statistics and, given keys, the compression
//       rate achieved on them.
//   hope_cli selftest
//       Builds every scheme on a synthetic sample, round-trips
//       encode/decode (including through serialize/deserialize), and
//       exits non-zero on any mismatch. Used as the CI smoke test.
//   hope_cli drift [scheme] [keys_per_phase] [shards] [mode]
//       Demo of the dynamic dictionary manager: runs a drifting Email
//       workload and prints static vs managed compression per phase;
//       exits 1 if no rebuild was published.
//       With shards >= 2, runs a sharded demo instead; mode picks it:
//         localized (default) — URL drift confined to one shard's key
//             range; only that shard's epoch should move (exits 1 when
//             the rebuilds are "not localized").
//         rebalance — a traffic hotspot migrates across the key range;
//             the weight-imbalance trigger re-derives the router
//             boundaries online (per-phase spread + router version;
//             exits 1 when the final verdict is "not re-balanced").
//       The shards argument must be 2..256 (0, negative, non-numeric
//       and absurd values are usage errors).
//   hope_cli serve [scheme] [keys] [workers] [shards]
//                  [--stats-file <path>] [--stats-interval <ms>]
//       Demo of the concurrent serving layer: worker threads serve
//       self-checking lookup/insert/scan mixes from a
//       ConcurrentShardedIndex while a migrating hotspot forces online
//       rebalances; prints per-phase latency percentiles + throughput
//       and exits non-zero if any consistency check fails. Numeric
//       arguments are digits-only (same contract as drift). With
//       --stats-file, a stats thread appends one JSON-lines telemetry
//       snapshot (all registered counters/gauges/histograms) every
//       --stats-interval ms (default 200).
//   hope_cli version
//       Prints the library version and the dynamic-subsystem features.
//   hope_cli --help | help
//       Prints usage and exits 0.
//
// Exit codes: 0 success, 1 runtime error (bad file, failed decode,
// selftest mismatch, a drift demo whose printed verdict failed, a serve
// consistency failure), 2 usage error.
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/version.h"
#include "tools/cli_args.h"
#include "datasets/datasets.h"
#include "dynamic/background_rebuilder.h"
#include "dynamic/dictionary_manager.h"
#include "dynamic/sharded_manager.h"
#include "hope/hope.h"
#include "btree/btree.h"
#include "serve/concurrent_index.h"
#include "serve/server_loop.h"
#include "telemetry/registry.h"
#include "telemetry/trace_log.h"
#include "workload/drift.h"
#include "workload/localized_drift.h"

namespace {

using hope::Hope;
using hope::Scheme;

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: hope_cli build <scheme> <keys.txt> <dict.hope> "
               "[dict_size]\n"
               "       hope_cli encode <dict.hope>   (keys on stdin)\n"
               "       hope_cli decode <dict.hope>   (bitlen+hex on stdin)\n"
               "       hope_cli stats  <dict.hope> [keys.txt]\n"
               "       hope_cli selftest\n"
               "       hope_cli drift  [scheme] [keys_per_phase] [shards] "
               "[localized|rebalance]\n"
               "       hope_cli serve  [scheme] [keys] [workers] [shards]\n"
               "                       [--stats-file <path>] "
               "[--stats-interval <ms>]\n"
               "       hope_cli version\n"
               "       hope_cli --help\n"
               "schemes: single-char double-char alm 3-grams 4-grams "
               "alm-improved\n"
               "drift: shards in 2..256 selects the sharded demo; mode\n"
               "  localized confines URL drift to one shard (default),\n"
               "  rebalance migrates a hotspot across the key range and\n"
               "  lets the versioned router re-derive its boundaries.\n"
               "  exit 1 when the demo's verdict fails (no rebuild\n"
               "  published, rebuilds not localized, not re-balanced).\n"
               "serve: concurrent serving-layer demo — workers (max 64)\n"
               "  serve checked op mixes through migration-transparent\n"
               "  reads while rebalances run; nonzero exit on any\n"
               "  consistency failure. --stats-file streams JSON-lines\n"
               "  telemetry snapshots every --stats-interval ms.\n"
               "exit codes: 0 ok, 1 runtime error, 2 usage error\n");
}

int Usage() {
  PrintUsage(stderr);
  return 2;
}

// Shared with the fuzz harness (tests/fuzz/fuzz_parse.cc drives these
// with adversarial tokens): tools/cli_args.h.
using hope::cli::FromHex;
using hope::cli::ParseCount;
using hope::cli::ParseScheme;
using hope::cli::ToHex;

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

std::unique_ptr<Hope> LoadDict(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  auto hope = Hope::Deserialize(ss.str());
  if (!hope) {
    std::fprintf(stderr, "%s is not a valid HOPE dictionary\n", path.c_str());
    std::exit(1);
  }
  return hope;
}

int CmdBuild(int argc, char** argv) {
  if (argc < 5) return Usage();
  Scheme scheme;
  if (!ParseScheme(argv[2], &scheme)) return Usage();
  // Validate the cheap argument before the potentially large file read:
  // dict_size went through raw strtoull before this parser existed, so
  // "12x" built a 12-entry dictionary and "-1" a 2^64-entry request.
  size_t dict_size = size_t{1} << 14;
  if (argc > 5 && !ParseCount(argv[5], size_t{1} << 24, &dict_size))
    return Usage();
  auto keys = ReadLines(argv[3]);
  hope::BuildStats stats;
  auto hope = Hope::Build(scheme, keys, dict_size, &stats);
  std::ofstream out(argv[4], std::ios::binary);
  std::string blob = hope->Serialize();
  out.write(blob.data(), static_cast<long>(blob.size()));
  std::fprintf(stderr,
               "built %s dictionary: %zu entries, %zu KB structure, "
               "%.2fs (select %.2fs, assign %.2fs)\n",
               argv[2], stats.num_entries, stats.dict_memory_bytes / 1024,
               stats.TotalSeconds(), stats.symbol_select_seconds,
               stats.code_assign_seconds);
  std::fprintf(stderr, "compression rate on the sample: %.3fx\n",
               hope->CompressionRate(keys));
  return 0;
}

int CmdEncode(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto hope = LoadDict(argv[2]);
  std::string line;
  while (std::getline(std::cin, line)) {
    size_t bits = 0;
    std::string enc = hope->Encode(line, &bits);
    std::printf("%zu %s\n", bits, ToHex(enc).c_str());
  }
  return 0;
}

int CmdDecode(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto hope = LoadDict(argv[2]);
  std::string line;
  while (std::getline(std::cin, line)) {
    size_t space = line.find(' ');
    std::string bytes;
    char* num_end = nullptr;
    size_t bits = std::strtoull(line.c_str(), &num_end, 10);
    if (space == std::string::npos ||
        num_end != line.c_str() + space ||
        !FromHex(line.substr(space + 1), &bytes)) {
      std::fprintf(stderr, "malformed line: %s\n", line.c_str());
      return 1;
    }
    try {
      std::printf("%s\n", hope->Decode(bytes, bits).c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "invalid encoding \"%s\": %s\n", line.c_str(),
                   e.what());
      return 1;
    }
  }
  return 0;
}

int CmdStats(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto hope = LoadDict(argv[2]);
  std::printf("scheme:        %s\n", hope::SchemeName(hope->scheme()));
  std::printf("entries:       %zu\n", hope->dict().NumEntries());
  std::printf("dictionary:    %s, %zu KB\n", hope->dict().Name(),
              hope->dict().MemoryBytes() / 1024);
  if (argc > 3) {
    auto keys = ReadLines(argv[3]);
    std::printf("compression:   %.3fx over %zu keys\n",
                hope->CompressionRate(keys), keys.size());
  }
  return 0;
}

int CmdSelftest() {
  static const Scheme kAll[] = {
      Scheme::kSingleChar, Scheme::kDoubleChar,  Scheme::kAlm,
      Scheme::kThreeGrams, Scheme::kFourGrams,   Scheme::kAlmImproved,
  };
  auto keys = hope::GenerateEmails(300, /*seed=*/11);
  auto urls = hope::GenerateUrls(100, /*seed=*/11);
  keys.insert(keys.end(), urls.begin(), urls.end());
  auto samples = hope::SampleKeys(keys, 0.25);
  int failures = 0;
  for (Scheme scheme : kAll) {
    auto built = Hope::Build(scheme, samples, size_t{1} << 12);
    // Round-trip through the serialized form, like the encode/decode
    // subcommands do.
    auto hope = Hope::Deserialize(built->Serialize());
    if (!hope) {
      std::fprintf(stderr, "FAIL %s: serialize round-trip rejected\n",
                   hope::SchemeName(scheme));
      failures++;
      continue;
    }
    size_t bad = 0;
    for (const std::string& key : keys) {
      size_t bits = 0;
      std::string enc = hope->Encode(key, &bits);
      if (hope->Decode(enc, bits) != key) bad++;
    }
    if (bad) {
      std::fprintf(stderr, "FAIL %s: %zu/%zu keys did not round-trip\n",
                   hope::SchemeName(scheme), bad, keys.size());
      failures++;
    } else {
      std::fprintf(stderr, "ok   %s: %zu keys round-tripped (%.3fx)\n",
                   hope::SchemeName(scheme), keys.size(),
                   hope->CompressionRate(keys));
    }
  }
  return failures ? 1 : 0;
}

// Sharded drift demo: a localized URL drift (one shard's key range
// blends toward query-style URLs, the rest of the keyspace stays
// stable) served through a ShardedDictionaryManager with one shared
// BackgroundRebuilder. Only the drifted shard's epoch should move.
int CmdDriftSharded(Scheme scheme, size_t keys_per_phase, size_t shards) {
  hope::DriftOptions dopt;
  dopt.model = hope::DriftModel::kUrlStyle;
  dopt.num_phases = 5;
  dopt.keys_per_phase = keys_per_phase;
  hope::DriftingWorkload drift(dopt);
  auto phase0 = drift.Phase(0);

  hope::dynamic::ShardedDictionaryManager::Options sopt;
  sopt.num_shards = shards;
  sopt.shard.scheme = scheme;
  sopt.shard.dict_size_limit = size_t{1} << 14;
  sopt.shard.stats.sample_every = 2;
  sopt.shard.stats.ewma_alpha = 0.005;
  sopt.shard.min_cpr_gain = 0.01;
  sopt.shard.rebuild_cpr_drop = 0.03;
  sopt.shard.rebuild_min_fill = 256;
  hope::dynamic::ShardedDictionaryManager mgr(hope::SampleKeys(phase0, 0.05),
                                              sopt);
  hope::dynamic::BackgroundRebuilder rebuilder(&mgr);

  // Confine the drift to the shard owning the most part-B weight.
  hope::LocalizedDrift localized(drift, mgr);
  const size_t victim = localized.victim();

  std::printf("localized URL drift, %s, %zu shards (victim %zu), "
              "%zu phases x %zu keys\n",
              hope::SchemeName(scheme), mgr.num_shards(), victim,
              drift.num_phases(), keys_per_phase);
  std::printf("%-6s %7s %12s  %s\n", "phase", "B-mix", "sharded-cpr",
              "shard-epochs");
  for (size_t p = 0; p < drift.num_phases(); p++) {
    auto keys = localized.PhaseStream(p, keys_per_phase, dopt.seed);
    for (const auto& k : keys) mgr.Encode(k);
    for (int spin = 0; spin < 100 && mgr.ShouldRebuild(); spin++) {
      rebuilder.Nudge();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::printf("%-6zu %6.0f%% %12.3f  %s\n", p, 100 * drift.MixFraction(p),
                hope::MeasureShardedCpr(mgr, keys),
                hope::EpochsString(mgr.Epochs()).c_str());
    std::fflush(stdout);
  }
  rebuilder.Stop();
  uint64_t victim_epoch = mgr.shard(victim).epoch();
  uint64_t max_other = 0;
  for (size_t s = 0; s < mgr.num_shards(); s++)
    if (s != victim) max_other = std::max(max_other, mgr.shard(s).epoch());
  const bool localized_ok = victim_epoch > 0 && max_other == 0;
  std::printf("victim shard epoch %llu, other shards' max epoch %llu -> "
              "rebuilds %s\n",
              static_cast<unsigned long long>(victim_epoch),
              static_cast<unsigned long long>(max_other),
              localized_ok ? "localized" : "not localized");
  return localized_ok ? 0 : 1;
}

// Rebalance demo: a traffic hotspot migrates across the key range while
// a ShardedDictionaryManager re-derives its router boundaries online
// (weight-imbalance trigger + versioned router hot-swap). Prints the
// per-phase stream spread (max/mean routed traffic) and router version;
// a fixed-boundary manager would end at spread == shards.
int CmdDriftRebalance(Scheme scheme, size_t keys_per_phase, size_t shards) {
  hope::DriftOptions dopt;
  dopt.model = hope::DriftModel::kHotspotMigrate;
  dopt.num_phases = 5;
  dopt.keys_per_phase = keys_per_phase;
  hope::DriftingWorkload drift(dopt);
  auto phase0 = drift.Phase(0);

  const double threshold = 1.5;
  hope::dynamic::ShardedDictionaryManager::Options sopt;
  sopt.num_shards = shards;
  sopt.shard.scheme = scheme;
  sopt.shard.dict_size_limit = size_t{1} << 14;
  sopt.shard.stats.sample_every = 2;
  sopt.shard.stats.ewma_alpha = 0.005;
  sopt.shard.stats.reservoir_halflife = 512;
  sopt.shard.min_cpr_gain = 0.01;
  sopt.traffic_ewma_alpha = 0.6;
  sopt.shard.rebuild_cpr_drop = 0.03;
  sopt.shard.rebuild_min_fill = 256;
  sopt.rebalance_trigger_ratio = threshold;
  sopt.rebalance_min_keys = keys_per_phase / 2;
  sopt.rebalance_cooldown_seconds = 0.5;
  hope::dynamic::ShardedDictionaryManager mgr(hope::SampleKeys(phase0, 0.05),
                                              sopt);
  hope::dynamic::BackgroundRebuilder rebuilder(&mgr);

  std::printf("hotspot migration, %s, %zu shards, %zu phases x %zu keys, "
              "imbalance trigger %.1fx\n",
              hope::SchemeName(scheme), mgr.num_shards(), drift.num_phases(),
              keys_per_phase, threshold);
  std::printf("%-6s %7s %12s %8s %7s  %s\n", "phase", "B-mix", "sharded-cpr",
              "spread", "rtr-ver", "shard-epochs");
  auto serve = [&](size_t p, const char* label) {
    auto keys = drift.Phase(p);
    for (const auto& k : keys) mgr.Encode(k);
    for (int spin = 0; spin < 30; spin++) {
      rebuilder.Nudge();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    double s = hope::StreamSpread(mgr, keys);
    std::printf("%-6s %6.0f%% %12.3f %8.2f %7llu  %s\n", label,
                100 * drift.MixFraction(p), hope::MeasureShardedCpr(mgr, keys),
                s, static_cast<unsigned long long>(mgr.router_version()),
                hope::EpochsString(mgr.Epochs()).c_str());
    std::fflush(stdout);
    return s;
  };
  for (size_t p = 0; p < drift.num_phases(); p++)
    serve(p, std::to_string(p).c_str());
  // Settle rounds: the blend saturates past the last phase (the hotspot
  // stops moving), so the router gets to converge under the threshold.
  double final_spread =
      hope::StreamSpread(mgr, drift.Phase(drift.num_phases()));
  for (int round = 0; round < 4 && final_spread > threshold; round++)
    final_spread = serve(drift.num_phases(), "settle");
  rebuilder.Stop();
  const bool balanced = mgr.router_version() > 0 && final_spread <= threshold;
  std::printf("router version %llu, final spread %.2f -> %s\n",
              static_cast<unsigned long long>(mgr.router_version()),
              final_spread, balanced ? "re-balanced" : "not re-balanced");
  return balanced ? 0 : 1;
}

// Demo of the dynamic subsystem: drifting Email workload, static vs
// managed dictionary, background rebuilds, per-phase report.
int CmdDrift(int argc, char** argv) {
  Scheme scheme = Scheme::kDoubleChar;
  if (argc > 2 && !ParseScheme(argv[2], &scheme)) return Usage();
  size_t keys_per_phase = 10000;
  if (argc > 3 && !ParseCount(argv[3], size_t{1} << 32, &keys_per_phase))
    return Usage();
  size_t shards = 1;
  // 256 caps the demo at something a terminal table can show; beyond it
  // (and 0, negatives, junk) is a usage error with exit code 2.
  if (argc > 4 && !ParseCount(argv[4], 256, &shards)) return Usage();
  bool rebalance = false;
  if (argc > 5) {
    if (!std::strcmp(argv[5], "rebalance")) {
      rebalance = true;
    } else if (std::strcmp(argv[5], "localized") != 0) {
      return Usage();
    }
    if (shards < 2) return Usage();  // modes only exist for sharded demos
  }
  if (shards > 1)
    return rebalance ? CmdDriftRebalance(scheme, keys_per_phase, shards)
                     : CmdDriftSharded(scheme, keys_per_phase, shards);

  hope::DriftOptions dopt;
  dopt.num_phases = 5;
  dopt.keys_per_phase = keys_per_phase;
  hope::DriftingWorkload drift(dopt);
  auto phase0 = drift.Phase(0);
  auto sample = hope::SampleKeys(phase0, 0.02);
  const size_t limit = size_t{1} << 14;

  auto static_dict = Hope::Build(scheme, sample, limit);
  hope::dynamic::DictionaryManager::Options mopt;
  mopt.scheme = scheme;
  mopt.dict_size_limit = limit;
  mopt.stats.sample_every = 4;
  mopt.rebuild_cpr_drop = 0.02;
  mopt.rebuild_min_fill = 1024;
  hope::dynamic::DictionaryManager mgr(static_dict->Clone(), mopt, phase0);
  hope::dynamic::BackgroundRebuilder rebuilder(&mgr);

  std::printf("drifting Email workload, %s, %zu phases x %zu keys\n",
              hope::SchemeName(scheme), drift.num_phases(), keys_per_phase);
  std::printf("%-6s %7s %12s %12s %8s\n", "phase", "B-mix", "static-cpr",
              "managed-cpr", "epoch");
  for (size_t p = 0; p < drift.num_phases(); p++) {
    auto keys = drift.Phase(p);
    for (const auto& k : keys) mgr.Encode(k);
    for (int spin = 0; spin < 100 && mgr.ShouldRebuild(); spin++) {
      rebuilder.Nudge();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    double static_cpr = static_dict->CompressionRate(keys);
    double managed_cpr = mgr.Acquire().hope->CompressionRate(keys);
    std::printf("%-6zu %6.0f%% %12.3f %12.3f %8llu\n", p,
                100 * drift.MixFraction(p), static_cpr, managed_cpr,
                static_cast<unsigned long long>(mgr.epoch()));
    std::fflush(stdout);
  }
  rebuilder.Stop();
  std::printf("rebuilds published: %llu, rejected: %llu\n",
              static_cast<unsigned long long>(mgr.rebuilds_published()),
              static_cast<unsigned long long>(mgr.rebuilds_rejected()));
  return mgr.rebuilds_published() > 0 ? 0 : 1;
}

// Serving demo: N workers (pinned where the OS allows) serve checked
// lookup/insert/scan mixes from a ConcurrentShardedIndex while a
// migrating hotspot forces online rebalances underneath; per phase,
// prints end-to-end latency percentiles, throughput, and the
// correctness counters (which must stay zero for exit code 0).
int CmdServe(int argc, char** argv) {
  // Flags may mix with the positionals: serve [scheme] [keys] [workers]
  // [shards] [--stats-file <path>] [--stats-interval <ms>]. The grammar
  // lives in tools/cli_args.h so the fuzz harness exercises exactly the
  // code that runs here.
  hope::cli::ServeArgs serve_args;
  if (!hope::cli::ParseServeArgs(std::vector<std::string>(argv + 2, argv + argc),
                                 &serve_args))
    return Usage();
  const Scheme scheme = serve_args.scheme;
  const size_t num_keys = serve_args.num_keys;
  const size_t workers = serve_args.workers;
  const size_t shards = serve_args.shards;
  const std::string stats_file = serve_args.stats_file;
  const size_t stats_interval_ms = serve_args.stats_interval_ms;

  using hope::serve::ConcurrentShardedIndex;
  using hope::serve::KeyFingerprint;
  using hope::serve::OpStats;
  using hope::serve::Request;
  using hope::serve::ServerLoop;

  hope::DriftOptions dopt;
  dopt.model = hope::DriftModel::kHotspotMigrate;
  dopt.num_phases = 5;
  dopt.keys_per_phase = num_keys;
  dopt.corpus_size = num_keys;
  hope::DriftingWorkload drift(dopt);
  std::vector<std::string> corpus = drift.part_a();
  corpus.insert(corpus.end(), drift.part_b().begin(), drift.part_b().end());

  hope::dynamic::ShardedDictionaryManager::Options sopt;
  sopt.num_shards = shards;
  sopt.shard.scheme = scheme;
  // The limit only binds the variable-interval schemes (Single-/Double-
  // Char dictionaries are fixed-size); 4K keeps their builds short so
  // the background worker turns cycles quickly during the demo.
  sopt.shard.dict_size_limit = size_t{1} << 12;
  sopt.shard.stats.sample_every = 2;
  sopt.shard.stats.ewma_alpha = 0.005;
  sopt.shard.stats.reservoir_halflife = 512;
  sopt.shard.min_cpr_gain = 0.01;
  sopt.traffic_ewma_alpha = 0.6;
  sopt.shard.rebuild_cpr_drop = 0.03;
  sopt.shard.rebuild_min_fill = 256;
  sopt.rebalance_trigger_ratio = 1.5;
  sopt.rebalance_min_keys = num_keys / 2;
  sopt.rebalance_cooldown_seconds = 0.2;
  // Telemetry sinks outlive everything they're attached to (managers,
  // rebuilder, index, loop — all declared below them).
  hope::telemetry::MetricRegistry registry;
  hope::telemetry::TraceLog trace;

  hope::dynamic::ShardedDictionaryManager mgr(hope::SampleKeys(corpus, 0.05),
                                              sopt);
  mgr.AttachTelemetry(&registry, &trace);
  hope::dynamic::BackgroundRebuilder rebuilder(&mgr);
  rebuilder.AttachTelemetry(&registry);

  ConcurrentShardedIndex<hope::BTree> index(&mgr);
  index.AttachTelemetry(&registry, &trace);
  for (const auto& k : corpus) index.Insert(k, KeyFingerprint(k));

  std::ofstream stats_out;
  ServerLoop<hope::BTree>::Options lopt;
  lopt.num_workers = workers;
  lopt.registry = &registry;
  if (!stats_file.empty()) {
    stats_out.open(stats_file, std::ios::trunc);
    if (!stats_out) {
      std::fprintf(stderr, "cannot open %s\n", stats_file.c_str());
      return 1;
    }
    lopt.stats_interval = std::chrono::milliseconds(stats_interval_ms);
    // Only the loop's stats thread writes (one JSON object per line,
    // flushed so a tail -f mid-run sees whole lines).
    lopt.stats_sink =
        [&stats_out](const hope::telemetry::RegistrySnapshot& snap) {
          stats_out << snap.ToJson() << '\n';
          stats_out.flush();
        };
  }
  ServerLoop<hope::BTree> loop(&index, lopt);

  std::printf("serving demo, %s, %zu keys, %zu workers (%zu pinned), "
              "%zu shards\n",
              hope::SchemeName(scheme), corpus.size(), loop.num_workers(),
              loop.workers_pinned(), mgr.num_shards());
  std::printf("%-14s %-7s %9s %9s %9s %9s %11s %5s\n", "phase", "op", "ops",
              "p50-us", "p99-us", "p999-us", "ops/sec", "fail");

  uint64_t total_failures = 0;
  auto run_phase = [&](const char* name, size_t phase, double write_frac,
                       double scan_frac) {
    auto stream = drift.Phase(phase);
    loop.ResetStats();
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < stream.size(); i++) {
      Request req;
      req.key = stream[i];
      const double roll =
          static_cast<double>(i % 1000) / 1000.0;  // deterministic mix
      if (roll < scan_frac) {
        req.op = Request::Op::kScan;
        req.check = true;
        req.scan_count = 50;
      } else if (roll < scan_frac + write_frac) {
        req.op = Request::Op::kInsert;
        req.value = KeyFingerprint(req.key);
      } else {
        req.op = Request::Op::kLookup;
        req.check = true;
      }
      loop.Submit(std::move(req));
    }
    loop.WaitIdle();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    static const char* kOpNames[] = {"lookup", "insert", "erase", "scan"};
    for (size_t op = 0; op < Request::kNumOps; op++) {
      OpStats s = loop.Snapshot(static_cast<Request::Op>(op));
      if (s.ops == 0) continue;
      const uint64_t failures = s.check_failures + s.scan_order_violations;
      total_failures += failures;
      std::printf("%-14s %-7s %9llu %9.1f %9.1f %9.1f %11.0f %5llu\n", name,
                  kOpNames[op], static_cast<unsigned long long>(s.ops),
                  static_cast<double>(s.latency.Percentile(0.50)) / 1000.0,
                  static_cast<double>(s.latency.Percentile(0.99)) / 1000.0,
                  static_cast<double>(s.latency.Percentile(0.999)) / 1000.0,
                  static_cast<double>(s.ops) / secs,
                  static_cast<unsigned long long>(failures));
    }
    std::fflush(stdout);
  };

  run_phase("read-heavy", 0, /*write_frac=*/0.05, /*scan_frac=*/0.01);
  run_phase("write-heavy", 0, /*write_frac=*/0.50, /*scan_frac=*/0.01);
  // Drift phases migrate the hotspot; the rebalancer chases it while
  // the loop's maintenance thread applies the plans.
  for (size_t p = 0; p < drift.num_phases(); p++) {
    run_phase(p + 1 == drift.num_phases() ? "drift(last)" : "drift", p,
              /*write_frac=*/0.10, /*scan_frac=*/0.005);
    // The trigger wants sustained imbalance across consecutive polls
    // past its cooldown, and the background worker only polls once per
    // cycle, between rebuild sweeps over every shard, so poll the router
    // directly here instead of waiting for the worker's cycle.
    // Published plans apply under live traffic: the loop's maintenance
    // thread migrates keys while the next phase's requests stream in.
    rebuilder.Nudge();
    for (int spin = 0; spin < 15; spin++) {
      mgr.PollRebalance();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  loop.Stop();
  rebuilder.Stop();
  std::printf("rebalances published %llu, plans applied %llu, entries "
              "migrated %llu, reader slow paths %llu -> %s\n",
              static_cast<unsigned long long>(mgr.rebalances_published()),
              static_cast<unsigned long long>(index.plans_applied()),
              static_cast<unsigned long long>(index.entries_migrated()),
              static_cast<unsigned long long>(index.lookup_slow_paths()),
              total_failures == 0 ? "consistent" : "INCONSISTENT");
  return total_failures == 0 ? 0 : 1;
}

int CmdVersion() {
  std::printf("hope %s\n", hope::kVersion);
  std::printf("dynamic: sharded dictionary manager (per-key-range shards, "
              "independent epochs),\n"
              "         online shard re-balancing (versioned router, "
              "weight-imbalance trigger,\n"
              "         cross-shard key migration), versioned + sharded "
              "index, shared\n"
              "         background rebuilder\n"
              "serve:   concurrent sharded index (EBR-routed "
              "double-routed reads,\n"
              "         batched migration), shared-nothing worker loop, "
              "HDR-style\n"
              "         latency histograms\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (!std::strcmp(argv[1], "--help") || !std::strcmp(argv[1], "help")) {
    PrintUsage(stdout);
    return 0;
  }
  if (!std::strcmp(argv[1], "build")) return CmdBuild(argc, argv);
  if (!std::strcmp(argv[1], "encode")) return CmdEncode(argc, argv);
  if (!std::strcmp(argv[1], "decode")) return CmdDecode(argc, argv);
  if (!std::strcmp(argv[1], "stats")) return CmdStats(argc, argv);
  if (!std::strcmp(argv[1], "selftest")) return CmdSelftest();
  if (!std::strcmp(argv[1], "drift")) return CmdDrift(argc, argv);
  if (!std::strcmp(argv[1], "serve")) return CmdServe(argc, argv);
  if (!std::strcmp(argv[1], "version")) return CmdVersion();
  return Usage();
}
