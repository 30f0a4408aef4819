// Shared infrastructure for the per-figure benchmark binaries.
//
// Every bench prints the same rows/series as the corresponding paper
// table or figure, and every bench binary accepts `--json <path>` to
// additionally emit its rows as machine-readable JSON (see JsonReport;
// bench/run_benches.sh collects the files the perf trajectory tracks).
// Defaults are laptop-sized; environment variables scale the runs up:
//   HOPE_BENCH_KEYS   keys per dataset   (default 200000)
//   HOPE_BENCH_FULL=1 paper-sized dictionary sweeps (2^16/2^18 entries)
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.h"
#include "datasets/datasets.h"
#include "hope/hope.h"
#include "workload/workload.h"

namespace hope::bench {

inline size_t NumKeys() {
  // Parsed (and any warning printed) once: a 0-key bench reports
  // garbage, so anything but a plain positive integer falls back to the
  // default, loudly (the digits-only contract lives in common/parse.h).
  static const size_t cached = [] {
    constexpr size_t kDefault = 200000;
    const char* env = std::getenv("HOPE_BENCH_KEYS");
    if (!env) return kDefault;
    unsigned long long v = 0;
    if (!ParsePositiveUint(env, ~0ull, &v)) {
      std::fprintf(stderr,
                   "warning: HOPE_BENCH_KEYS=\"%s\" is not a positive "
                   "integer; using default %zu\n",
                   env, kDefault);
      return kDefault;
    }
    return static_cast<size_t>(v);
  }();
  return cached;
}

inline bool FullScale() {
  const char* env = std::getenv("HOPE_BENCH_FULL");
  return env && env[0] == '1';
}

inline const std::vector<DatasetId>& AllDatasets() {
  static const std::vector<DatasetId> kAll{DatasetId::kEmail, DatasetId::kWiki,
                                           DatasetId::kUrl};
  return kAll;
}

/// The six schemes in the paper's presentation order.
inline const std::vector<Scheme>& AllSchemes() {
  static const std::vector<Scheme> kAll{
      Scheme::kSingleChar, Scheme::kDoubleChar, Scheme::kAlm,
      Scheme::kThreeGrams, Scheme::kFourGrams,  Scheme::kAlmImproved};
  return kAll;
}

/// The seven search-tree configurations of §7 (uncompressed baseline plus
/// six HOPE configurations).
struct TreeConfig {
  const char* name;
  bool compressed;
  Scheme scheme;
  size_t dict_limit;
};

inline const std::vector<TreeConfig>& SearchTreeConfigs() {
  // 64K dictionaries in the paper; 16K by default so the tracked
  // bench-results rows keep their configuration, 64K under
  // HOPE_BENCH_FULL=1. Build cost does not decide it: from a 1% sample of
  // 2M keys a 64K build costs about what a 16K one does (3-/4-Grams under
  // 0.1 s on emails, ~0.2 s on URLs; ALM-Improved ~0.6-3 s), nearly all
  // of it symbol selection.
  static const size_t big = FullScale() ? (size_t{1} << 16) : (size_t{1} << 14);
  static const std::vector<TreeConfig> kConfigs{
      {"Uncompressed", false, Scheme::kSingleChar, 0},
      {"Single-Char", true, Scheme::kSingleChar, 256},
      {"Double-Char", true, Scheme::kDoubleChar, 0},
      {"3-Grams", true, Scheme::kThreeGrams, big},
      {"4-Grams", true, Scheme::kFourGrams, big},
      {"ALM-Improved (4K)", true, Scheme::kAlmImproved, size_t{1} << 12},
      {"ALM-Improved (big)", true, Scheme::kAlmImproved, big},
  };
  return kConfigs;
}

/// Total bytes of a key set.
inline size_t TotalBytes(const std::vector<std::string>& keys) {
  size_t n = 0;
  for (const auto& k : keys) n += k.size();
  return n;
}

/// Encode latency in ns per source character.
inline double MeasureEncodeNsPerChar(const Hope& hope,
                                     const std::vector<std::string>& keys) {
  Timer t;
  size_t chars = 0;
  size_t sink = 0;
  for (const auto& k : keys) {
    size_t bits = 0;
    std::string e = hope.Encode(k, &bits);
    sink += e.size() + bits;
    chars += k.size();
  }
  double ns = t.Seconds() * 1e9;
  // Defeat dead-code elimination of the encode loop.
  if (sink == size_t(-1)) std::fprintf(stderr, "sink\n");
  return chars == 0 ? 0 : ns / static_cast<double>(chars);
}

/// A search-tree configuration instantiated on a dataset: the HOPE
/// encoder (null for the uncompressed baseline) and the key material the
/// tree benchmarks need.
struct BuiltConfig {
  TreeConfig config;
  std::unique_ptr<Hope> hope;          // null when uncompressed
  std::vector<std::string> tree_keys;  // encoded (or raw) keys, load order
  double hope_build_seconds = 0;
  size_t dict_memory = 0;

  std::string MapKey(const std::string& key) const {
    return hope ? hope->Encode(key) : key;
  }
};

/// Builds the encoder from a 1% sample (§7.2's protocol) and encodes the
/// whole key set once.
inline BuiltConfig PrepareConfig(const TreeConfig& config,
                                 const std::vector<std::string>& keys) {
  BuiltConfig built;
  built.config = config;
  if (config.compressed) {
    BuildStats stats;
    Timer t;
    built.hope =
        Hope::Build(config.scheme, SampleKeys(keys, 0.01), config.dict_limit,
                    &stats);
    built.hope_build_seconds = t.Seconds();
    built.dict_memory = stats.dict_memory_bytes;
    built.tree_keys.reserve(keys.size());
    for (const auto& k : keys) built.tree_keys.push_back(built.hope->Encode(k));
  } else {
    built.tree_keys = keys;
  }
  return built;
}

/// Machine-readable results sink behind `--json <path>`: benches append
/// flat rows (string and numeric fields) next to their printf output, and
/// BenchMain writes `{"bench": ..., "keys": ..., "rows": [...]}` on exit.
/// When --json is absent the rows are collected and dropped — call sites
/// stay unconditional.
class JsonReport {
 public:
  class Row {
   public:
    Row& Str(const char* key, std::string_view value) {
      Sep();
      body_ += '"';
      Escape(key);
      body_ += "\": \"";
      Escape(value);
      body_ += '"';
      return *this;
    }
    Row& Num(const char* key, double value) {
      Sep();
      body_ += '"';
      Escape(key);
      body_ += "\": ";
      if (std::isfinite(value)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", value);
        body_ += buf;
      } else {
        // "%g" would print nan/inf, which is not valid JSON.
        body_ += "null";
      }
      return *this;
    }
    /// A zero-tolerance correctness count (tools/bench_diff.py gates
    /// *_failures fields at zero). Any non-zero count also makes BenchMain
    /// exit 1 once the report is written.
    Row& Failures(const char* key, size_t count) {
      Get().failures_ += count;
      return Num(key, static_cast<double>(count));
    }

   private:
    friend class JsonReport;
    void Sep() {
      if (!body_.empty()) body_ += ", ";
    }
    void Escape(std::string_view s) {
      for (char c : s) {
        if (c == '"' || c == '\\') {
          body_ += '\\';
          body_ += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          body_ += buf;
        } else {
          body_ += c;
        }
      }
    }
    std::string body_;
  };

  static JsonReport& Get() {
    static JsonReport report;
    return report;
  }

  void set_bench_name(const char* name) { bench_name_ = name; }
  void set_path(std::string path) { path_ = std::move(path); }
  bool enabled() const { return !path_.empty(); }
  size_t failures() const { return failures_; }

  Row& AddRow() { return rows_.emplace_back(); }

  /// Writes the report if --json was given. Returns false on I/O failure.
  bool Flush() const {
    if (path_.empty()) return true;
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << "{\n  \"bench\": \"" << bench_name_ << "\",\n"
        << "  \"keys\": " << NumKeys() << ",\n"
        << "  \"full_scale\": " << (FullScale() ? "true" : "false") << ",\n"
        << "  \"rows\": [\n";
    for (size_t i = 0; i < rows_.size(); i++)
      out << "    {" << rows_[i].body_ << (i + 1 < rows_.size() ? "},\n" : "}\n");
    out << "  ]\n}\n";
    return static_cast<bool>(out);
  }

 private:
  std::string bench_name_ = "?";
  std::string path_;
  std::deque<Row> rows_;
  size_t failures_ = 0;
};

/// Shorthand for call sites: Report().Str("scheme", ...).Num("cpr", ...).
inline JsonReport::Row& Report() { return JsonReport::Get().AddRow(); }

/// Uniform main() for the bench binaries: parses `--json <path>`, runs
/// the bench, and flushes the report. Exit codes: 0 ok, 1 runtime error
/// (JSON write failed, or a row recorded correctness failures), 2 usage
/// error.
inline int BenchMain(int argc, char** argv, const char* name, void (*run)()) {
  JsonReport& report = JsonReport::Get();
  report.set_bench_name(name);
  for (int i = 1; i < argc; i++) {
    if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      report.set_path(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      return 2;
    }
  }
  run();
  if (!report.Flush()) {
    std::fprintf(stderr, "failed to write JSON report\n");
    return 1;
  }
  if (report.enabled()) std::printf("\n  JSON report written\n");
  if (report.failures() > 0) {
    std::fprintf(stderr, "%zu correctness failure(s)\n", report.failures());
    return 1;
  }
  return 0;
}

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("  (keys per dataset: %zu%s; see the README's Benchmarks\n"
              "   section for the scale knobs and the tracked set)\n",
              NumKeys(), FullScale() ? ", FULL scale" : "");
  std::printf("================================================================\n");
}

}  // namespace hope::bench
