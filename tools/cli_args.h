// Argument-parsing surface of hope_cli, split out so the fuzz harness
// can drive it directly (tests/fuzz/fuzz_parse.cc): every function here
// consumes attacker-controlled argv/stdin tokens and must reject, never
// crash or wrap. hope_cli.cc is the only other consumer.
//
// Contracts (pinned by tools/cli_validation_test.sh and the fuzzer):
//   - counts are digits-only, in [1, max] — no sign, whitespace, or
//     trailing junk (common/parse.h rules);
//   - scheme names come from the fixed six-entry table;
//   - hex round-trips: FromHex accepts exactly the lowercase output of
//     ToHex;
//   - serve flags may interleave with positionals, and every rejection
//     leaves the output struct untouched semantics-free (usage exit 2).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/parse.h"
#include "hope/hope.h"

namespace hope::cli {

inline bool ParseScheme(const std::string& name, Scheme* out) {
  static const std::pair<const char*, Scheme> kMap[] = {
      {"single-char", Scheme::kSingleChar},
      {"double-char", Scheme::kDoubleChar},
      {"alm", Scheme::kAlm},
      {"3-grams", Scheme::kThreeGrams},
      {"4-grams", Scheme::kFourGrams},
      {"alm-improved", Scheme::kAlmImproved},
  };
  for (auto& [n, s] : kMap)
    if (name == n) {
      *out = s;
      return true;
    }
  return false;
}

// Digits-only count parsing, same contract as HOPE_BENCH_KEYS
// (common/parse.h): raw strtoull would additionally accept " 7" and
// "+7", wrap negatives, and saturate on overflow — all usage errors
// here (documented exit-code contract: usage = 2).
inline bool ParseCount(const char* arg, size_t max, size_t* out) {
  unsigned long long v = 0;
  if (!hope::ParsePositiveUint(arg, max, &v)) return false;
  *out = static_cast<size_t>(v);
  return true;
}

inline std::string ToHex(const std::string& bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  return out;
}

inline bool FromHex(const std::string& hex, std::string* bytes) {
  if (hex.size() % 2) return false;
  bytes->clear();
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = nib(hex[i]), lo = nib(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    bytes->push_back(static_cast<char>(hi * 16 + lo));
  }
  return true;
}

/// Parsed `hope_cli serve` arguments with their documented defaults.
struct ServeArgs {
  Scheme scheme = Scheme::kDoubleChar;
  size_t num_keys = 20000;
  size_t workers = 4;
  size_t shards = 4;
  std::string stats_file;
  size_t stats_interval_ms = 200;
};

/// Parses everything after `hope_cli serve` — flags may mix with the
/// positionals: [scheme] [keys] [workers] [shards]
/// [--stats-file <path>] [--stats-interval <ms>]. Returns false on any
/// usage error; *out may hold partial values then (the caller exits).
inline bool ParseServeArgs(const std::vector<std::string>& args,
                           ServeArgs* out) {
  std::vector<const std::string*> pos;
  for (size_t i = 0; i < args.size(); i++) {
    const std::string& arg = args[i];
    if (arg == "--stats-file") {
      if (i + 1 >= args.size()) return false;
      out->stats_file = args[++i];
    } else if (arg == "--stats-interval") {
      if (i + 1 >= args.size() ||
          !ParseCount(args[i + 1].c_str(), 3600 * 1000,
                      &out->stats_interval_ms))
        return false;
      i++;
    } else if (!arg.empty() && arg[0] == '-') {
      return false;
    } else {
      pos.push_back(&arg);
    }
  }
  if (pos.size() > 4) return false;
  if (pos.size() > 0 && !ParseScheme(*pos[0], &out->scheme)) return false;
  if (pos.size() > 1 &&
      !ParseCount(pos[1]->c_str(), size_t{1} << 32, &out->num_keys))
    return false;
  if (pos.size() > 2 && !ParseCount(pos[2]->c_str(), 64, &out->workers))
    return false;
  // 2..256 shards, digits only.
  if (pos.size() > 3 && !ParseCount(pos[3]->c_str(), 256, &out->shards))
    return false;
  if (out->shards < 2) return false;
  return true;
}

}  // namespace hope::cli
