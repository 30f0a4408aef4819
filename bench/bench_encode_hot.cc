// Encode hot path microbench: throughput (mchars_per_sec) and cycle cost
// (cycles_per_byte) per scheme × batch mode, on the sorted Email sample.
//
// Modes:
//   single       — per-key Encode (devirtualized EncodeSpan, no batching)
//   sorted_b32   — EncodeBatch over sorted runs of 32 (traced shared-
//                  prefix reuse for bounded-lookahead schemes)
//   shuffled_b32 — EncodeBatch over shuffled runs of 32 (no reusable
//                  prefixes: the per-key EncodeSpan loop behind the
//                  batch API)
//   sorted_all   — one EncodeBatch over the whole sorted key vector in
//                  place, as set-up calls it: sorting moved the string
//                  headers, not the bytes, so consecutive keys' bytes
//                  sit at unrelated heap addresses (the runs above are
//                  copies, allocated in sorted order). The batch is
//                  above EncodeBatch's split threshold, so this is the
//                  wall clock of the split across the process's CPUs
//   sorted_all_1 — the same batch as one range on the calling thread
//                  (the per-core loop each part of the split runs)
//
// `mode` is a row-identity field in tools/bench_diff.py, so each series
// is gated independently; cycles_per_byte joins the latency family and
// mchars_per_sec the throughput family.
#include <algorithm>
#include <random>

#include "bench/bench_common.h"
#include "common/simd.h"

namespace hope::bench {
namespace {

/// Raw cycle-ish counter: TSC on x86-64 (constant-rate on anything
/// modern), the fixed-frequency virtual counter on aarch64 (a proxy, but
/// stable), 0 elsewhere (the row then reports null).
inline uint64_t ReadCycleCounter() {
#if defined(__x86_64__)
  unsigned lo, hi;
  __asm__ __volatile__("rdtsc" : "=a"(lo), "=d"(hi));
  return (static_cast<uint64_t>(hi) << 32) | lo;
#elif defined(__aarch64__)
  uint64_t v;
  __asm__ __volatile__("mrs %0, cntvct_el0" : "=r"(v));
  return v;
#else
  return 0;
#endif
}

constexpr bool HasCycleCounter() {
#if defined(__x86_64__) || defined(__aarch64__)
  return true;
#else
  return false;
#endif
}

struct Measurement {
  double ns_per_char;
  double mchars_per_sec;
  double cycles_per_byte;  // NaN when no counter: JSON emits null
};

template <typename Fn>
Measurement Measure(size_t chars, Fn&& encode_all) {
  Timer t;
  uint64_t c0 = ReadCycleCounter();
  size_t sink = encode_all();
  uint64_t c1 = ReadCycleCounter();
  double secs = t.Seconds();
  if (sink == size_t(-1)) std::printf("!");  // defeat dead-code elim
  double dchars = static_cast<double>(chars);
  Measurement m;
  m.ns_per_char = secs * 1e9 / dchars;
  m.mchars_per_sec = dchars / secs / 1e6;
  m.cycles_per_byte = HasCycleCounter()
                          ? static_cast<double>(c1 - c0) / dchars
                          : std::nan("");
  return m;
}

void Run() {
  PrintHeader("Encode hot path: throughput and cycles per byte");
  std::printf("  simd tier: %s\n", simd::TierName());
  auto keys = GenerateEmails(NumKeys(), 42);
  auto sample = SampleKeys(keys, 0.01);
  std::sort(keys.begin(), keys.end());
  auto shuffled = keys;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(7));
  size_t limit = FullScale() ? (size_t{1} << 16) : (size_t{1} << 14);
  const size_t chars = TotalBytes(keys);

  // Pre-slice the batch runs once so only encoding is timed.
  auto slice = [](const std::vector<std::string>& all, size_t batch) {
    std::vector<std::vector<std::string>> runs;
    runs.reserve(all.size() / batch + 1);
    for (size_t i = 0; i < all.size(); i += batch) {
      size_t n = std::min(batch, all.size() - i);
      runs.emplace_back(all.begin() + static_cast<long>(i),
                        all.begin() + static_cast<long>(i + n));
    }
    return runs;
  };
  const auto sorted_runs = slice(keys, 32);
  const auto shuffled_runs = slice(shuffled, 32);

  std::printf("  %-13s %-13s %12s %14s %12s\n", "Scheme", "Mode", "ns/char",
              "Mchars/s", "cyc/byte");
  for (Scheme scheme : AllSchemes()) {
    auto hope = Hope::Build(scheme, sample, limit);
    auto emit = [&](const char* mode, const Measurement& m) {
      std::printf("  %-13s %-13s %12.2f %14.1f %12.2f\n", SchemeName(scheme),
                  mode, m.ns_per_char, m.mchars_per_sec, m.cycles_per_byte);
      std::fflush(stdout);
      Report()
          .Str("scheme", SchemeName(scheme))
          .Str("mode", mode)
          .Str("simd_tier", simd::TierName())
          .Num("ns_per_char", m.ns_per_char)
          .Num("mchars_per_sec", m.mchars_per_sec)
          .Num("cycles_per_byte", m.cycles_per_byte);
    };

    emit("single", Measure(chars, [&] {
           size_t sink = 0;
           for (const auto& k : keys) {
             size_t bits = 0;
             std::string e = hope->Encode(k, &bits);
             sink += bits + e.size();
           }
           return sink;
         }));
    auto batch = [&](const std::vector<std::vector<std::string>>& runs) {
      return Measure(chars, [&] {
        size_t sink = 0;
        for (const auto& run : runs) {
          size_t bits = 0;
          auto enc = hope->EncodeBatch(run, &bits);
          sink += bits;
        }
        return sink;
      });
    };
    emit("sorted_b32", batch(sorted_runs));
    emit("shuffled_b32", batch(shuffled_runs));
    emit("sorted_all", Measure(chars, [&] {
           size_t bits = 0;
           auto enc = hope->EncodeBatch(keys, &bits);
           return bits;
         }));
    emit("sorted_all_1", Measure(chars, [&] {
           size_t bits = 0;
           auto enc = internal::EncodeBatchInParts(hope->encoder(), keys,
                                                   /*parts=*/1, &bits);
           return bits;
         }));
  }
}

}  // namespace
}  // namespace hope::bench

int main(int argc, char** argv) {
  return hope::bench::BenchMain(argc, argv, "encode_hot", hope::bench::Run);
}
