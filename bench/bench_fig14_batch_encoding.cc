// Figure 14 (Appendix B): batch encoding on a pre-sorted 1% Email sample
// with batch sizes 1, 2 (pair encoding) and 32. Batching encodes the
// shared prefix of a sorted run once; the ALM schemes cannot batch
// (arbitrary-length symbols prevent a provably aligned shared prefix).
#include <algorithm>

#include "bench/bench_common.h"

namespace hope::bench {
namespace {

void Run() {
  PrintHeader("Figure 14: batch encoding latency (sorted Email sample)");
  auto keys = GenerateEmails(NumKeys(), 42);
  auto sample = SampleKeys(keys, 0.01);
  std::sort(keys.begin(), keys.end());
  size_t limit = FullScale() ? (size_t{1} << 16) : (size_t{1} << 14);

  std::printf("  %-13s %12s %12s %12s\n", "Scheme", "b=1 ns/ch",
              "b=2 ns/ch", "b=32 ns/ch");
  for (Scheme scheme : {Scheme::kSingleChar, Scheme::kDoubleChar,
                        Scheme::kThreeGrams, Scheme::kFourGrams,
                        Scheme::kAlm, Scheme::kAlmImproved}) {
    auto hope = Hope::Build(scheme, sample, limit);
    size_t chars = TotalBytes(keys);
    std::printf("  %-13s", SchemeName(scheme));
    auto& row = Report().Str("scheme", SchemeName(scheme));
    for (size_t batch : {size_t{1}, size_t{2}, size_t{32}}) {
      // Pre-slice the sorted runs so only encoding is timed.
      std::vector<std::vector<std::string>> runs;
      runs.reserve(keys.size() / batch + 1);
      for (size_t i = 0; i < keys.size(); i += batch) {
        size_t n = std::min(batch, keys.size() - i);
        runs.emplace_back(keys.begin() + static_cast<long>(i),
                          keys.begin() + static_cast<long>(i + n));
      }
      Timer t;
      size_t sink = 0;
      for (const auto& run : runs) {
        size_t bits = 0;
        auto enc = hope->EncodeBatch(run, &bits);
        sink += bits;
      }
      double secs = t.Seconds();
      double ns = secs * 1e9 / static_cast<double>(chars);
      if (sink == size_t(-1)) std::printf("!");
      std::printf(" %12.1f", ns);
      std::fflush(stdout);
      char field[32];
      std::snprintf(field, sizeof(field), "ns_per_char_b%zu", batch);
      row.Num(field, ns);
      // Throughput twin of the latency series (higher-better family in
      // tools/bench_diff.py, so SIMD wins land in the gate).
      std::snprintf(field, sizeof(field), "mchars_per_sec_b%zu", batch);
      row.Num(field, static_cast<double>(chars) / secs / 1e6);
    }
    std::printf("%s\n",
                (scheme == Scheme::kAlm || scheme == Scheme::kAlmImproved)
                    ? "   (no batch reuse: unbounded lookahead)"
                    : "");
  }
}

}  // namespace
}  // namespace hope::bench

int main(int argc, char** argv) {
  return hope::bench::BenchMain(argc, argv, "fig14_batch_encoding",
                                hope::bench::Run);
}
