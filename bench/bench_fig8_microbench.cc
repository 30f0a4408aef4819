// Figure 8: compression microbenchmarks — compression rate, encode
// latency (ns per char) and dictionary memory versus the number of
// dictionary entries, for all six schemes on Email / Wiki / URL.
//
// Single-Char and Double-Char have fixed dictionary sizes (2^8 and
// 256*257); the variable schemes sweep 2^8 .. 2^14 by default and up to
// 2^18 under HOPE_BENCH_FULL=1 (the paper's sweep). Hu-Tucker code
// assignment takes milliseconds at every size; build time is symbol
// selection.
#include "bench/bench_common.h"

namespace hope::bench {
namespace {

void RunScheme(DatasetId id, Scheme scheme,
               const std::vector<std::string>& keys,
               const std::vector<std::string>& sample) {
  std::vector<size_t> sizes;
  if (scheme == Scheme::kSingleChar) {
    sizes = {256};
  } else if (scheme == Scheme::kDoubleChar) {
    sizes = {0};  // fixed 256*257
  } else {
    for (size_t s = 1 << 8; s <= (FullScale() ? (1u << 18) : (1u << 14));
         s <<= 2)
      sizes.push_back(s);
  }
  for (size_t limit : sizes) {
    BuildStats stats;
    auto hope = Hope::Build(scheme, sample, limit, &stats);
    double cpr = hope->CompressionRate(keys);
    double ns = MeasureEncodeNsPerChar(*hope, keys);
    std::printf("  %-13s %9zu %8.3f %9.1f %12.1f\n", SchemeName(scheme),
                stats.num_entries, cpr, ns,
                static_cast<double>(stats.dict_memory_bytes) / 1024.0);
    Report()
        .Str("dataset", DatasetName(id))
        .Str("scheme", SchemeName(scheme))
        .Num("entries", static_cast<double>(stats.num_entries))
        .Num("cpr", cpr)
        .Num("encode_ns_per_char", ns)
        .Num("dict_kb", static_cast<double>(stats.dict_memory_bytes) / 1024.0);
  }
}

void Run() {
  PrintHeader(
      "Figure 8: CPR / encode latency / dictionary memory vs dictionary "
      "size");
  for (DatasetId id : AllDatasets()) {
    auto keys = GenerateDataset(id, NumKeys(), 42);
    auto sample = SampleKeys(keys, 0.01);
    std::printf("\n[%s] avg key %.1f bytes\n", DatasetName(id),
                static_cast<double>(TotalBytes(keys)) /
                    static_cast<double>(keys.size()));
    std::printf("  %-13s %9s %8s %9s %12s\n", "Scheme", "Entries", "CPR",
                "ns/char", "DictKB");
    for (Scheme scheme : AllSchemes()) RunScheme(id, scheme, keys, sample);
  }
}

}  // namespace
}  // namespace hope::bench

int main(int argc, char** argv) {
  return hope::bench::BenchMain(argc, argv, "fig8_microbench",
                                hope::bench::Run);
}
