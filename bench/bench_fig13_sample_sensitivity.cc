// Figure 13 (Appendix A): compression-rate sensitivity to the sample
// size. For each dataset and scheme, build dictionaries from samples of
// 0.001% .. 100% of the keys and measure the resulting CPR. The paper's
// finding: 1% is enough for every scheme to reach its maximum CPR, and
// higher-order schemes are more sensitive to small samples.
#include "bench/bench_common.h"

namespace hope::bench {
namespace {

void Run() {
  PrintHeader("Figure 13: CPR vs sample size");
  const double fractions[] = {0.00001, 0.0001, 0.001, 0.01, 0.1, 1.0};
  size_t limit = FullScale() ? (size_t{1} << 16) : (size_t{1} << 14);

  for (DatasetId id : AllDatasets()) {
    auto keys = GenerateDataset(id, NumKeys(), 42);
    std::printf("\n[%s]\n  %-13s", DatasetName(id), "Scheme");
    for (double f : fractions) std::printf(" %8.3f%%", f * 100);
    std::printf("\n");
    for (Scheme scheme : AllSchemes()) {
      std::printf("  %-13s", SchemeName(scheme));
      for (double f : fractions) {
        // ALM's all-substring statistics make 100% samples intractable at
        // paper scale too (the paper's Fig. 13 has the same gap).
        if (scheme == Scheme::kAlm && f >= 0.1 && !FullScale()) {
          std::printf(" %9s", "-");
          continue;
        }
        auto hope = Hope::Build(scheme, SampleKeys(keys, f), limit);
        double cpr = hope->CompressionRate(keys);
        std::printf(" %9.3f", cpr);
        std::fflush(stdout);
        Report()
            .Str("dataset", DatasetName(id))
            .Str("scheme", SchemeName(scheme))
            .Num("sample_fraction", f)
            .Num("cpr", cpr);
      }
      std::printf("\n");
    }
  }
}

}  // namespace
}  // namespace hope::bench

int main(int argc, char** argv) {
  return hope::bench::BenchMain(argc, argv, "fig13_sample_sensitivity",
                                hope::bench::Run);
}
