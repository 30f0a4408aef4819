// Figure 15 (Appendix C): compression rate under a key-distribution
// change. The Email corpus is split by provider: Email-A holds the gmail
// and yahoo accounts, Email-B everything else. Each scheme builds Dict-A
// and Dict-B from the matching split and is then measured on both splits;
// the mismatched cells simulate a sudden distribution shift. Correctness
// is unaffected (completeness guarantees any key still encodes) — only
// the compression rate degrades, and simpler schemes degrade less.
#include "bench/bench_common.h"

namespace hope::bench {
namespace {

void Run() {
  PrintHeader("Figure 15: CPR under key-distribution changes (Email A/B)");
  auto emails = GenerateEmails(NumKeys(), 42);
  std::vector<std::string> part_a, part_b;
  for (auto& k : emails) {
    if (k.rfind("com.gmail@", 0) == 0 || k.rfind("com.yahoo@", 0) == 0)
      part_a.push_back(k);
    else
      part_b.push_back(k);
  }
  std::printf("  Email-A: %zu keys (gmail+yahoo), Email-B: %zu keys\n\n",
              part_a.size(), part_b.size());
  size_t limit = FullScale() ? (size_t{1} << 16) : (size_t{1} << 14);

  std::printf("  %-13s %12s %12s %12s %12s\n", "Scheme", "A on A", "B on B",
              "A on B", "B on A");
  for (Scheme scheme : AllSchemes()) {
    auto dict_a = Hope::Build(scheme, SampleKeys(part_a, 0.02), limit);
    auto dict_b = Hope::Build(scheme, SampleKeys(part_b, 0.02), limit);
    double a_on_a = dict_a->CompressionRate(part_a);
    double b_on_b = dict_b->CompressionRate(part_b);
    double a_on_b = dict_a->CompressionRate(part_b);
    double b_on_a = dict_b->CompressionRate(part_a);
    std::printf("  %-13s %12.3f %12.3f %12.3f %12.3f\n", SchemeName(scheme),
                a_on_a, b_on_b, a_on_b, b_on_a);
    std::fflush(stdout);
    Report()
        .Str("scheme", SchemeName(scheme))
        .Num("cpr_a_on_a", a_on_a)
        .Num("cpr_b_on_b", b_on_b)
        .Num("cpr_a_on_b", a_on_b)
        .Num("cpr_b_on_a", b_on_a);
  }
}

}  // namespace
}  // namespace hope::bench

int main(int argc, char** argv) {
  return hope::bench::BenchMain(argc, argv, "fig15_distribution_shift",
                                hope::bench::Run);
}
