// Table 1: the module configuration of HOPE's six compression schemes,
// augmented with measured summary numbers on the Email dataset so the
// table doubles as a quick smoke check of the whole pipeline.
#include "bench/bench_common.h"

namespace hope::bench {
namespace {

struct Row {
  const char* scheme;
  const char* selector;
  const char* assigner;
  const char* dict;
};

void Run() {
  PrintHeader("Table 1: Module implementations of the six schemes");
  const Row rows[] = {
      {"Single-Char", "Single-Char", "Hu-Tucker", "Array"},
      {"Double-Char", "Double-Char", "Hu-Tucker", "Array"},
      {"ALM", "ALM", "Fixed-Length", "ART-based"},
      {"3-Grams", "3-Grams", "Hu-Tucker", "Bitmap-Trie"},
      {"4-Grams", "4-Grams", "Hu-Tucker", "Bitmap-Trie"},
      {"ALM-Improved", "ALM-Improved", "Hu-Tucker", "ART-based"},
  };

  auto keys = GenerateEmails(NumKeys(), 42);
  auto sample = SampleKeys(keys, 0.01);
  size_t dict_limit = FullScale() ? (size_t{1} << 16) : (size_t{1} << 12);

  std::printf("%-14s %-14s %-13s %-12s %9s %6s %10s %9s\n", "Scheme",
              "SymbolSelect", "CodeAssign", "Dictionary", "Entries", "CPR",
              "ns/char", "Build(s)");
  for (size_t i = 0; i < AllSchemes().size(); i++) {
    Scheme scheme = AllSchemes()[i];
    BuildStats stats;
    auto hope = Hope::Build(scheme, sample, dict_limit, &stats);
    double cpr = hope->CompressionRate(keys);
    double ns = MeasureEncodeNsPerChar(*hope, keys);
    std::printf("%-14s %-14s %-13s %-12s %9zu %6.2f %10.1f %9.2f\n",
                rows[i].scheme, rows[i].selector, rows[i].assigner,
                rows[i].dict, stats.num_entries, cpr, ns,
                stats.TotalSeconds());
    Report()
        .Str("scheme", rows[i].scheme)
        .Str("selector", rows[i].selector)
        .Str("assigner", rows[i].assigner)
        .Str("dictionary", rows[i].dict)
        .Num("entries", static_cast<double>(stats.num_entries))
        .Num("cpr", cpr)
        .Num("encode_ns_per_char", ns)
        .Num("build_s", stats.TotalSeconds());
  }
}

}  // namespace
}  // namespace hope::bench

int main(int argc, char** argv) {
  return hope::bench::BenchMain(argc, argv, "table1_schemes",
                                hope::bench::Run);
}
