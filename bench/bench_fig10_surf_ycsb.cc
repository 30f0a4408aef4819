// Figure 10: SuRF under YCSB — point query latency vs filter memory,
// range query latency, build time, and average trie height, for the
// uncompressed baseline and six HOPE configurations on all three
// datasets. Queries follow YCSB C/E with a scrambled-Zipfian key
// popularity; SuRF range queries are [key, key-with-last-byte+1] pairs as
// in §7.1.
#include <algorithm>

#include "bench/bench_common.h"
#include "surf/surf.h"

namespace hope::bench {
namespace {

void Run() {
  PrintHeader("Figure 10: SuRF YCSB evaluation (7 configs x 3 datasets)");
  const size_t num_queries = std::min<size_t>(NumKeys(), 200000);

  for (DatasetId id : AllDatasets()) {
    auto keys = GenerateDataset(id, NumKeys(), 42);
    auto queries = GenerateZipfQueries(keys.size(), num_queries, 7);
    std::printf("\n[%s]\n", DatasetName(id));
    std::printf("  %-18s %10s %10s %10s %10s %9s\n", "Config", "Point(us)",
                "Range(us)", "Mem(MB)", "Build(s)", "Height");

    for (const TreeConfig& config : SearchTreeConfigs()) {
      Timer build_timer;
      BuiltConfig built = PrepareConfig(config, keys);
      std::vector<std::string> sorted = built.tree_keys;
      std::sort(sorted.begin(), sorted.end());
      sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
      Surf surf(sorted, SurfSuffix::kReal8);
      double build_s = build_timer.Seconds();

      // Point queries (YCSB C): encode + probe, timed together — the
      // encode cost is part of the query path (§5).
      size_t positives = 0;
      Timer point_timer;
      for (uint32_t q : queries)
        positives += surf.MayContain(built.MapKey(keys[q]));
      double point_us =
          point_timer.Seconds() * 1e6 / static_cast<double>(queries.size());
      // Every query key is in the filter: each negative is a false one.
      const size_t false_negatives = queries.size() - positives;
      if (false_negatives > 0)
        std::printf("  !! %zu false negatives detected\n", false_negatives);

      // Range queries (YCSB E for filters): closed range with the last
      // byte bumped; pair-encoding amortizes the shared prefix.
      size_t range_hits = 0;
      Timer range_timer;
      for (size_t i = 0; i < queries.size(); i++) {
        const std::string& k = keys[queries[i]];
        std::string end = k;
        end.back() = static_cast<char>(end.back() + 1);
        if (built.hope) {
          auto [e1, e2] = built.hope->EncodePair(k, end);
          range_hits += surf.MayContainRange(e1, e2);
        } else {
          range_hits += surf.MayContainRange(k, end);
        }
      }
      double range_us =
          range_timer.Seconds() * 1e6 / static_cast<double>(queries.size());

      double mem_mb = static_cast<double>(surf.MemoryBytes() +
                                          built.dict_memory) /
                      (1024.0 * 1024.0);
      std::printf("  %-18s %10.3f %10.3f %10.2f %10.2f %9.1f\n",
                  config.name, point_us, range_us, mem_mb, build_s,
                  surf.AverageLeafDepth());
      Report()
          .Str("dataset", DatasetName(id))
          .Str("config", config.name)
          .Num("point_us", point_us)
          .Num("range_us", range_us)
          .Num("mem_mb", mem_mb)
          .Num("build_s", build_s)
          .Num("avg_leaf_depth", surf.AverageLeafDepth())
          .Failures("false_negative_failures", false_negatives);
    }
  }
}

}  // namespace
}  // namespace hope::bench

int main(int argc, char** argv) {
  return hope::bench::BenchMain(argc, argv, "fig10_surf_ycsb",
                                hope::bench::Run);
}
