// Figure 16 (Appendix D): YCSB range-query and insert latencies for ART,
// HOT, B+tree and Prefix B+tree. Range queries are YCSB E (start key +
// scan length, uniform 1..100); inserts load half the dataset, then time
// inserting the other half (keys encoded on the way in). Outside the
// timed loops every scan is checked against the sorted key order and
// every inserted key is looked up; a mismatch fails the bench.
#include <algorithm>
#include <numeric>

#include "art/art.h"
#include "bench/bench_common.h"
#include "btree/btree.h"
#include "hot/hot.h"
#include "prefix_btree/prefix_btree.h"

namespace hope::bench {
namespace {

template <typename Tree>
void RunTree(const char* dataset, const char* tree_name,
             const std::vector<std::string>& keys,
             const std::vector<uint32_t>& queries,
             const std::vector<uint32_t>& scan_lens,
             const std::vector<uint32_t>& sorted,
             const std::vector<uint32_t>& rank,
             const std::vector<BuiltConfig>& configs) {
  std::printf("\n  --- %s ---\n", tree_name);
  std::printf("  %-18s %10s %11s\n", "Config", "Range(us)", "Insert(us)");
  for (const BuiltConfig& built : configs) {
    // Range queries on the fully loaded tree.
    Tree tree;
    for (size_t i = 0; i < built.tree_keys.size(); i++)
      tree.Insert(built.tree_keys[i], i);
    std::vector<uint64_t> sink;
    sink.reserve(128);
    Timer t;
    for (size_t i = 0; i < queries.size(); i++) {
      sink.clear();
      tree.Scan(built.MapKey(keys[queries[i]]), scan_lens[i], &sink);
    }
    double range_us =
        t.Seconds() * 1e6 / static_cast<double>(queries.size());
    // Each start key is present, so a scan must return the next
    // scan_lens[i] values (key indices) in sorted key order.
    size_t scan_failures = 0;
    for (size_t i = 0; i < queries.size(); i++) {
      sink.clear();
      const size_t got =
          tree.Scan(built.MapKey(keys[queries[i]]), scan_lens[i], &sink);
      const size_t from = rank[queries[i]];
      const size_t want = std::min<size_t>(scan_lens[i], sorted.size() - from);
      if (got != want || sink.size() != want ||
          !std::equal(sink.begin(), sink.end(), sorted.begin() + from))
        scan_failures++;
    }

    // Inserts: load the first half, time the second half.
    Tree tree2;
    size_t half = keys.size() / 2;
    for (size_t i = 0; i < half; i++)
      tree2.Insert(built.tree_keys[i], i);
    Timer it;
    for (size_t i = half; i < keys.size(); i++)
      tree2.Insert(built.MapKey(keys[i]), i);
    double insert_us =
        it.Seconds() * 1e6 / static_cast<double>(keys.size() - half);
    size_t insert_failures = 0;
    for (size_t i = half; i < keys.size(); i++) {
      uint64_t v = 0;
      if (!tree2.Lookup(built.tree_keys[i], &v) || v != i) insert_failures++;
    }
    if (scan_failures + insert_failures > 0)
      std::printf("  !! %zu scan failures, %zu insert failures\n",
                  scan_failures, insert_failures);

    std::printf("  %-18s %10.3f %11.3f\n", built.config.name, range_us,
                insert_us);
    Report()
        .Str("dataset", dataset)
        .Str("tree", tree_name)
        .Str("config", built.config.name)
        .Num("range_us", range_us)
        .Num("insert_us", insert_us)
        .Failures("scan_failures", scan_failures)
        .Failures("insert_failures", insert_failures);
  }
}

void Run() {
  PrintHeader(
      "Figure 16: YCSB range queries and inserts on ART / HOT / B+tree / "
      "Prefix B+tree");
  const size_t num_queries = std::min<size_t>(NumKeys() / 4, 50000);
  for (DatasetId id : AllDatasets()) {
    auto keys = GenerateDataset(id, NumKeys(), 42);
    auto queries = GenerateZipfQueries(keys.size(), num_queries, 7);
    auto scan_lens = GenerateScanLengths(num_queries, 100, 8);
    // Key indices in sorted key order, and each index's position there:
    // the expected scan results (dataset keys are unique).
    std::vector<uint32_t> sorted(keys.size());
    std::iota(sorted.begin(), sorted.end(), 0u);
    std::sort(sorted.begin(), sorted.end(),
              [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
    std::vector<uint32_t> rank(keys.size());
    for (size_t i = 0; i < sorted.size(); i++)
      rank[sorted[i]] = static_cast<uint32_t>(i);
    std::printf("\n[%s]\n", DatasetName(id));
    std::vector<BuiltConfig> configs;
    for (const TreeConfig& config : SearchTreeConfigs())
      configs.push_back(PrepareConfig(config, keys));
    RunTree<Art>(DatasetName(id), "ART", keys, queries, scan_lens, sorted,
                 rank, configs);
    RunTree<Hot>(DatasetName(id), "HOT", keys, queries, scan_lens, sorted,
                 rank, configs);
    RunTree<BTree>(DatasetName(id), "B+tree", keys, queries, scan_lens,
                   sorted, rank, configs);
    RunTree<PrefixBTree>(DatasetName(id), "Prefix B+tree", keys, queries,
                         scan_lens, sorted, rank, configs);
  }
}

}  // namespace
}  // namespace hope::bench

int main(int argc, char** argv) {
  return hope::bench::BenchMain(argc, argv, "fig16_range_insert",
                                hope::bench::Run);
}
