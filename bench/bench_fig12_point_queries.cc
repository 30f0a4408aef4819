// Figure 12: YCSB point-query latency vs index memory for ART, HOT,
// B+tree and Prefix B+tree across the seven configurations and three
// datasets. Query latency includes the key-encoding cost; memory includes
// the HOPE dictionary.
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
             const std::vector<BuiltConfig>& configs) {
  std::printf("\n  --- %s ---\n", tree_name);
  std::printf("  %-18s %10s %10s\n", "Config", "Point(us)", "Mem(MB)");
  for (const BuiltConfig& built : configs) {
    Tree tree;
    for (size_t i = 0; i < built.tree_keys.size(); i++)
      tree.Insert(built.tree_keys[i], i);

    size_t hits = 0;
    Timer t;
    for (uint32_t q : queries) {
      uint64_t v = 0;
      hits += tree.Lookup(built.MapKey(keys[q]), &v);
    }
    double us = t.Seconds() * 1e6 / static_cast<double>(queries.size());
    // Every query key was inserted, so a miss is a correctness failure.
    const size_t misses = queries.size() - hits;
    if (misses > 0) std::printf("  !! %zu lookup misses\n", misses);
    double mem_mb = static_cast<double>(tree.MemoryBytes() +
                                        built.dict_memory) /
                    (1024.0 * 1024.0);
    std::printf("  %-18s %10.3f %10.2f\n", built.config.name, us, mem_mb);
    Report()
        .Str("dataset", dataset)
        .Str("tree", tree_name)
        .Str("config", built.config.name)
        .Num("point_us", us)
        .Num("mem_mb", mem_mb)
        .Failures("lookup_failures", misses);
  }
}

void Run() {
  PrintHeader(
      "Figure 12: YCSB point queries on ART / HOT / B+tree / Prefix "
      "B+tree");
  const size_t num_queries = std::min<size_t>(NumKeys(), 200000);
  for (DatasetId id : AllDatasets()) {
    auto keys = GenerateDataset(id, NumKeys(), 42);
    auto queries = GenerateZipfQueries(keys.size(), num_queries, 7);
    std::printf("\n[%s]\n", DatasetName(id));
    // Build each HOPE configuration once and share it across the trees.
    std::vector<BuiltConfig> configs;
    for (const TreeConfig& config : SearchTreeConfigs())
      configs.push_back(PrepareConfig(config, keys));
    RunTree<Art>(DatasetName(id), "ART", keys, queries, configs);
    RunTree<Hot>(DatasetName(id), "HOT", keys, queries, configs);
    RunTree<BTree>(DatasetName(id), "B+tree", keys, queries, configs);
    RunTree<PrefixBTree>(DatasetName(id), "Prefix B+tree", keys, queries, configs);
  }
}

}  // namespace
}  // namespace hope::bench

int main(int argc, char** argv) {
  return hope::bench::BenchMain(argc, argv, "fig12_point_queries",
                                hope::bench::Run);
}
