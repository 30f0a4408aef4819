// google-benchmark microbenchmarks for the hot code paths: per-scheme
// encoding, dictionary lookups, Hu-Tucker construction, search-tree
// point operations, and the sharded index's single-threaded cost.
// Complements the per-figure harnesses with
// statistically robust single-operation timings.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <random>

#include "art/art.h"
#include "btree/btree.h"
#include "datasets/datasets.h"
#include "dynamic/sharded_manager.h"
#include "hope/hope.h"
#include "hope/hu_tucker.h"
#include "hot/hot.h"
#include "prefix_btree/prefix_btree.h"
#include "serve/concurrent_index.h"
#include "surf/surf.h"

namespace hope {
namespace {

const std::vector<std::string>& EmailKeys() {
  static const auto* keys = new std::vector<std::string>(
      GenerateEmails(50000, 42));
  return *keys;
}

const Hope& SchemeEncoder(Scheme scheme) {
  static auto* cache = new std::map<Scheme, std::unique_ptr<Hope>>();
  auto it = cache->find(scheme);
  if (it == cache->end()) {
    it = cache->emplace(scheme, Hope::Build(scheme,
                                            SampleKeys(EmailKeys(), 0.02),
                                            size_t{1} << 13))
             .first;
  }
  return *it->second;
}

void BM_Encode(benchmark::State& state) {
  Scheme scheme = static_cast<Scheme>(state.range(0));
  const Hope& hope = SchemeEncoder(scheme);
  const auto& keys = EmailKeys();
  size_t i = 0, chars = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hope.Encode(keys[i]));
    chars += keys[i].size();
    i = (i + 1) % keys.size();
  }
  state.SetLabel(SchemeName(scheme));
  state.counters["ns_per_char"] = benchmark::Counter(
      static_cast<double>(chars), benchmark::Counter::kIsRate |
                                      benchmark::Counter::kInvert);
}
BENCHMARK(BM_Encode)->DenseRange(0, 5)->Unit(benchmark::kNanosecond);

void BM_DictLookup(benchmark::State& state) {
  const Hope& hope = SchemeEncoder(Scheme::kThreeGrams);
  const auto& keys = EmailKeys();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hope.dict().Lookup(keys[i]));
    i = (i + 1) % keys.size();
  }
}
BENCHMARK(BM_DictLookup);

// Hu-Tucker construction over n weights in two families. Uniform random
// weights are the adversarial case (merged nodes travel far left);
// Zipf-distributed weights in shuffled order resemble real dictionaries,
// whose interval frequencies are skewed but not sorted.
std::vector<double> HuTuckerWeights(size_t n, bool zipf) {
  std::mt19937_64 rng(7);
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; i++)
    weights[i] = zipf ? 1.0 / static_cast<double>(i + 1)
                      : std::uniform_real_distribution<double>(0, 1)(rng);
  if (zipf) std::shuffle(weights.begin(), weights.end(), rng);
  return weights;
}

void BM_HuTucker(benchmark::State& state, bool zipf) {
  auto weights = HuTuckerWeights(static_cast<size_t>(state.range(0)), zipf);
  for (auto _ : state)
    benchmark::DoNotOptimize(HuTuckerCodes(weights));
  state.SetComplexityN(state.range(0));
}
BENCHMARK_CAPTURE(BM_HuTucker, uniform, false)
    ->RangeMultiplier(4)->Range(256, 1 << 16)->Complexity();
BENCHMARK_CAPTURE(BM_HuTucker, zipf, true)
    ->RangeMultiplier(4)->Range(256, 1 << 16)->Complexity();

template <typename Tree>
void BM_TreeLookup(benchmark::State& state) {
  Tree tree;
  const auto& keys = EmailKeys();
  for (size_t i = 0; i < keys.size(); i++) tree.Insert(keys[i], i);
  size_t i = 0;
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(keys[i], &v));
    i = (i + 1) % keys.size();
  }
}
BENCHMARK(BM_TreeLookup<Art>)->Name("BM_ArtLookup");
BENCHMARK(BM_TreeLookup<Hot>)->Name("BM_HotLookup");
BENCHMARK(BM_TreeLookup<BTree>)->Name("BM_BTreeLookup");
BENCHMARK(BM_TreeLookup<PrefixBTree>)->Name("BM_PrefixBTreeLookup");

// Lookups on a tree too large for the caches, loaded in one random order
// and probed in another: BM_TreeLookup walks a cache-resident tree in
// insertion order and never sees the misses on nodes and keys. The probe
// keys are copied in probe order, so reading them streams.
template <typename Tree>
void BM_TreeLookupShuffled(benchmark::State& state) {
  static const auto* all = new std::vector<std::string>(
      GenerateEmails(size_t{1} << 20, 47));
  std::vector<std::string> keys(all->begin(), all->begin() + state.range(0));
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(48));
  Tree tree;
  for (size_t i = 0; i < keys.size(); i++) tree.Insert(keys[i], i);
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(49));
  const std::vector<std::string> probes(keys.begin(), keys.end());
  size_t i = 0;
  uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Lookup(probes[i], &v));
    i = (i + 1) % probes.size();
  }
}
BENCHMARK(BM_TreeLookupShuffled<BTree>)
    ->Name("BM_BTreeLookup/shuffled")
    ->Arg(1 << 20);
BENCHMARK(BM_TreeLookupShuffled<Hot>)
    ->Name("BM_HotLookup/shuffled")
    ->Arg(1 << 20);
BENCHMARK(BM_TreeLookupShuffled<Art>)
    ->Name("BM_ArtLookup/shuffled")
    ->Arg(1 << 20);

double Height(const BTree& t) { return t.Height(); }
double Height(const Hot& t) { return t.AverageLeafDepth(); }
double Height(const Art& t) { return t.AverageLeafDepth(); }

// Loads n emails into a tree in sorted or shuffled order (for the B+tree
// the sorted load is the bulk-load case the append fast path and the
// right-spine splits serve), reporting MemoryBytes() per key and the
// height (Hot and Art: the average leaf depth).
template <typename Tree, bool kSorted>
void BM_TreeLoad(benchmark::State& state) {
  static const auto* all = new std::vector<std::string>(
      GenerateEmails(size_t{1} << 20, 43));
  std::vector<std::string> keys(all->begin(), all->begin() + state.range(0));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  if (!kSorted) std::shuffle(keys.begin(), keys.end(), std::mt19937_64(44));
  double bytes_per_key = 0, height = 0;
  for (auto _ : state) {
    auto tree = std::make_unique<Tree>();
    for (size_t i = 0; i < keys.size(); i++) tree->Insert(keys[i], i);
    state.PauseTiming();
    bytes_per_key = static_cast<double>(tree->MemoryBytes()) /
                    static_cast<double>(keys.size());
    height = Height(*tree);
    tree.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
  state.counters["bytes_per_key"] = bytes_per_key;
  state.counters["height"] = height;
}
BENCHMARK_TEMPLATE(BM_TreeLoad, BTree, true)
    ->Name("BM_BTreeLoad/sorted")
    ->RangeMultiplier(4)->Range(1 << 14, 1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_TreeLoad, BTree, false)
    ->Name("BM_BTreeLoad/shuffled")
    ->RangeMultiplier(4)->Range(1 << 14, 1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_TreeLoad, Hot, true)
    ->Name("BM_HotLoad/sorted")
    ->RangeMultiplier(4)->Range(1 << 14, 1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_TreeLoad, Hot, false)
    ->Name("BM_HotLoad/shuffled")
    ->RangeMultiplier(4)->Range(1 << 14, 1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_TreeLoad, Art, true)
    ->Name("BM_ArtLoad/sorted")
    ->RangeMultiplier(4)->Range(1 << 14, 1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_TreeLoad, Art, false)
    ->Name("BM_ArtLoad/shuffled")
    ->RangeMultiplier(4)->Range(1 << 14, 1 << 20)
    ->Unit(benchmark::kMillisecond);

// Single-threaded insert, lookup and 50-key scan through the sharded
// serving index (4 shards, Single-Char, B+tree) over n shuffled emails:
// what a caller without contention pays for the shard locks, EBR pins
// and double-route checks. Insert times a full load per iteration.
enum class ShardedOp { kInsert, kLookup, kScan };

void BM_ShardedIndexOps(benchmark::State& state, ShardedOp op) {
  static const auto* all = new std::vector<std::string>(
      GenerateEmails(size_t{1} << 20, 45));
  std::vector<std::string> keys(all->begin(), all->begin() + state.range(0));
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(46));
  dynamic::ShardedDictionaryManager::Options opts;
  opts.num_shards = 4;
  opts.shard.scheme = Scheme::kSingleChar;
  dynamic::ShardedDictionaryManager mgr(SampleKeys(keys, 0.01), opts);
  using Index = serve::ConcurrentShardedIndex<BTree>;
  auto load = [&] {
    auto index = std::make_unique<Index>(&mgr);
    for (size_t i = 0; i < keys.size(); i++) index->Insert(keys[i], i);
    return index;
  };
  int64_t ops = 0;
  if (op == ShardedOp::kInsert) {
    for (auto _ : state) {
      auto index = load();
      state.PauseTiming();
      index.reset();
      state.ResumeTiming();
      ops += static_cast<int64_t>(keys.size());
    }
  } else {
    auto index = load();
    std::vector<uint64_t> out;
    size_t i = 0;
    uint64_t v = 0;
    for (auto _ : state) {
      if (op == ShardedOp::kLookup) {
        benchmark::DoNotOptimize(index->Lookup(keys[i], &v));
      } else {
        out.clear();
        benchmark::DoNotOptimize(index->Scan(keys[i], 50, &out));
      }
      i = (i + 1) % keys.size();
      ops++;
    }
  }
  state.counters["time_per_op"] = benchmark::Counter(
      static_cast<double>(ops),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_ShardedIndexOps, insert, ShardedOp::kInsert)
    ->RangeMultiplier(4)->Range(1 << 16, 1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ShardedIndexOps, lookup, ShardedOp::kLookup)
    ->RangeMultiplier(4)->Range(1 << 16, 1 << 20);
BENCHMARK_CAPTURE(BM_ShardedIndexOps, scan50, ShardedOp::kScan)
    ->RangeMultiplier(4)->Range(1 << 16, 1 << 20);

void BM_SurfMayContain(benchmark::State& state) {
  auto sorted = EmailKeys();
  std::sort(sorted.begin(), sorted.end());
  Surf surf(sorted, SurfSuffix::kReal8);
  const auto& keys = EmailKeys();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(surf.MayContain(keys[i]));
    i = (i + 1) % keys.size();
  }
}
BENCHMARK(BM_SurfMayContain);

}  // namespace
}  // namespace hope

BENCHMARK_MAIN();
