// google-benchmark microbenchmarks for the hot code paths: per-scheme
// encoding, dictionary lookups, Hu-Tucker construction, and search-tree
// point operations. Complements the per-figure harnesses with
// statistically robust single-operation timings.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <random>

#include "art/art.h"
#include "btree/btree.h"
#include "datasets/datasets.h"
#include "hope/hope.h"
#include "hope/hu_tucker.h"
#include "hot/hot.h"
#include "prefix_btree/prefix_btree.h"
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
