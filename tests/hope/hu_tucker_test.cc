#include "hope/hu_tucker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

#include "datasets/datasets.h"
#include "hope/symbol_selector.h"

namespace hope {
namespace {

bool IsBitPrefix(const Code& a, const Code& b) {
  if (a.len > b.len) return false;
  if (a.len == 0) return true;
  uint64_t mask = ~uint64_t{0} << (64 - a.len);
  return (a.bits & mask) == (b.bits & mask);
}

bool CodeLess(const Code& a, const Code& b) {
  return CodeToString(a) < CodeToString(b);
}

double ExpectedLength(const std::vector<double>& weights,
                      const std::vector<Code>& codes) {
  double total = 0;
  for (size_t i = 0; i < weights.size(); i++)
    total += weights[i] * codes[i].len;
  return total;
}

void CheckAlphabeticPrefixCode(const std::vector<Code>& codes) {
  for (size_t i = 0; i + 1 < codes.size(); i++)
    EXPECT_TRUE(CodeLess(codes[i], codes[i + 1]))
        << "codes not monotone at " << i << ": " << CodeToString(codes[i])
        << " vs " << CodeToString(codes[i + 1]);
  for (size_t i = 0; i < codes.size(); i++) {
    for (size_t j = 0; j < codes.size(); j++) {
      if (i == j) continue;
      EXPECT_FALSE(IsBitPrefix(codes[i], codes[j]))
          << CodeToString(codes[i]) << " prefixes " << CodeToString(codes[j]);
    }
  }
}

// Reference combination phase: the original Garsia-Wachs work list kept
// in one std::vector with erase/insert on every merge (O(n) tail shift per
// merge). Kept here only to pin the production merge order: the gap
// buffer in hu_tucker.cc must produce identical depths on every input.
std::vector<int> ReferenceDepthsFloored(const std::vector<double>& weights,
                                        double floor_w) {
  struct WorkItem {
    double weight;
    int32_t node;
  };
  struct MergeNode {
    int32_t left = -1;
    int32_t right = -1;
  };
  const size_t n = weights.size();
  std::vector<int> depths(n, 0);
  if (n <= 1) {
    if (n == 1) depths[0] = 1;
    return depths;
  }
  std::vector<MergeNode> nodes(n);
  nodes.reserve(2 * n);
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<WorkItem> list;
  list.reserve(n + 2);
  list.push_back({kInf, -1});
  for (size_t i = 0; i < n; i++)
    list.push_back({std::max(weights[i], floor_w), static_cast<int32_t>(i)});
  list.push_back({kInf, -1});
  size_t scan = 1;
  for (size_t merges = 0; merges < n - 1; merges++) {
    size_t i = std::max<size_t>(scan, 1);
    while (!(list[i - 1].weight <= list[i + 1].weight)) i++;
    double w = list[i - 1].weight + list[i].weight;
    int32_t id = static_cast<int32_t>(nodes.size());
    nodes.push_back({list[i - 1].node, list[i].node});
    list.erase(list.begin() + static_cast<long>(i - 1),
               list.begin() + static_cast<long>(i + 1));
    size_t j = i - 1;
    while (list[j - 1].weight < w) j--;
    list.insert(list.begin() + static_cast<long>(j), {w, id});
    scan = j > 1 ? j - 1 : 1;
  }
  EXPECT_EQ(list.size(), 3u);
  std::vector<std::pair<int32_t, int>> stack;
  stack.emplace_back(list[1].node, 0);
  while (!stack.empty()) {
    auto [id, d] = stack.back();
    stack.pop_back();
    const MergeNode& nd = nodes[id];
    if (nd.left == -1 && nd.right == -1) {
      depths[id] = d;
      continue;
    }
    stack.emplace_back(nd.left, d + 1);
    stack.emplace_back(nd.right, d + 1);
  }
  return depths;
}

// The production floor/retry loop around the reference phase.
std::vector<int> ReferenceDepths(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  if (total <= 0) total = 1;
  double floor_w = total / std::pow(2.0, 20);
  while (true) {
    std::vector<int> depths = ReferenceDepthsFloored(weights, floor_w);
    int max_depth = 0;
    for (int d : depths) max_depth = std::max(max_depth, d);
    if (max_depth <= 32) return depths;
    floor_w *= 16;
  }
}

std::vector<double> WeightsOf(const std::vector<IntervalSpec>& intervals) {
  std::vector<double> w;
  w.reserve(intervals.size());
  for (const auto& spec : intervals) w.push_back(spec.weight);
  return w;
}

TEST(HuTuckerTest, Empty) { EXPECT_TRUE(HuTuckerCodes({}).empty()); }

TEST(HuTuckerTest, SingleSymbol) {
  auto codes = HuTuckerCodes({5.0});
  ASSERT_EQ(codes.size(), 1u);
  EXPECT_EQ(codes[0].len, 1);
}

TEST(HuTuckerTest, TwoSymbols) {
  auto codes = HuTuckerCodes({1.0, 9.0});
  ASSERT_EQ(codes.size(), 2u);
  EXPECT_EQ(CodeToString(codes[0]), "0");
  EXPECT_EQ(CodeToString(codes[1]), "1");
}

TEST(HuTuckerTest, UniformWeightsGiveBalancedTree) {
  auto codes = HuTuckerCodes(std::vector<double>(8, 1.0));
  ASSERT_EQ(codes.size(), 8u);
  for (auto& c : codes) EXPECT_EQ(c.len, 3);
  CheckAlphabeticPrefixCode(codes);
}

TEST(HuTuckerTest, SkewedWeightsGiveShortHotCodes) {
  // A very hot middle symbol must receive a shorter code.
  std::vector<double> w{1, 1, 1000, 1, 1};
  auto codes = HuTuckerCodes(w);
  CheckAlphabeticPrefixCode(codes);
  EXPECT_LE(codes[2].len, 2);
  EXPECT_GT(codes[0].len, codes[2].len);
}

TEST(HuTuckerTest, KnownExample) {
  // Classic Hu-Tucker example: weights whose optimal alphabetic tree
  // differs from the Huffman tree.
  std::vector<double> w{3, 1, 4, 1, 5, 9, 2, 6};
  auto codes = HuTuckerCodes(w);
  CheckAlphabeticPrefixCode(codes);
  EXPECT_DOUBLE_EQ(ExpectedLength(w, codes),
                   OptimalAlphabeticCostBruteForce(w));
}

class HuTuckerRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(HuTuckerRandomTest, OptimalAndValidOnRandomInputs) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> nsym(1, 24);
  std::uniform_real_distribution<double> weight(0.0, 100.0);
  for (int iter = 0; iter < 50; iter++) {
    int n = nsym(rng);
    std::vector<double> w(n);
    for (auto& x : w) x = weight(rng);
    auto codes = HuTuckerCodes(w);
    ASSERT_EQ(codes.size(), w.size());
    CheckAlphabeticPrefixCode(codes);
    if (n >= 2) {
      double got = ExpectedLength(w, codes);
      double opt = OptimalAlphabeticCostBruteForce(w);
      EXPECT_NEAR(got, opt, 1e-6 * std::max(1.0, opt))
          << "suboptimal alphabetic code for n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuTuckerRandomTest,
                         ::testing::Range(1, 11));

TEST(HuTuckerTest, ZeroWeightsDoNotBreak) {
  std::vector<double> w{0, 0, 5, 0, 0, 7, 0};
  auto codes = HuTuckerCodes(w);
  CheckAlphabeticPrefixCode(codes);
  // Hot symbols still get short codes.
  EXPECT_LE(codes[2].len, 3);
  EXPECT_LE(codes[5].len, 3);
}

TEST(HuTuckerTest, LargeInputHasBoundedDepth) {
  std::mt19937_64 rng(42);
  std::vector<double> w(1 << 12);
  for (auto& x : w) x = std::uniform_real_distribution<double>(0, 1)(rng);
  w[100] = 1e9;  // extreme skew
  auto codes = HuTuckerCodes(w);
  for (auto& c : codes) EXPECT_LE(c.len, 64);
  for (size_t i = 0; i + 1 < codes.size(); i++)
    EXPECT_TRUE(CodeLess(codes[i], codes[i + 1]));
}

TEST(HuTuckerTest, DepthsMatchCodes) {
  std::vector<double> w{2, 7, 1, 8, 2, 8};
  auto depths = HuTuckerDepths(w);
  auto codes = HuTuckerCodes(w);
  ASSERT_EQ(depths.size(), codes.size());
  for (size_t i = 0; i < w.size(); i++)
    EXPECT_EQ(depths[i], codes[i].len);
}

// Random weight vectors in five shapes that stress ties, exact sums, the
// weight floor and both scan extremes.
enum class Shape { kSmallIntTies, kPowersOfTwo, kAllEqual, kDecreasing,
                   kUniformWithZeros };

std::vector<double> RandomWeights(Shape shape, size_t n, std::mt19937_64& rng) {
  std::vector<double> w(n);
  switch (shape) {
    case Shape::kSmallIntTies:
      for (auto& x : w) x = std::uniform_int_distribution<int>(0, 4)(rng);
      break;
    case Shape::kPowersOfTwo:
      for (auto& x : w)
        x = std::ldexp(1.0, -std::uniform_int_distribution<int>(0, 60)(rng));
      break;
    case Shape::kAllEqual:
      std::fill(w.begin(), w.end(),
                std::uniform_real_distribution<double>(0.5, 2.0)(rng));
      break;
    case Shape::kDecreasing:
      for (auto& x : w) x = std::uniform_real_distribution<double>(0, 1)(rng);
      std::sort(w.begin(), w.end(), std::greater<>());
      break;
    case Shape::kUniformWithZeros:
      for (auto& x : w)
        x = std::bernoulli_distribution(0.3)(rng)
                ? 0.0
                : std::uniform_real_distribution<double>(0, 1)(rng);
      break;
  }
  return w;
}

TEST(HuTuckerDifferentialTest, RandomShapesMatchReference) {
  std::mt19937_64 rng(2024);
  std::uniform_int_distribution<size_t> small_n(1, 64);
  std::uniform_int_distribution<size_t> large_n(65, 2048);
  const Shape kShapes[] = {Shape::kSmallIntTies, Shape::kPowersOfTwo,
                           Shape::kAllEqual, Shape::kDecreasing,
                           Shape::kUniformWithZeros};
  for (Shape shape : kShapes) {
    for (int iter = 0; iter < 2000; iter++) {
      size_t n = iter % 10 == 0 ? large_n(rng) : small_n(rng);
      auto w = RandomWeights(shape, n, rng);
      ASSERT_EQ(HuTuckerDepths(w), ReferenceDepths(w))
          << "shape " << static_cast<int>(shape) << " n=" << n
          << " iter=" << iter;
    }
  }
}

// A 1% sample of 2M emails, as the point-lookup benchmark draws it. The
// generators are prefix-stable and SampleKeys takes the first keys, so
// generating the first 20k directly yields exactly that sample.
const std::vector<std::string>& EmailSample() {
  static const auto* sample =
      new std::vector<std::string>(GenerateEmails(20'000));
  return *sample;
}

// Double-Char's 65,792 interval weights: the dictionary the point-lookup
// benchmark builds, and the input that was quadratic under erase/insert.
TEST(HuTuckerDifferentialTest, DoubleCharEmailWeightsMatchReference) {
  auto intervals = MakeDoubleCharSelector()->Select(EmailSample(), 0);
  TestEncodeWeights(EmailSample(), &intervals);
  auto w = WeightsOf(intervals);
  ASSERT_EQ(w.size(), 65'792u);
  EXPECT_EQ(HuTuckerDepths(w), ReferenceDepths(w));
}

// A 4-Grams dictionary at the paper's 2^16-entry limit (the sample holds
// fewer distinct grams, so it stops short of the limit, but well past the
// 2^14 default).
TEST(HuTuckerDifferentialTest, FourGramsBigDictWeightsMatchReference) {
  auto intervals =
      MakeNGramSelector(4)->Select(EmailSample(), size_t{1} << 16);
  TestEncodeWeights(EmailSample(), &intervals);
  auto w = WeightsOf(intervals);
  ASSERT_GT(w.size(), size_t{1} << 14);
  EXPECT_EQ(HuTuckerDepths(w), ReferenceDepths(w));
}

}  // namespace
}  // namespace hope
