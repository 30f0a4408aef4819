#include "hope/symbol_selector.h"

#include <gtest/gtest.h>

#include "common/str_utils.h"
#include "datasets/datasets.h"

namespace hope {
namespace {

std::vector<std::string> SmallSample() {
  return {"com.gmail@alice", "com.gmail@bob",   "com.yahoo@carol",
          "com.gmail@dave",  "org.apache@eve",  "com.gmail@frank",
          "net.att@grace",   "com.yahoo@heidi", "com.gmail@ivan"};
}

TEST(GapIntervalsTest, WholeAxis) {
  std::vector<IntervalSpec> out;
  AddGapIntervals("", "", &out);
  // One interval per first byte.
  ASSERT_EQ(out.size(), 256u);
  EXPECT_EQ(out[0].left_bound, "");
  EXPECT_EQ(out[0].symbol, std::string(1, '\0'));
  EXPECT_EQ(out[255].symbol, std::string(1, '\xff'));
  EXPECT_EQ(ValidateIntervals(out), "");
}

TEST(GapIntervalsTest, SingleCommonPrefix) {
  std::vector<IntervalSpec> out;
  AddGapIntervals("inh", "ion", &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].left_bound, "inh");
  EXPECT_EQ(out[0].symbol, "i");
}

TEST(GapIntervalsTest, SplitsAtByteBoundaries) {
  std::vector<IntervalSpec> out;
  AddGapIntervals("ax", "cat", &out);
  // [ax, b) symbol a; [b, c) symbol b; [c, cat) symbol c.
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].left_bound, "ax");
  EXPECT_EQ(out[0].symbol, "a");
  EXPECT_EQ(out[1].left_bound, "b");
  EXPECT_EQ(out[1].symbol, "b");
  EXPECT_EQ(out[2].left_bound, "c");
  EXPECT_EQ(out[2].symbol, "c");
}

TEST(GapIntervalsTest, EmptyGapEmitsNothing) {
  std::vector<IntervalSpec> out;
  AddGapIntervals("abc", "abc", &out);
  EXPECT_TRUE(out.empty());
  AddGapIntervals("abd", "abc", &out);
  EXPECT_TRUE(out.empty());
}

// The six schemes' selectors, by index 0-5.
std::unique_ptr<SymbolSelector> MakeSelector(int which) {
  switch (which) {
    case 0: return MakeSingleCharSelector();
    case 1: return MakeDoubleCharSelector();
    case 2: return MakeNGramSelector(3);
    case 3: return MakeNGramSelector(4);
    case 4: return MakeAlmSelector();
    default: return MakeAlmImprovedSelector();
  }
}

class SelectorParamTest
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(SelectorParamTest, ProducesValidCompleteIntervals) {
  auto [which, limit] = GetParam();
  auto sel = MakeSelector(which);
  auto keys = GenerateEmails(2000, 11);
  auto intervals = sel->Select(keys, limit);
  ASSERT_FALSE(intervals.empty());
  EXPECT_EQ(ValidateIntervals(intervals), "");
  // Test-encode fills weights and never gets stuck.
  TestEncodeWeights(keys, &intervals);
  double total = 0;
  for (auto& spec : intervals) total += spec.weight;
  EXPECT_GT(total, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SelectorParamTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4, 5),
                       ::testing::Values(size_t{256}, size_t{4096})));

TEST(SelectorTest, SingleCharLayout) {
  auto intervals = MakeSingleCharSelector()->Select({}, 0);
  ASSERT_EQ(intervals.size(), 256u);
  EXPECT_EQ(intervals[0].left_bound, "");
  EXPECT_EQ(intervals[static_cast<size_t>('a')].symbol, "a");
  EXPECT_EQ(ValidateIntervals(intervals), "");
}

TEST(SelectorTest, DoubleCharLayoutWithTerminators) {
  auto intervals = MakeDoubleCharSelector()->Select({}, 0);
  ASSERT_EQ(intervals.size(), 256u * 257u);
  EXPECT_EQ(ValidateIntervals(intervals), "");
  // Terminator entry for 'b' covers exactly the string "b".
  size_t b_term = static_cast<size_t>('b') * 257;
  EXPECT_EQ(intervals[b_term].left_bound, "b");
  EXPECT_EQ(intervals[b_term].symbol, "b");
  EXPECT_EQ(intervals[b_term + 1].left_bound, std::string("b\0", 2));
}

TEST(SelectorTest, NGramSelectsFrequentPatterns) {
  std::vector<std::string> keys;
  for (int i = 0; i < 500; i++) keys.push_back("singing");
  auto intervals = MakeNGramSelector(3)->Select(keys, 64);
  EXPECT_EQ(ValidateIntervals(intervals), "");
  bool found_ing = false;
  for (auto& spec : intervals)
    if (spec.symbol == "ing") found_ing = true;
  EXPECT_TRUE(found_ing);
}

TEST(SelectorTest, AlmSelectsLongFrequentPatterns) {
  auto keys = SmallSample();
  // Duplicate keys so long substrings dominate the len*freq score.
  std::vector<std::string> big;
  for (int i = 0; i < 50; i++)
    big.insert(big.end(), keys.begin(), keys.end());
  auto intervals = MakeAlmImprovedSelector()->Select(big, 128);
  EXPECT_EQ(ValidateIntervals(intervals), "");
  // A long common pattern ("com.gmail@...") must appear as a symbol; gap
  // symbols may prefix selected symbols (Fig. 4c shows "s" next to
  // "sion"), so we only require that *some* long symbol was selected.
  size_t longest = 0;
  for (auto& spec : intervals) longest = std::max(longest, spec.symbol.size());
  EXPECT_GE(longest, 5u);
}

TEST(SelectorTest, AlmBlendingResolvesPrefixConflicts) {
  // "sig" and "sigmod" both score highly; after blending, encoding a key
  // that contains "sigmod" must still work and the intervals stay valid.
  std::vector<std::string> keys;
  for (int i = 0; i < 200; i++) {
    keys.push_back("sigmod2020");
    keys.push_back("sigir2020");
    keys.push_back("sig");
  }
  auto intervals = MakeAlmImprovedSelector()->Select(keys, 64);
  EXPECT_EQ(ValidateIntervals(intervals), "");
  TestEncodeWeights(keys, &intervals);  // must not get stuck
}

TEST(SelectorTest, ValidateCatchesBrokenIntervals) {
  std::vector<IntervalSpec> bad1;  // does not start at -infinity
  bad1.push_back({"a", "a", 0});
  EXPECT_NE(ValidateIntervals(bad1), "");

  std::vector<IntervalSpec> bad2;  // empty symbol
  bad2.push_back({"", "", 0});
  EXPECT_NE(ValidateIntervals(bad2), "");

  std::vector<IntervalSpec> bad3;  // interval extends past symbol range
  bad3.push_back({"", std::string(1, '\0'), 0});
  bad3.push_back({"a", "a", 0});
  bad3.push_back({"b", "a", 0});  // symbol "a" cannot cover [b, ...)
  EXPECT_NE(ValidateIntervals(bad3), "");
}

TEST(TestEncodeTest, CountsMatchManualTrace) {
  // Dictionary: ["", a) -> \0 region splits; simple two-interval axis over
  // single chars for a tiny alphabet.
  std::vector<IntervalSpec> intervals;
  AddGapIntervals("", "", &intervals);  // one interval per byte
  std::vector<std::string> keys{"ab", "ba", "aa"};
  TestEncodeWeights(keys, &intervals);
  EXPECT_DOUBLE_EQ(intervals[static_cast<size_t>('a')].weight, 4.0);
  EXPECT_DOUBLE_EQ(intervals[static_cast<size_t>('b')].weight, 2.0);
}

// The reference for TestEncodeWeights: each lookup binary-searches every
// interval, with no first-byte table.
std::vector<double> ReferenceWeights(const std::vector<std::string>& samples,
                                     const std::vector<IntervalSpec>& iv) {
  std::vector<double> weights(iv.size(), 0);
  for (const std::string& key : samples) {
    std::string_view src(key);
    while (!src.empty()) {
      size_t lo = 0, hi = iv.size();  // invariant: iv[lo].left_bound <= src
      while (hi - lo > 1) {
        size_t mid = (lo + hi) / 2;
        if (std::string_view(iv[mid].left_bound) <= src)
          lo = mid;
        else
          hi = mid;
      }
      weights[lo] += 1;
      src.remove_prefix(iv[lo].symbol.size());
    }
  }
  return weights;
}

// Keys at the edges of the first-byte table: NUL-led keys, 0xff runs, every
// 1-byte key, and 2-byte keys under every first byte, including the bytes
// at which no interval boundary starts (most of them for the gram and ALM
// schemes).
std::vector<std::string> EdgeKeys() {
  std::vector<std::string> keys = {
      std::string(1, '\0'),          std::string("\0\0\0", 3),
      std::string("\0abc", 4),        std::string("\0\xff", 2),
      std::string(1, '\xff'),        std::string(4, '\xff'),
      std::string(40, '\xff'),       std::string("a\xff\xff\xff", 4),
      std::string("\xff\0\xff", 3), std::string("\xfe\xff", 2)};
  for (int b = 0; b < 256; b++) {
    const char c = static_cast<char>(b);
    keys.push_back(std::string(1, c));
    keys.push_back(std::string{c, '\0'});
    keys.push_back(std::string{c, c});
    keys.push_back(std::string{c, '\xff'});
  }
  return keys;
}

TEST(TestEncodeTest, BucketedWeightsMatchFullBinarySearch) {
  const std::vector<std::vector<std::string>> samples = {
      GenerateEmails(2000, 41), GenerateUrls(2000, 42),
      GenerateWikiTitles(2000, 43)};
  std::vector<std::string> probes = EdgeKeys();
  for (const auto& sample : samples)
    probes.insert(probes.end(), sample.begin(), sample.end());
  for (int which = 0; which < 6; which++) {
    for (const auto& sample : samples) {
      auto intervals = MakeSelector(which)->Select(sample, 4096);
      ASSERT_EQ(ValidateIntervals(intervals), "") << which;
      const std::vector<double> expected = ReferenceWeights(probes, intervals);
      TestEncodeWeights(probes, &intervals);
      ASSERT_EQ(intervals.size(), expected.size());
      for (size_t i = 0; i < intervals.size(); i++)
        ASSERT_EQ(intervals[i].weight, expected[i])
            << "selector " << which << ", interval " << i << " ["
            << intervals[i].left_bound << "]";
    }
  }
}

}  // namespace
}  // namespace hope
