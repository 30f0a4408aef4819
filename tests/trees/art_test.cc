#include "art/art.h"

#include <gtest/gtest.h>

#include "tests/trees/tree_test_utils.h"

namespace hope {
namespace {

TEST(ArtTest, EmptyTree) {
  Art t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.Lookup("x", nullptr));
  EXPECT_EQ(t.Scan("", 10, nullptr), 0u);
  EXPECT_EQ(t.CheckInvariants(), "");
}

TEST(ArtTest, PrefixKeys) {
  // Keys that are strict prefixes of other keys must coexist (terminator
  // leaves, no key padding).
  Art t;
  t.Insert("a", 1);
  t.Insert("ab", 2);
  t.Insert("abc", 3);
  t.Insert("abcd", 4);
  t.Insert("b", 5);
  uint64_t v = 0;
  for (auto [k, want] : std::vector<std::pair<const char*, uint64_t>>{
           {"a", 1}, {"ab", 2}, {"abc", 3}, {"abcd", 4}, {"b", 5}}) {
    EXPECT_TRUE(t.Lookup(k, &v)) << k;
    EXPECT_EQ(v, want);
  }
  EXPECT_FALSE(t.Lookup("abcde", nullptr));
  EXPECT_FALSE(t.Lookup("", nullptr));
  EXPECT_EQ(t.CheckInvariants(), "");
  // Scan in key order.
  std::vector<uint64_t> vals;
  EXPECT_EQ(t.Scan("a", 10, &vals), 5u);
  EXPECT_EQ(vals, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
}

TEST(ArtTest, LongCommonPrefixBeyondStoredBytes) {
  // Prefixes longer than the 8 stored bytes exercise the optimistic path
  // and the pessimistic fallbacks (insert splits, scans).
  Art t;
  std::string common(40, 'p');
  t.Insert(common + "alpha", 1);
  t.Insert(common + "beta", 2);
  t.Insert(common + "gamma", 3);
  uint64_t v = 0;
  EXPECT_TRUE(t.Lookup(common + "beta", &v));
  EXPECT_EQ(v, 2u);
  EXPECT_FALSE(t.Lookup(common + "delta", nullptr));
  // A key diverging inside the long prefix splits it correctly.
  std::string diverging = common.substr(0, 20) + "Q";
  t.Insert(diverging, 4);
  EXPECT_TRUE(t.Lookup(diverging, &v));
  EXPECT_EQ(v, 4u);
  EXPECT_TRUE(t.Lookup(common + "alpha", &v));
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(t.CheckInvariants(), "");
  std::vector<uint64_t> vals;
  EXPECT_EQ(t.Scan(common.substr(0, 10), 10, &vals), 4u);
  EXPECT_EQ(vals, (std::vector<uint64_t>{4, 1, 2, 3}));
}

class ArtCorpusTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ArtCorpusTest, MatchesReferenceModel) {
  auto corpora = TestKeyCorpora();
  Art t;
  RunReferenceTest(&t, corpora[GetParam()], 31 + GetParam());
  EXPECT_EQ(t.CheckInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Corpora, ArtCorpusTest,
                         ::testing::Values(0, 1, 2, 3), CorpusName);

TEST(ArtTest, NodeGrowthThroughAllSizes) {
  // 256 distinct first bytes force Node4 -> 16 -> 48 -> 256 growth.
  Art t;
  for (int b = 0; b < 256; b++) {
    std::string k(1, static_cast<char>(b));
    t.Insert(k + "tail", static_cast<uint64_t>(b));
  }
  for (int b = 0; b < 256; b++) {
    std::string k(1, static_cast<char>(b));
    uint64_t v = 0;
    ASSERT_TRUE(t.Lookup(k + "tail", &v));
    ASSERT_EQ(v, static_cast<uint64_t>(b));
  }
  EXPECT_EQ(t.CheckInvariants(), "");
}

TEST(ArtTest, AverageLeafDepthShrinksWithCompressedKeys) {
  // Path compression keeps depth near the number of branch points.
  auto keys = GenerateEmails(5000, 61);
  Art t;
  for (size_t i = 0; i < keys.size(); i++) t.Insert(keys[i], i);
  double depth = t.AverageLeafDepth();
  EXPECT_GT(depth, 1.0);
  EXPECT_LT(depth, 24.0);  // far below key length + shared-prefix depth
}

TEST(ArtTest, MemoryExcludesTupleBytes) {
  // Index memory must not scale with key *tail* length (tails live in
  // leaves' tuples, not the index).
  Art short_keys, long_keys;
  for (int i = 0; i < 2000; i++) {
    std::string id = std::to_string(i * 7919 % 100000);
    short_keys.Insert(id + "s", i);
    long_keys.Insert(id + std::string(100, 'z'), i);
  }
  // Same branching structure; long tails add at most the 8-byte stored
  // prefixes, so memory stays within 2x.
  EXPECT_LT(long_keys.MemoryBytes(),
            short_keys.MemoryBytes() * 2);
}

// Keys of length 0, 65534, 65535, 65536 and 200000 (both sides of the
// arena's 16-bit length tag, and past a chunk) with their neighbours,
// through inserts, overwrites, erases and re-inserts.
TEST(ArtTest, KeyArenaEdgeCases) { RunKeyArenaEdgeCases<Art>(71); }

// Destroying a tree, or erasing every key, and loading again gives the
// same tree, memory figure included.
TEST(ArtTest, ReloadAfterDestroyAndAfterEraseAll) {
  std::vector<std::string> keys = GenerateEmails(20000, 81);
  auto urls = GenerateUrls(2000, 82);
  keys.insert(keys.end(), urls.begin(), urls.end());
  RunReloadCycles<Art>(keys);
}

}  // namespace
}  // namespace hope
