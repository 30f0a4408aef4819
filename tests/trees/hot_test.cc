#include "hot/hot.h"

#include <gtest/gtest.h>

#include "art/art.h"
#include "tests/trees/tree_test_utils.h"

namespace hope {
namespace {

TEST(HotTest, EmptyTree) {
  Hot t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.Lookup("x", nullptr));
  EXPECT_EQ(t.Scan("", 10, nullptr), 0u);
  EXPECT_EQ(t.CheckInvariants(), "");
}

TEST(HotTest, PrefixKeysViaEndOfKeyEdges) {
  Hot t;
  t.Insert("ab", 1);
  t.Insert("abc", 2);
  t.Insert("abcd", 3);
  t.Insert("x", 4);
  uint64_t v = 0;
  EXPECT_TRUE(t.Lookup("ab", &v));
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(t.Lookup("abc", &v));
  EXPECT_EQ(v, 2u);
  EXPECT_FALSE(t.Lookup("a", nullptr));
  EXPECT_FALSE(t.Lookup("abcde", nullptr));
  EXPECT_EQ(t.CheckInvariants(), "");
  std::vector<uint64_t> vals;
  EXPECT_EQ(t.Scan("ab", 10, &vals), 4u);
  EXPECT_EQ(vals, (std::vector<uint64_t>{1, 2, 3, 4}));
}

class HotCorpusTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HotCorpusTest, MatchesReferenceModel) {
  auto corpora = TestKeyCorpora();
  Hot t;
  RunReferenceTest(&t, corpora[GetParam()], 41 + GetParam());
  EXPECT_EQ(t.CheckInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Corpora, HotCorpusTest,
                         ::testing::Values(0, 1, 2, 3), CorpusName);

TEST(HotTest, StoresOnlyDiscriminativeBytes) {
  // Keys sharing a 100-byte prefix: the trie must stay tiny and shallow
  // because non-discriminative bytes are skipped entirely.
  Hot t;
  std::string common(100, 'c');
  for (int i = 0; i < 100; i++)
    t.Insert(common + std::to_string(i), static_cast<uint64_t>(i));
  EXPECT_EQ(t.CheckInvariants(), "");
  EXPECT_LT(t.AverageLeafDepth(), 4.0);
  EXPECT_LT(t.MemoryBytes(), 20000u);
  uint64_t v = 0;
  EXPECT_TRUE(t.Lookup(common + "42", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_FALSE(t.Lookup(common + "100", nullptr));
}

TEST(HotTest, LowerHeightThanArt) {
  // The height-optimized structure must be shallower than ART on the same
  // keys (HOT's design goal).
  auto keys = GenerateEmails(5000, 62);
  Hot hot;
  Art art;
  for (size_t i = 0; i < keys.size(); i++) {
    hot.Insert(keys[i], i);
    art.Insert(keys[i], i);
  }
  EXPECT_LT(hot.AverageLeafDepth(), art.AverageLeafDepth() + 1.0);
}

TEST(HotTest, MemorySmallerThanArtOnSameKeys) {
  auto keys = GenerateUrls(4000, 63);
  Hot hot;
  Art art;
  for (size_t i = 0; i < keys.size(); i++) {
    hot.Insert(keys[i], i);
    art.Insert(keys[i], i);
  }
  EXPECT_LT(hot.MemoryBytes(), art.MemoryBytes());
}

// MemoryBytes() is 16 bytes per leaf plus, per node, its block and an
// 8-byte charge: a padding regression in the node layout fails here.
TEST(HotTest, MemoryBytesIsLeavesPlusNodeBlocks) {
  constexpr size_t kLeaf = 16, kCharge = 8;
  Hot t;
  t.Insert("a", 1);
  EXPECT_EQ(t.MemoryBytes(), kLeaf);
  // One node at offset 0 with edges 'a', 'b', 'c'.
  t.Insert("b", 2);
  t.Insert("c", 3);
  EXPECT_EQ(t.MemoryBytes(), 3 * kLeaf + Hot::NodeBytes(3) + kCharge);
  // Under 'a', a node at offset 1 with edges end-of-key, 'b', 'c'.
  t.Insert("ab", 4);
  t.Insert("ac", 5);
  EXPECT_EQ(t.MemoryBytes(), 5 * kLeaf + 2 * (Hot::NodeBytes(3) + kCharge));
  // Under 'b', a two-edge node; the root grows to four edges.
  t.Insert("ba", 6);
  t.Insert("d", 7);
  EXPECT_EQ(t.MemoryBytes(), 7 * kLeaf + Hot::NodeBytes(4) +
                                 Hot::NodeBytes(3) + Hot::NodeBytes(2) +
                                 3 * kCharge);
  EXPECT_EQ(t.CheckInvariants(), "");
  // One node of 257 edges: "p" (end-of-key first) and "p" + every byte.
  Hot wide;
  wide.Insert("p", 0);
  for (int b = 0; b < 256; b++)
    wide.Insert(std::string("p") + static_cast<char>(b),
                static_cast<uint64_t>(b + 1));
  EXPECT_EQ(wide.AverageLeafDepth(), 1.0);
  EXPECT_EQ(wide.MemoryBytes(), 257 * kLeaf + Hot::NodeBytes(257) + kCharge);
  EXPECT_EQ(wide.CheckInvariants(), "");
}

// Keys of length 0, 65534, 65535, 65536 and 200000 (both sides of the
// arena's 16-bit length tag, and past a chunk) with their neighbours,
// through inserts, overwrites, erases and re-inserts.
TEST(HotTest, KeyArenaEdgeCases) { RunKeyArenaEdgeCases<Hot>(70); }

// Destroying a tree, or erasing every key, and loading again gives the
// same tree, memory figure included.
TEST(HotTest, ReloadAfterDestroyAndAfterEraseAll) {
  std::vector<std::string> keys = GenerateEmails(20000, 80);
  auto urls = GenerateUrls(2000, 81);
  keys.insert(keys.end(), urls.begin(), urls.end());
  RunReloadCycles<Hot>(keys);
}

}  // namespace
}  // namespace hope
