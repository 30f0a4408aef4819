#include "btree/btree.h"

#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <stdexcept>

#include "tests/trees/tree_test_utils.h"

namespace hope {
namespace {

TEST(BTreeTest, EmptyTree) {
  BTree t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.Lookup("x", nullptr));
  EXPECT_EQ(t.Scan("", 10, nullptr), 0u);
  EXPECT_EQ(t.Height(), 0);
  EXPECT_EQ(t.CheckInvariants(), "");
}

TEST(BTreeTest, SingleKey) {
  BTree t;
  t.Insert("hello", 7);
  uint64_t v = 0;
  EXPECT_TRUE(t.Lookup("hello", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(t.Lookup("hell", nullptr));
  EXPECT_FALSE(t.Lookup("hello!", nullptr));
  EXPECT_EQ(t.Height(), 1);
}

class BTreeCorpusTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BTreeCorpusTest, MatchesReferenceModel) {
  auto corpora = TestKeyCorpora();
  BTree t;
  RunReferenceTest(&t, corpora[GetParam()], 11 + GetParam());
  EXPECT_EQ(t.CheckInvariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Corpora, BTreeCorpusTest,
                         ::testing::Values(0, 1, 2, 3), CorpusName);

TEST(BTreeTest, SortedInsertionKeepsInvariants) {
  auto keys = GenerateEmails(3000, 55);
  std::sort(keys.begin(), keys.end());
  BTree t;
  for (size_t i = 0; i < keys.size(); i++) t.Insert(keys[i], i);
  EXPECT_EQ(t.CheckInvariants(), "");
  EXPECT_EQ(t.size(), keys.size());
  // Full scan returns all values in key order.
  std::vector<uint64_t> vals;
  EXPECT_EQ(t.Scan("", keys.size() + 10, &vals), keys.size());
  for (size_t i = 0; i + 1 < vals.size(); i++)
    EXPECT_TRUE(keys[vals[i]] < keys[vals[i + 1]]);
}

TEST(BTreeTest, MemoryGrowsWithKeyBytes) {
  BTree small, large;
  for (int i = 0; i < 1000; i++) {
    std::string k = "k";
    k += std::to_string(i);
    small.Insert(k, i);
    large.Insert(k + std::string(64, 'x') + k, i);
  }
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes() + 50000u);
}

TEST(BTreeTest, HeightIsLogarithmic) {
  BTree t;
  auto keys = GenerateEmails(10000, 56);
  for (size_t i = 0; i < keys.size(); i++) t.Insert(keys[i], i);
  // fanout >= 8 after splits: height <= log_8(10000) + 2 ~ 7.
  EXPECT_LE(t.Height(), 7);
  EXPECT_GE(t.Height(), 3);
}

// Zero-padded decimal keys sort like their numbers; the random suffix
// varies key lengths without changing that order.
std::string NumKey(uint64_t n, std::mt19937_64* rng) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%012llu",
                static_cast<unsigned long long>(n));
  std::string key(buf);
  for (uint64_t i = (*rng)() % 4; i > 0; i--)
    key.push_back(static_cast<char>('a' + (*rng)() % 26));
  return key;
}

void MatchShadow(const BTree& t,
                 const std::map<std::string, uint64_t>& shadow) {
  ASSERT_EQ(t.CheckInvariants(), "");
  ASSERT_EQ(t.size(), shadow.size());
  std::vector<uint64_t> vals;
  ASSERT_EQ(t.Scan("", shadow.size() + 1, &vals), shadow.size());
  size_t i = 0;
  for (const auto& kv : shadow) ASSERT_EQ(vals[i++], kv.second) << kv.first;
}

// Keys at the edges of the key buffer's layout, driven against a shadow
// map through inserts, overwrites and erases: the empty key, keys of
// only 0x00 or 0xFF bytes, lengths on both sides of the 1-byte length
// (255 bytes and up carry the escape and an 8-byte length) and of
// 65,535 bytes, keys larger than 64 KiB, and enough short keys between
// them to grow the buffer many times.
TEST(BTreeTest, KeyArenaEdgeCases) {
  std::vector<std::string> keys = {"", std::string(1, '\0'),
                                   std::string(3, '\0'), "\xff",
                                   std::string(40, '\xff')};
  for (size_t len : {254, 255, 256, 65534, 65535, 65536, 200000}) {
    keys.push_back(std::string(len, 'k'));
    keys.push_back(std::string(len, '\0'));
    keys.push_back(std::string(len, '\xff'));
    // Neighbours differing only in their last byte or their length.
    keys.push_back(std::string(len - 1, 'k') + 'j');
    keys.push_back(std::string(len, 'k') + '\0');
  }
  keys.push_back(std::string(100000, 'c'));  // bigger than a chunk
  std::mt19937_64 rng(60);
  for (int i = 0; i < 20000; i++)
    keys.push_back(NumKey(rng() % 1000000, &rng));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::shuffle(keys.begin(), keys.end(), rng);

  BTree t;
  std::map<std::string, uint64_t> shadow;
  auto check = [&] { MatchShadowKeys(t, shadow); };
  uint64_t value = 0;
  for (const auto& key : keys) {
    t.Insert(key, ++value);
    shadow[key] = value;
  }
  ASSERT_NO_FATAL_FAILURE(check());
  for (auto& [key, v] : shadow) {
    t.Insert(key, ++value);
    v = value;
  }
  ASSERT_NO_FATAL_FAILURE(check());
  for (size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(t.Erase(keys[i])) << keys[i].size();
    ASSERT_FALSE(t.Erase(keys[i])) << keys[i].size();
    shadow.erase(keys[i]);
  }
  ASSERT_NO_FATAL_FAILURE(check());
  for (size_t i = 0; i < keys.size(); i += 2) {
    t.Insert(keys[i], ++value);
    shadow[keys[i]] = value;
  }
  ASSERT_NO_FATAL_FAILURE(check());
  for (const auto& key : keys) ASSERT_TRUE(t.Erase(key)) << key.size();
  shadow.clear();
  ASSERT_NO_FATAL_FAILURE(check());
  EXPECT_EQ(t.Height(), 0);
}

// Differential test of the append fast path and the right-spine splits:
// ascending appends mixed with random inserts, overwrites of the maximum
// and erases (random ones and of the maximum, which merges the rightmost
// leaf away), then an erase of everything and a second load into the
// emptied tree.
TEST(BTreeTest, AppendsMixedWithUpdatesMatchShadow) {
  for (uint64_t round = 0; round < 20; round++) {
    SCOPED_TRACE(round);
    std::mt19937_64 rng(300 + round);
    BTree t;
    std::map<std::string, uint64_t> shadow;
    uint64_t next = 0, value = 0;
    for (int phase = 0; phase < 2; phase++) {
      for (int op = 0; op < 3000; op++) {
        value++;
        uint64_t r = rng() % 100;
        if (r < 55 || shadow.empty()) {
          std::string key = NumKey(next++, &rng);
          t.Insert(key, value);
          shadow[key] = value;
        } else if (r < 75) {
          std::string key = NumKey(rng() % next, &rng);
          t.Insert(key, value);
          shadow[key] = value;
        } else if (r < 80) {
          t.Insert(shadow.rbegin()->first, value);
          shadow.rbegin()->second = value;
        } else if (r < 85) {
          std::string key = shadow.rbegin()->first;
          ASSERT_TRUE(t.Erase(key));
          shadow.erase(key);
        } else {
          // A random key: often present, sometimes absent.
          std::string key = NumKey(rng() % next, &rng);
          auto it = shadow.lower_bound(key);
          if (rng() % 4 != 0 && it != shadow.end()) key = it->first;
          ASSERT_EQ(t.Erase(key), shadow.erase(key) == 1) << key;
        }
        if (op % 500 == 499) {
          ASSERT_NO_FATAL_FAILURE(MatchShadow(t, shadow));
        }
      }
      ASSERT_NO_FATAL_FAILURE(MatchShadow(t, shadow));
      std::vector<std::string> keys;
      for (const auto& kv : shadow) keys.push_back(kv.first);
      std::shuffle(keys.begin(), keys.end(), rng);
      for (size_t i = 0; i < keys.size(); i++) {
        ASSERT_TRUE(t.Erase(keys[i]));
        shadow.erase(keys[i]);
        if (i % 250 == 0) {
          ASSERT_NO_FATAL_FAILURE(MatchShadow(t, shadow));
        }
      }
      ASSERT_NO_FATAL_FAILURE(MatchShadow(t, shadow));
      EXPECT_EQ(t.Height(), 0);
    }
  }
}

// Differential test of the sibling shift: shuffled inserts interleaved
// with overwrites and erases overflow full leaves whose left sibling has
// room, whose right sibling has room and whose siblings are both full,
// first and last children of their parent among them. Then an erase of
// everything and a second load into the emptied tree.
TEST(BTreeTest, SiblingShiftsMatchShadow) {
  for (uint64_t round = 0; round < 10; round++) {
    SCOPED_TRACE(round);
    std::mt19937_64 rng(400 + round);
    BTree t;
    std::map<std::string, uint64_t> shadow;
    uint64_t value = 0;
    for (int phase = 0; phase < 2; phase++) {
      for (int op = 0; op < 8000; op++) {
        value++;
        uint64_t r = rng() % 100;
        std::string key = NumKey(rng() % 100000, &rng);
        if (r < 70 || shadow.empty()) {
          t.Insert(key, value);
          shadow[key] = value;
        } else if (r < 80) {
          auto it = shadow.lower_bound(key);
          if (it == shadow.end()) it = shadow.begin();
          t.Insert(it->first, value);
          it->second = value;
        } else {
          // Often present, sometimes absent.
          auto it = shadow.lower_bound(key);
          if (rng() % 4 != 0 && it != shadow.end()) key = it->first;
          ASSERT_EQ(t.Erase(key), shadow.erase(key) == 1) << key;
        }
        if (op % 500 == 499) {
          ASSERT_NO_FATAL_FAILURE(MatchShadow(t, shadow));
        }
      }
      ASSERT_NO_FATAL_FAILURE(MatchShadow(t, shadow));
      std::vector<std::string> keys;
      for (const auto& kv : shadow) keys.push_back(kv.first);
      std::shuffle(keys.begin(), keys.end(), rng);
      for (size_t i = 0; i < keys.size(); i++) {
        ASSERT_TRUE(t.Erase(keys[i]));
        shadow.erase(keys[i]);
        if (i % 500 == 0) {
          ASSERT_NO_FATAL_FAILURE(MatchShadow(t, shadow));
        }
      }
      ASSERT_NO_FATAL_FAILURE(MatchShadow(t, shadow));
      EXPECT_EQ(t.Height(), 0);
    }
  }
}

// Unique emails in random order.
std::vector<std::string> ShuffledEmails(size_t n) {
  auto keys = GenerateEmails(n, 57);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::shuffle(keys.begin(), keys.end(), std::mt19937_64(58));
  return keys;
}

// A random-order load shifts entries into siblings before it splits, so
// its leaves end up ~83% full: ~17.0 node bytes per key (MemoryBytes()
// less the key bytes and their length bytes) on these emails, where
// splitting every full leaf leaves them ~70% full and needs ~20.1.
TEST(BTreeTest, ShuffledLoadShiftsBeforeSplitting) {
  auto keys = ShuffledEmails(100000);
  BTree t;
  size_t key_bytes = 0;
  for (size_t i = 0; i < keys.size(); i++) {
    t.Insert(keys[i], i);
    key_bytes += 1 + keys[i].size();
  }
  ASSERT_EQ(t.CheckInvariants(), "");
  ASSERT_EQ(t.size(), keys.size());
  double node_bytes_per_key =
      static_cast<double>(t.MemoryBytes() - key_bytes) / keys.size();
  EXPECT_LT(node_bytes_per_key, 18.4);
}

// A sorted load fills its leaves through the append splits, so it needs
// fewer node bytes than the same keys inserted in random order, whose
// sibling shifts and half splits leave leaves ~83% full (~1.2x the node
// bytes).
TEST(BTreeTest, SortedLoadFillsLeaves) {
  auto shuffled = ShuffledEmails(100000);
  auto keys = shuffled;
  std::sort(keys.begin(), keys.end());
  BTree sorted_tree, shuffled_tree;
  size_t key_bytes = 0;
  for (size_t i = 0; i < keys.size(); i++) {
    sorted_tree.Insert(keys[i], i);
    shuffled_tree.Insert(shuffled[i], i);
    key_bytes += keys[i].size();
  }
  ASSERT_EQ(sorted_tree.CheckInvariants(), "");
  ASSERT_EQ(shuffled_tree.CheckInvariants(), "");
  ASSERT_EQ(sorted_tree.size(), keys.size());
  EXPECT_LT(sorted_tree.MemoryBytes() - key_bytes,
            shuffled_tree.MemoryBytes() - key_bytes);
  int full_height = static_cast<int>(
      std::ceil(std::log(static_cast<double>(keys.size())) / std::log(16.0)));
  EXPECT_LE(sorted_tree.Height(), full_height + 1);
}

// MemoryBytes() counts 208-byte nodes and the key buffer's used bytes
// (each key's bytes and its length), and the benchmark's bytes_per_key
// reads it: a change of node or key layout must show here. Exact figures
// for a sorted load, a shuffled load, and a mix of inserts, overwrites
// and erases (whose erased keys stay counted).
TEST(BTreeTest, MemoryBytesUnchangedByKeyLayout) {
  auto shuffled = ShuffledEmails(100000);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  BTree sorted_tree, shuffled_tree, mixed_tree;
  for (size_t i = 0; i < sorted.size(); i++) {
    sorted_tree.Insert(sorted[i], i);
    shuffled_tree.Insert(shuffled[i], i);
  }
  std::mt19937_64 rng(61);
  for (uint64_t op = 0; op < 200000; op++) {
    const std::string& key = shuffled[rng() % shuffled.size()];
    if (rng() % 4 == 0)
      mixed_tree.Erase(key);
    else
      mixed_tree.Insert(key, op);  // an overwrite if present
  }
  EXPECT_EQ(sorted_tree.MemoryBytes(), size_t{3743115});
  EXPECT_EQ(shuffled_tree.MemoryBytes(), size_t{4055115});
  EXPECT_EQ(mixed_tree.MemoryBytes(), size_t{3132558});
}

// The bytes a key takes in the key buffer: its length byte, or the
// escape and an 8-byte length from 255 bytes on, then its bytes.
size_t BufferBytes(const std::string& key) {
  return (key.size() < 255 ? 1 : 9) + key.size();
}

// MemoryBytes() is exactly 208 bytes per node plus BufferBytes() of every
// key interned. A sorted load's append splits leave every leaf but the
// last with 16 keys and every inner node but the last at a level with 16
// children; an overwrite interns nothing; erasing every key frees every
// node and leaves the key bytes counted; a reload interns them again.
TEST(BTreeTest, MemoryBytesCountsNodesAndKeyBytesExactly) {
  std::vector<std::string> keys;
  std::mt19937_64 rng(63);
  for (int i = 0; i < 20000; i++)
    keys.push_back(NumKey(i, &rng) + std::string(rng() % 300, 'p'));
  for (size_t len : {65534, 65535, 65536})
    keys.push_back("1" + std::string(len, 'k'));
  size_t key_bytes = 0;
  for (const auto& key : keys) key_bytes += BufferBytes(key);
  // Leaves, then the nodes of each inner level, up to the root.
  size_t nodes = 0;
  for (size_t level = (keys.size() + 15) / 16;;
       level = 1 + (level - 2) / 16) {
    nodes += level;
    if (level == 1) break;
  }

  BTree t;
  for (size_t i = 0; i < keys.size(); i++) t.Insert(keys[i], i);
  ASSERT_EQ(t.CheckInvariants(), "");
  EXPECT_EQ(t.MemoryBytes(), nodes * 208 + key_bytes);
  for (size_t i = 0; i < keys.size(); i++) t.Insert(keys[i], i + 1);
  EXPECT_EQ(t.MemoryBytes(), nodes * 208 + key_bytes);
  std::shuffle(keys.begin(), keys.end(), rng);
  for (const auto& key : keys) ASSERT_TRUE(t.Erase(key));
  EXPECT_EQ(t.MemoryBytes(), key_bytes);
  std::sort(keys.begin(), keys.end());
  for (size_t i = 0; i < keys.size(); i++) t.Insert(keys[i], i);
  EXPECT_EQ(t.MemoryBytes(), nodes * 208 + 2 * key_bytes);
}

// Every key interned before a growth of the key buffer reads back after
// it, through lookups and a full scan, for 20 growths. The buffer may
// move when it grows and leave its old range unmapped, so a read through
// a view of a key held across an insert would fault.
TEST(BTreeTest, KeysSurviveBufferGrowth) {
  BTree t;
  std::map<std::string, uint64_t> shadow;
  std::mt19937_64 rng(64);
  size_t capacity = t.KeyCapacity();
  for (int growths = 0; growths < 20;) {
    std::string key = NumKey(rng() % 1000000000, &rng);
    key += std::string(rng() % 2000, static_cast<char>(rng() % 256));
    t.Insert(key, shadow.size());
    shadow.emplace(key, shadow.size());
    if (t.KeyCapacity() == capacity) continue;
    capacity = t.KeyCapacity();
    growths++;
    SCOPED_TRACE(growths);
    ASSERT_NO_FATAL_FAILURE(MatchShadowKeys(t, shadow));
  }
}

// A key that would take the key buffer past 4 GiB, the reach of a 32-bit
// offset, throws std::length_error and leaves the tree as it was: into an
// empty tree, into a full leaf that would split, and at one byte over
// the limit. The huge keys are views of a read-only mapping of zero
// pages, so they cost no memory.
TEST(BTreeTest, KeyBytesPast4GiBThrow) {
  const size_t four_gib = size_t{1} << 32;
  void* zeros = mmap(nullptr, four_gib, PROT_READ,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (zeros == MAP_FAILED) GTEST_SKIP() << "no 4 GiB of address space";
  std::string_view huge(static_cast<const char*>(zeros), four_gib);

  BTree t;
  EXPECT_THROW(t.Insert(huge, 1), std::length_error);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.MemoryBytes(), 0u);
  std::map<std::string, uint64_t> shadow;
  std::mt19937_64 rng(65);
  for (uint64_t i = 0; i < 16; i++) {
    std::string key = NumKey(i, &rng);
    t.Insert(key, i);
    shadow[key] = i;
  }
  const size_t bytes = t.MemoryBytes();
  // The zero key sorts first, into the full leaf.
  EXPECT_THROW(t.Insert(huge, 99), std::length_error);
  // Used bytes, the 9-byte length, and one byte more than fits.
  size_t used = bytes - 208;
  EXPECT_THROW(t.Insert(huge.substr(0, four_gib - used - 9 + 1), 99),
               std::length_error);
  EXPECT_EQ(t.MemoryBytes(), bytes);
  ASSERT_NO_FATAL_FAILURE(MatchShadowKeys(t, shadow));
  t.Insert("next", 16);
  shadow["next"] = 16;
  ASSERT_NO_FATAL_FAILURE(MatchShadowKeys(t, shadow));
  munmap(zeros, four_gib);
}

}  // namespace
}  // namespace hope
