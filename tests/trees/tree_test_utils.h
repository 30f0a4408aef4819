// Shared reference-model harness for the search-tree substrates: drives a
// tree (Insert/Lookup/Scan API) against std::map on the same operations
// and compares every result.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "datasets/datasets.h"

namespace hope {

/// Key corpora exercised by every tree test: realistic datasets plus
/// adversarial shapes (shared prefixes, prefix keys, embedded zeros,
/// high bytes).
inline std::string CorpusName(const ::testing::TestParamInfo<size_t>& info) {
  static const char* names[] = {"Email", "Url", "PrefixChains", "Binary"};
  return names[info.param];
}

inline std::vector<std::vector<std::string>> TestKeyCorpora() {
  std::vector<std::vector<std::string>> corpora;
  corpora.push_back(GenerateEmails(4000, 101));
  corpora.push_back(GenerateUrls(1500, 102));
  // Prefix chains: every key is a prefix of the next.
  std::vector<std::string> chains;
  for (int c = 0; c < 20; c++) {
    std::string base(1, static_cast<char>('a' + c));
    for (int i = 1; i <= 30; i++) chains.push_back(base + std::string(i, 'x'));
    chains.push_back(base);
  }
  corpora.push_back(std::move(chains));
  // Binary keys with embedded zeros and 0xFF (HOPE-encoded keys look like
  // this).
  std::mt19937_64 rng(103);
  std::set<std::string> binary_set;  // de-duplicated: the erase phase
                                     // removes each key exactly once
  while (binary_set.size() < 3000) {
    std::string s;
    size_t len = 1 + rng() % 24;
    for (size_t j = 0; j < len; j++)
      s.push_back(static_cast<char>(rng() % 4 == 0 ? 0
                                    : rng() % 4 == 1 ? 0xFF
                                                     : rng() % 256));
    binary_set.insert(std::move(s));
  }
  std::vector<std::string> binary(binary_set.begin(), binary_set.end());
  std::shuffle(binary.begin(), binary.end(), rng);
  corpora.push_back(std::move(binary));
  return corpora;
}

/// Inserts all keys, then cross-checks point lookups (hits and misses)
/// and range scans against std::map.
template <typename Tree>
void RunReferenceTest(Tree* tree, const std::vector<std::string>& keys,
                      uint64_t seed) {
  std::map<std::string, uint64_t> ref;
  uint64_t v = 1;
  for (const auto& key : keys) {
    tree->Insert(key, v);
    ref[key] = v;
    v++;
  }
  ASSERT_EQ(tree->size(), ref.size());

  // Point lookups: every inserted key hits with the right value.
  for (const auto& [key, val] : ref) {
    uint64_t got = 0;
    ASSERT_TRUE(tree->Lookup(key, &got)) << "missing key of size "
                                         << key.size();
    ASSERT_EQ(got, val);
  }
  // Misses: mutated keys absent from the reference.
  std::mt19937_64 rng(seed);
  size_t checked = 0;
  for (size_t i = 0; i < keys.size() && checked < 500; i += 7, checked++) {
    std::string probe = keys[i];
    probe.push_back(static_cast<char>(rng() % 256));
    if (ref.count(probe)) continue;
    ASSERT_FALSE(tree->Lookup(probe, nullptr));
    if (!probe.empty()) {
      probe.pop_back();
      probe.pop_back();
      if (!ref.count(probe)) {
        ASSERT_FALSE(tree->Lookup(probe, nullptr));
      }
    }
  }
  // Overwrite semantics.
  tree->Insert(keys[0], 999999);
  uint64_t got = 0;
  ASSERT_TRUE(tree->Lookup(keys[0], &got));
  ASSERT_EQ(got, 999999u);
  ASSERT_EQ(tree->size(), ref.size());
  tree->Insert(keys[0], ref[keys[0]]);

  // Deletion phase: erase ~half the keys (every other, plus misses),
  // then verify lookups, scans, and re-insertion.
  for (size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(tree->Erase(keys[i])) << "erase missed key " << i;
    ref.erase(keys[i]);
  }
  ASSERT_FALSE(tree->Erase("@@definitely-not-present@@"));
  if (!ref.empty()) {
    ASSERT_FALSE(tree->Erase(ref.begin()->first + std::string(1, '\x7f')));
  }
  ASSERT_EQ(tree->size(), ref.size());
  for (size_t i = 0; i < keys.size(); i++) {
    uint64_t got = 0;
    bool want = ref.count(keys[i]) > 0;
    ASSERT_EQ(tree->Lookup(keys[i], &got), want) << "post-erase lookup " << i;
    if (want) {
      ASSERT_EQ(got, ref[keys[i]]);
    }
  }
  // Scans over the half-deleted tree.
  for (size_t i = 0; i < keys.size(); i += 37) {
    std::vector<uint64_t> got_vals;
    tree->Scan(keys[i], 15, &got_vals);
    std::vector<uint64_t> want_vals;
    for (auto it = ref.lower_bound(keys[i]);
         it != ref.end() && want_vals.size() < 15; ++it)
      want_vals.push_back(it->second);
    ASSERT_EQ(got_vals, want_vals) << "post-erase scan from " << i;
  }
  // Re-insert the erased keys; the tree must fully recover.
  for (size_t i = 0; i < keys.size(); i += 2) {
    tree->Insert(keys[i], i + 1);
    ref[keys[i]] = i + 1;
  }
  ASSERT_EQ(tree->size(), ref.size());

  // Range scans from existing keys, mutated keys, and extremes.
  for (int iter = 0; iter < 200; iter++) {
    std::string start;
    switch (iter % 4) {
      case 0: start = keys[rng() % keys.size()]; break;
      case 1: {
        start = keys[rng() % keys.size()];
        start.push_back(static_cast<char>(rng() % 256));
        break;
      }
      case 2: {
        start = keys[rng() % keys.size()];
        if (!start.empty()) start.pop_back();
        break;
      }
      default: start = std::string(1, static_cast<char>(rng() % 256)); break;
    }
    size_t count = 1 + rng() % 40;
    std::vector<uint64_t> got_vals;
    size_t produced = tree->Scan(start, count, &got_vals);
    std::vector<uint64_t> want_vals;
    for (auto it = ref.lower_bound(start);
         it != ref.end() && want_vals.size() < count; ++it)
      want_vals.push_back(it->second);
    ASSERT_EQ(produced, want_vals.size()) << "scan from key iter " << iter;
    ASSERT_EQ(got_vals, want_vals) << "scan mismatch at iter " << iter;
  }
}

/// Checks a tree against its shadow map: invariants, size, a full scan,
/// and a lookup of every key and of its neighbours one byte longer and
/// one byte shorter (which are other keys).
template <typename Tree>
void MatchShadowKeys(const Tree& t,
                     const std::map<std::string, uint64_t>& shadow) {
  ASSERT_EQ(t.CheckInvariants(), "");
  ASSERT_EQ(t.size(), shadow.size());
  std::vector<uint64_t> vals;
  ASSERT_EQ(t.Scan("", shadow.size() + 1, &vals), shadow.size());
  size_t i = 0;
  for (const auto& [key, value] : shadow) {
    ASSERT_EQ(vals[i++], value) << key.size();
    uint64_t got = 0;
    ASSERT_TRUE(t.Lookup(key, &got)) << key.size();
    ASSERT_EQ(got, value) << key.size();
    std::string longer = key + '\0';
    ASSERT_EQ(t.Lookup(longer, nullptr), shadow.count(longer) == 1);
    if (key.empty()) continue;
    std::string shorter = key.substr(0, key.size() - 1);
    ASSERT_EQ(t.Lookup(shorter, nullptr), shadow.count(shorter) == 1);
  }
}

/// Keys at the edges of the trees' key layouts, shuffled and unique: the
/// empty key, keys of only 0x00 or 0xFF bytes, lengths on both sides of
/// BTree's 1-byte length (255 bytes and up carry an escape and an 8-byte
/// length) and of the arena's 16-bit length tag (65,535 bytes and up
/// carry an 8-byte length prefix) and past a 64 KiB chunk, their
/// neighbours differing only in the last byte or the length, and
/// `short_keys` random short keys that roll the arena over several
/// chunks and grow BTree's key buffer several times.
inline std::vector<std::string> KeyArenaEdgeKeys(size_t short_keys,
                                                 uint64_t seed) {
  std::vector<std::string> keys = {"", std::string(1, '\0'),
                                   std::string(3, '\0'), "\xff",
                                   std::string(40, '\xff')};
  for (size_t len : {254, 255, 256, 65534, 65535, 65536, 200000}) {
    keys.push_back(std::string(len, 'k'));
    keys.push_back(std::string(len, '\0'));
    keys.push_back(std::string(len, '\xff'));
    keys.push_back(std::string(len - 1, 'k') + 'j');
    keys.push_back(std::string(len, 'k') + '\0');
  }
  std::mt19937_64 rng(seed);
  for (size_t i = 0; i < short_keys; i++) {
    std::string key = std::to_string(rng() % 1000000);
    for (uint64_t j = rng() % 4; j > 0; j--)
      key.push_back(static_cast<char>(rng() % 256));
    keys.push_back(std::move(key));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}

/// Drives a tree against a shadow map over KeyArenaEdgeKeys: load,
/// overwrite all, erase every other key (twice: the second misses),
/// re-insert those, erase everything; MatchShadowKeys after each phase.
template <typename Tree>
void RunKeyArenaEdgeCases(uint64_t seed) {
  const std::vector<std::string> keys = KeyArenaEdgeKeys(5000, seed);
  Tree t;
  std::map<std::string, uint64_t> shadow;
  uint64_t value = 0;
  for (const auto& key : keys) {
    t.Insert(key, ++value);
    shadow[key] = value;
  }
  ASSERT_NO_FATAL_FAILURE(MatchShadowKeys(t, shadow));
  for (auto& [key, v] : shadow) {
    t.Insert(key, ++value);
    v = value;
  }
  ASSERT_NO_FATAL_FAILURE(MatchShadowKeys(t, shadow));
  for (size_t i = 0; i < keys.size(); i += 2) {
    ASSERT_TRUE(t.Erase(keys[i])) << keys[i].size();
    ASSERT_FALSE(t.Erase(keys[i])) << keys[i].size();
    shadow.erase(keys[i]);
  }
  ASSERT_NO_FATAL_FAILURE(MatchShadowKeys(t, shadow));
  for (size_t i = 0; i < keys.size(); i += 2) {
    t.Insert(keys[i], ++value);
    shadow[keys[i]] = value;
  }
  ASSERT_NO_FATAL_FAILURE(MatchShadowKeys(t, shadow));
  for (const auto& key : keys) ASSERT_TRUE(t.Erase(key)) << key.size();
  shadow.clear();
  ASSERT_NO_FATAL_FAILURE(MatchShadowKeys(t, shadow));
}

/// Load -> destroy -> reload, then load -> erase-all -> reload three
/// times in one tree, whose node and leaf blocks then come back off the
/// arena's free lists. Every load leaves the same tree: all lookups hit,
/// a full scan returns the values in key order, the invariants hold, and
/// MemoryBytes() equals the first load's figure (0 once erased).
template <typename Tree>
void RunReloadCycles(const std::vector<std::string>& keys) {
  std::map<std::string, uint64_t> shadow;
  for (size_t i = 0; i < keys.size(); i++) shadow[keys[i]] = i + 1;
  auto load = [&](Tree* t) {
    for (size_t i = 0; i < keys.size(); i++) t->Insert(keys[i], i + 1);
  };
  size_t first = 0;
  {
    Tree t;
    load(&t);
    ASSERT_NO_FATAL_FAILURE(MatchShadowKeys(t, shadow));
    first = t.MemoryBytes();
  }
  Tree t;
  load(&t);
  ASSERT_NO_FATAL_FAILURE(MatchShadowKeys(t, shadow));
  EXPECT_EQ(t.MemoryBytes(), first);
  for (int round = 0; round < 3; round++) {
    SCOPED_TRACE(round);
    for (const auto& key : keys) ASSERT_TRUE(t.Erase(key));
    ASSERT_NO_FATAL_FAILURE(MatchShadowKeys(t, {}));
    EXPECT_EQ(t.MemoryBytes(), 0u);
    load(&t);
    ASSERT_NO_FATAL_FAILURE(MatchShadowKeys(t, shadow));
    EXPECT_EQ(t.MemoryBytes(), first);
  }
}

}  // namespace hope
