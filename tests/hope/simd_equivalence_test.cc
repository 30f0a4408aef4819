// Differential coverage for the devirtualized/SIMD encode hot path: for
// every scheme × dictionary implementation, EncodeSpan (one virtual call
// per key) and the batch paths must produce encodings byte-identical to the naive per-symbol
// Lookup loop — the scalar reference the seed encoder used. Runs on both
// CI rows, so the SIMD tiers and the HOPE_NO_SIMD portable fallbacks are
// each proven against the same reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "datasets/datasets.h"
#include "hope/bit_writer.h"
#include "hope/hope.h"

namespace hope {
namespace {

constexpr Scheme kSchemes[] = {
    Scheme::kSingleChar, Scheme::kDoubleChar,  Scheme::kAlm,
    Scheme::kThreeGrams, Scheme::kFourGrams,   Scheme::kAlmImproved,
};

constexpr DictImpl kImpls[] = {
    DictImpl::kBinarySearch,
    DictImpl::kArray,
    DictImpl::kBitmapTrie,
    DictImpl::kArt,
};

const char* ImplName(DictImpl impl) {
  switch (impl) {
    case DictImpl::kDefault: return "default";
    case DictImpl::kBinarySearch: return "binary-search";
    case DictImpl::kArray: return "array";
    case DictImpl::kBitmapTrie: return "bitmap-trie";
    case DictImpl::kArt: return "art";
  }
  return "?";
}

bool Compatible(Scheme scheme, DictImpl impl) {
  switch (impl) {
    case DictImpl::kArray:
      return scheme == Scheme::kSingleChar || scheme == Scheme::kDoubleChar;
    case DictImpl::kBitmapTrie:
      return scheme == Scheme::kSingleChar || scheme == Scheme::kDoubleChar ||
             scheme == Scheme::kThreeGrams || scheme == Scheme::kFourGrams;
    default:
      return true;
  }
}

/// The scalar reference: the per-symbol virtual Lookup loop exactly as the
/// seed encoder ran it, including the trace the batch path consumes.
std::string RefEncode(const Dictionary& dict, std::string_view key,
                      size_t* bit_len,
                      std::vector<EncodeTrace>* trace = nullptr) {
  BitWriter writer;
  std::string_view src = key;
  size_t pos = 0;
  while (!src.empty()) {
    if (trace)
      trace->push_back({static_cast<uint32_t>(pos),
                        static_cast<uint32_t>(writer.total_bits())});
    LookupResult r = dict.Lookup(src);
    EXPECT_GT(r.consumed, 0u);
    EXPECT_LE(r.consumed, src.size());
    if (r.consumed == 0) break;  // avoid an infinite loop on contract break
    writer.Append(r.code);
    src.remove_prefix(r.consumed);
    pos += r.consumed;
  }
  *bit_len = writer.total_bits();
  return writer.TakeBytes();
}

std::vector<std::string> TestKeys() {
  auto keys = GenerateDataset(DatasetId::kEmail, 300, /*seed=*/11);
  auto urls = GenerateDataset(DatasetId::kUrl, 200, /*seed=*/12);
  keys.insert(keys.end(), urls.begin(), urls.end());
  // Random binary keys: all byte values, embedded NULs, varied lengths.
  std::mt19937_64 rng(13);
  for (int i = 0; i < 300; i++) {
    std::string k(rng() % 24, '\0');
    for (auto& c : k) c = static_cast<char>(rng());
    keys.push_back(std::move(k));
  }
  keys.emplace_back();  // empty key
  keys.emplace_back(1, '\0');
  keys.emplace_back(6, '\xff');
  return keys;
}

class SimdEquivalenceTest : public ::testing::Test {
 protected:
  void ForEachDict(
      const std::function<void(const Hope&, Scheme, DictImpl)>& fn) {
    const auto samples = SampleKeys(TestKeys(), 0.3);
    for (Scheme scheme : kSchemes) {
      for (DictImpl impl : kImpls) {
        if (!Compatible(scheme, impl)) continue;
        SCOPED_TRACE(std::string(SchemeName(scheme)) + " / " +
                     ImplName(impl));
        auto hope = Hope::Build(scheme, samples, /*dict_size_limit=*/1 << 12,
                                /*stats=*/nullptr, impl);
        ASSERT_NE(hope, nullptr);
        fn(*hope, scheme, impl);
      }
    }
  }
};

TEST_F(SimdEquivalenceTest, EncodeSpanMatchesLookupLoop) {
  const auto keys = TestKeys();
  ForEachDict([&](const Hope& hope, Scheme, DictImpl) {
    const Dictionary& dict = hope.dict();
    for (const std::string& key : keys) {
      size_t ref_bits = 0;
      std::vector<EncodeTrace> ref_trace;
      std::string ref = RefEncode(dict, key, &ref_bits, &ref_trace);

      // Untraced EncodeSpan (the Encode hot path).
      BitWriter w;
      dict.EncodeSpan(key, 0, &w, nullptr);
      EXPECT_EQ(w.TakeBytes(), ref) << "key: " << key;
      EXPECT_EQ(w.total_bits(), ref_bits);

      // Traced EncodeSpan (the batch prefix-reuse path) must record the
      // exact same lookup boundaries.
      BitWriter wt;
      std::vector<EncodeTrace> trace;
      dict.EncodeSpan(key, 0, &wt, &trace);
      EXPECT_EQ(wt.TakeBytes(), ref);
      ASSERT_EQ(trace.size(), ref_trace.size());
      for (size_t i = 0; i < trace.size(); i++) {
        EXPECT_EQ(trace[i].src_pos, ref_trace[i].src_pos);
        EXPECT_EQ(trace[i].bit_pos, ref_trace[i].bit_pos);
      }
    }
  });
}

TEST_F(SimdEquivalenceTest, ClassicWalkOverFusedCapMatchesLookupLoop) {
  // The bitmap trie's fused (byte0, byte1) table packs entry ids into 15
  // bits, so a 3-/4-Grams dictionary with more than 32,766 entries skips
  // it and EncodeSpan runs the classic rank-only walk. Random binary
  // keys hold enough distinct grams to get there.
  auto corpus = TestKeys();
  std::mt19937_64 rng(17);
  for (int i = 0; i < 12000; i++) {
    std::string k(8 + rng() % 24, '\0');
    for (auto& c : k) c = static_cast<char>(rng());
    corpus.push_back(std::move(k));
  }
  const auto keys = TestKeys();
  for (Scheme scheme : {Scheme::kThreeGrams, Scheme::kFourGrams}) {
    SCOPED_TRACE(SchemeName(scheme));
    auto hope = Hope::Build(scheme, corpus, /*dict_size_limit=*/1 << 16,
                            /*stats=*/nullptr, DictImpl::kBitmapTrie);
    ASSERT_NE(hope, nullptr);
    const Dictionary& dict = hope->dict();
    ASSERT_GT(dict.NumEntries(), 32766u);
    for (const std::string& key : keys) {
      size_t ref_bits = 0;
      std::vector<EncodeTrace> ref_trace;
      std::string ref = RefEncode(dict, key, &ref_bits, &ref_trace);
      BitWriter w;
      std::vector<EncodeTrace> trace;
      dict.EncodeSpan(key, 0, &w, &trace);
      ASSERT_EQ(w.TakeBytes(), ref) << "key: " << key;
      ASSERT_EQ(w.total_bits(), ref_bits);
      ASSERT_EQ(trace.size(), ref_trace.size());
      for (size_t i = 0; i < trace.size(); i++) {
        ASSERT_EQ(trace[i].src_pos, ref_trace[i].src_pos);
        ASSERT_EQ(trace[i].bit_pos, ref_trace[i].bit_pos);
      }
    }
  }
}

TEST_F(SimdEquivalenceTest, BatchPathsMatchPerKeyEncode) {
  auto sorted = TestKeys();
  std::sort(sorted.begin(), sorted.end());
  auto shuffled = sorted;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(15));
  ForEachDict([&](const Hope& hope, Scheme, DictImpl) {
    for (const auto* batch : {&sorted, &shuffled}) {
      size_t total = 0;
      auto enc = hope.EncodeBatch(*batch, &total);
      size_t ref_total = 0;
      for (size_t i = 0; i < batch->size(); i++) {
        size_t bits = 0;
        ASSERT_EQ(enc[i], hope.Encode((*batch)[i], &bits))
            << "key: " << (*batch)[i];
        ref_total += bits;
      }
      EXPECT_EQ(total, ref_total);
    }
  });
}

}  // namespace
}  // namespace hope
