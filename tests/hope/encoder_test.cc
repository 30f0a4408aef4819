#include "hope/encoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "datasets/datasets.h"
#include "hope/hope.h"

namespace hope {
namespace {

TEST(BitWriterTest, AppendAndTake) {
  BitWriter w;
  w.Append(Code{0b101ull << 61, 3});
  w.Append(Code{0b01ull << 62, 2});
  EXPECT_EQ(w.total_bits(), 5u);
  std::string bytes = w.TakeBytes();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(static_cast<uint8_t>(bytes[0]), 0b10101000);
}

TEST(BitWriterTest, CrossesWordBoundary) {
  BitWriter w;
  const Code all_ones7{uint64_t{0x7F} << 57, 7};  // 1111111, rest zero
  for (int i = 0; i < 10; i++) w.Append(all_ones7);
  EXPECT_EQ(w.total_bits(), 70u);
  std::string bytes = w.TakeBytes();
  ASSERT_EQ(bytes.size(), 9u);
  for (int i = 0; i < 8; i++)
    EXPECT_EQ(static_cast<uint8_t>(bytes[i]), 0xFF);
  EXPECT_EQ(static_cast<uint8_t>(bytes[8]), 0b11111100);  // 70-64=6 ones
}

TEST(BitWriterTest, SixtyFourBitCode) {
  BitWriter w;
  w.Append(Code{0xDEADBEEFCAFEF00Dull, 64});
  std::string bytes = w.TakeBytes();
  ASSERT_EQ(bytes.size(), 8u);
  EXPECT_EQ(static_cast<uint8_t>(bytes[0]), 0xDE);
  EXPECT_EQ(static_cast<uint8_t>(bytes[7]), 0x0D);
}

TEST(BitWriterTest, InitFromPrefix) {
  BitWriter w;
  w.Append(Code{0b10110ull << 59, 5});
  w.Append(Code{0b0011ull << 60, 4});
  std::string full = w.TakeBytes();
  size_t bits = w.total_bits();

  BitWriter w2;
  w2.InitFromPrefix(full, 5);
  w2.Append(Code{0b0011ull << 60, 4});
  EXPECT_EQ(w2.total_bits(), bits);
  EXPECT_EQ(w2.TakeBytes(), full);
}

class SchemeEncoderTest : public ::testing::TestWithParam<Scheme> {
 protected:
  void SetUp() override {
    keys_ = GenerateEmails(3000, 21);
    hope_ = Hope::Build(GetParam(), keys_, 1024);
  }
  std::vector<std::string> keys_;
  std::unique_ptr<Hope> hope_;
};

TEST_P(SchemeEncoderTest, OrderPreservedOnBitStrings) {
  // Encoded keys must compare (as bit strings) exactly like the sources.
  std::vector<std::string> probes(keys_.begin(), keys_.begin() + 400);
  auto wiki = GenerateWikiTitles(100, 22);  // out-of-distribution keys
  probes.insert(probes.end(), wiki.begin(), wiki.end());
  std::vector<std::pair<std::string, size_t>> enc;
  for (auto& p : probes) {
    size_t bits = 0;
    enc.emplace_back(hope_->Encode(p, &bits), bits);
  }
  for (size_t i = 0; i < probes.size(); i += 7) {
    for (size_t j = 0; j < probes.size(); j += 11) {
      int src_cmp = probes[i].compare(probes[j]);
      int enc_cmp = CompareBitStrings(enc[i].first, enc[i].second,
                                      enc[j].first, enc[j].second);
      int a = src_cmp < 0 ? -1 : (src_cmp == 0 ? 0 : 1);
      int b = enc_cmp < 0 ? -1 : (enc_cmp == 0 ? 0 : 1);
      ASSERT_EQ(a, b) << "order violated: \"" << probes[i] << "\" vs \""
                      << probes[j] << "\"";
    }
  }
}

TEST_P(SchemeEncoderTest, LosslessRoundTrip) {
  std::vector<std::string> probes(keys_.begin(), keys_.begin() + 300);
  auto urls = GenerateUrls(50, 23);  // arbitrary unseen inputs
  probes.insert(probes.end(), urls.begin(), urls.end());
  std::mt19937_64 rng(24);
  for (int i = 0; i < 100; i++) {  // random binary strings
    std::string s;
    for (size_t j = 0; j < 1 + rng() % 20; j++)
      s.push_back(static_cast<char>(rng() % 256));
    probes.push_back(std::move(s));
  }
  for (const auto& p : probes) {
    size_t bits = 0;
    std::string e = hope_->Encode(p, &bits);
    EXPECT_EQ(hope_->Decode(e, bits), p);
  }
}

TEST_P(SchemeEncoderTest, BatchEncodingMatchesIndividual) {
  std::vector<std::string> sorted(keys_.begin(), keys_.begin() + 500);
  std::sort(sorted.begin(), sorted.end());
  size_t batch_bits = 0;
  auto batch = hope_->EncodeBatch(sorted, &batch_bits);
  ASSERT_EQ(batch.size(), sorted.size());
  size_t indiv_bits = 0;
  for (size_t i = 0; i < sorted.size(); i++) {
    size_t bits = 0;
    std::string e = hope_->Encode(sorted[i], &bits);
    indiv_bits += bits;
    ASSERT_EQ(batch[i], e) << "batch mismatch at " << i << ": "
                           << sorted[i];
  }
  EXPECT_EQ(batch_bits, indiv_bits);
}

TEST_P(SchemeEncoderTest, PairEncodingMatchesIndividual) {
  auto [a, b] = hope_->EncodePair("com.gmail@aaa", "com.gmail@aab");
  EXPECT_EQ(a, hope_->Encode("com.gmail@aaa"));
  EXPECT_EQ(b, hope_->Encode("com.gmail@aab"));
}

TEST_P(SchemeEncoderTest, CompressesRealKeys) {
  // All schemes must actually compress email keys.
  double cpr = hope_->CompressionRate(
      std::vector<std::string>(keys_.begin(), keys_.begin() + 500));
  EXPECT_GT(cpr, 1.0) << SchemeName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeEncoderTest,
    ::testing::Values(Scheme::kSingleChar, Scheme::kDoubleChar,
                      Scheme::kThreeGrams, Scheme::kFourGrams, Scheme::kAlm,
                      Scheme::kAlmImproved),
    [](const ::testing::TestParamInfo<Scheme>& info) {
      std::string name = SchemeName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

/// Records every OnEncode call in order.
class RecordingObserver : public EncodeObserver {
 public:
  void OnEncode(std::string_view key, size_t bit_len) override {
    calls.emplace_back(std::string(key), bit_len);
  }
  std::vector<std::pair<std::string, size_t>> calls;
};

/// EncodeBatch must report each key to the observer exactly once, in
/// batch order, with the key's exact bit length.
void ExpectOneObserverCallPerKey(Hope* hope,
                                 const std::vector<std::string>& batch) {
  std::vector<size_t> expected_bits;
  for (const auto& key : batch) {
    size_t bits = 0;
    hope->Encode(key, &bits);
    expected_bits.push_back(bits);
  }
  RecordingObserver observer;
  hope->SetEncodeObserver(&observer);
  hope->EncodeBatch(batch);
  hope->SetEncodeObserver(nullptr);
  ASSERT_EQ(observer.calls.size(), batch.size());
  for (size_t i = 0; i < batch.size(); i++) {
    EXPECT_EQ(observer.calls[i].first, batch[i]) << "call " << i;
    EXPECT_EQ(observer.calls[i].second, expected_bits[i]) << batch[i];
  }
}

TEST(EncodeBatchObserverTest, OneCallPerKeyOnEveryBatchPath) {
  const auto emails = GenerateEmails(2000, 25);
  auto grams = Hope::Build(Scheme::kThreeGrams, emails, 1024);
  const size_t lookahead = grams->dict().MaxLookahead();
  ASSERT_EQ(lookahead, 3u);

  // Sorted emails share long prefixes: the prefix-reuse path.
  std::vector<std::string> sorted(emails.begin(), emails.begin() + 500);
  std::sort(sorted.begin(), sorted.end());
  ExpectOneObserverCallPerKey(grams.get(), sorted);

  // No adjacent pair shares `lookahead` leading bytes, so no prefix can be
  // reused and the batch takes the per-key path.
  auto pool = GenerateWikiTitles(400, 26);
  auto urls = GenerateUrls(400, 27);
  pool.insert(pool.end(), urls.begin(), urls.end());
  pool.insert(pool.end(), emails.begin(), emails.begin() + 400);
  std::shuffle(pool.begin(), pool.end(), std::mt19937_64(28));
  std::vector<std::string> unrelated;
  for (const auto& key : pool) {
    if (!unrelated.empty() &&
        unrelated.back().compare(0, lookahead, key, 0, lookahead) == 0)
      continue;
    unrelated.push_back(key);
  }
  ASSERT_GT(unrelated.size(), 100u);
  ExpectOneObserverCallPerKey(grams.get(), unrelated);

  // Unbounded lookahead never reuses, even on a sorted batch.
  auto alm = Hope::Build(Scheme::kAlm, emails, 1024);
  ExpectOneObserverCallPerKey(alm.get(), sorted);
}

}  // namespace
}  // namespace hope
