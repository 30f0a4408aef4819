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

}  // namespace
}  // namespace hope
