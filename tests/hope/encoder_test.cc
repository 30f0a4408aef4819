#include "hope/encoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <thread>

#include "common/str_utils.h"
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

// A batch encoding's output and total_bits against per-key Encode.
void ExpectMatchesEncode(const Hope& hope,
                         const std::vector<std::string>& keys,
                         const std::vector<std::string>& batch,
                         size_t batch_bits, const std::string& what) {
  ASSERT_EQ(batch.size(), keys.size()) << what;
  size_t indiv_bits = 0;
  for (size_t i = 0; i < keys.size(); i++) {
    size_t bits = 0;
    std::string e = hope.Encode(keys[i], &bits);
    indiv_bits += bits;
    ASSERT_EQ(batch[i], e) << what << ", key " << i << ": " << keys[i];
  }
  EXPECT_EQ(batch_bits, indiv_bits) << what;
}

void ExpectBatchMatchesEncode(const Hope& hope,
                              const std::vector<std::string>& keys) {
  size_t bits = 0;
  auto batch = hope.EncodeBatch(keys, &bits);
  ExpectMatchesEncode(hope, keys, batch, bits,
                      "batch of " + std::to_string(keys.size()));
}

void ExpectSplitMatchesEncode(const Hope& hope,
                              const std::vector<std::string>& keys,
                              size_t parts) {
  size_t bits = 0;
  auto batch =
      internal::EncodeBatchInParts(hope.encoder(), keys, parts, &bits);
  ExpectMatchesEncode(hope, keys, batch, bits,
                      std::to_string(keys.size()) + " keys in " +
                          std::to_string(parts) + " parts");
}

TEST_P(SchemeEncoderTest, BatchEncodingMatchesIndividual) {
  std::vector<std::string> sorted(keys_.begin(), keys_.begin() + 500);
  std::sort(sorted.begin(), sorted.end());
  ExpectBatchMatchesEncode(*hope_, sorted);
}

// EncodeBatch's prefix-reuse branch runs iff some adjacent pair shares at
// least the dictionary's lookahead.
bool TakesReuseBranch(const Hope& hope,
                      const std::vector<std::string>& keys) {
  const size_t lookahead = hope.dict().MaxLookahead();
  for (size_t i = 1; i < keys.size(); i++)
    if (LcpLen(keys[i - 1], keys[i]) >= lookahead) return true;
  return false;
}

// Batch sizes around the prefetch distance, where the last kPrefetchAhead
// keys of a batch must not prefetch past its end, through both branches:
// sorted emails (prefix reuse, except under the ALM family's unbounded
// lookahead) and keys whose first bytes alternate (no reuse).
TEST_P(SchemeEncoderTest, BatchPrefetchEdgesMatchIndividual) {
  constexpr size_t kAhead = Encoder::kPrefetchAhead;
  auto pool = GenerateEmails(5000, 31);
  std::sort(pool.begin(), pool.end());
  const bool bounded =
      hope_->dict().MaxLookahead() != std::numeric_limits<size_t>::max();
  for (size_t n : {size_t{0}, size_t{1}, kAhead - 1, kAhead, kAhead + 1,
                   pool.size()}) {
    std::vector<std::string> sorted(pool.begin(), pool.begin() + n);
    EXPECT_EQ(TakesReuseBranch(*hope_, sorted), bounded && n > 1) << n;
    ExpectBatchMatchesEncode(*hope_, sorted);

    std::vector<std::string> alternating;
    for (size_t i = 0; i < n; i++)
      alternating.push_back((i % 2 ? "a" : "b") + pool[i]);
    EXPECT_FALSE(TakesReuseBranch(*hope_, alternating)) << n;
    ExpectBatchMatchesEncode(*hope_, alternating);
  }
}

// The split at every forced part count 1-kMaxThreads (8). Every adjacent
// pair of the sorted keys shares a 16-byte prefix, longer than any
// bounded lookahead, so each range boundary cuts a run the sequential
// pass would reuse. Batch sizes give ranges of kPrefetchAhead - 1,
// kPrefetchAhead and kPrefetchAhead + 1 keys, more parts than keys, and
// no keys; the alternating keys take the no-reuse branch.
TEST_P(SchemeEncoderTest, SplitBatchMatchesIndividual) {
  constexpr size_t kAhead = Encoder::kPrefetchAhead;
  constexpr size_t kMaxParts = Encoder::kMaxThreads;
  std::vector<std::string> run;
  for (size_t i = 0; i < kMaxParts * (kAhead + 1); i++) {
    std::string n = std::to_string(i);
    run.push_back("com.example@user" + std::string(4 - n.size(), '0') + n);
  }
  ASSERT_TRUE(std::is_sorted(run.begin(), run.end()));
  for (size_t parts = 1; parts <= kMaxParts; parts++) {
    for (size_t n : {size_t{0}, size_t{1}, parts - 1, parts * (kAhead - 1),
                     parts * kAhead, parts * kAhead + 1,
                     parts * (kAhead + 1)}) {
      std::vector<std::string> sorted(run.begin(), run.begin() + n);
      ExpectSplitMatchesEncode(*hope_, sorted, parts);
      std::vector<std::string> alternating;
      for (size_t i = 0; i < n; i++)
        alternating.push_back((i % 2 ? "a" : "b") + run[i]);
      ExpectSplitMatchesEncode(*hope_, alternating, parts);
    }
  }
}

// The smallest batch EncodeBatch itself splits (on a machine with more
// than one CPU).
TEST_P(SchemeEncoderTest, BatchAboveSplitThresholdMatchesIndividual) {
  auto keys = GenerateEmails(2 * Encoder::kMinKeysPerThread + 1, 34);
  std::sort(keys.begin(), keys.end());
  ExpectBatchMatchesEncode(*hope_, keys);
}

// Set-up's layout: each key's bytes were allocated in shuffled order and
// only the headers were sorted, so consecutive keys sit at unrelated heap
// addresses. The keys are longer than the small-string buffer, so every
// one of them lives on the heap.
TEST_P(SchemeEncoderTest, SortedBatchOfShuffledAllocationsMatchesIndividual) {
  auto pool = GenerateEmails(5000, 32);
  std::mt19937_64 rng(33);
  std::shuffle(pool.begin(), pool.end(), rng);
  std::vector<std::string> keys;
  keys.reserve(pool.size());
  for (const auto& k : pool) keys.push_back(k + "/padding-past-sso");
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(TakesReuseBranch(*hope_, keys),
            hope_->dict().MaxLookahead() !=
                std::numeric_limits<size_t>::max());
  ExpectBatchMatchesEncode(*hope_, keys);
}

TEST_P(SchemeEncoderTest, PairEncodingMatchesIndividual) {
  auto [a, b] = hope_->EncodePair("com.gmail@aaa", "com.gmail@aab");
  EXPECT_EQ(a, hope_->Encode("com.gmail@aaa"));
  EXPECT_EQ(b, hope_->Encode("com.gmail@aab"));
}

// EncodeTo against Encode and against EncodeBatch's slot for the same key,
// bytes and bit length. The buffer is reused across every key and first
// holds the longest encoding of the set, so each shorter key lands in a
// dirty buffer whose old tail must not survive.
TEST_P(SchemeEncoderTest, EncodeToMatchesEncodeAndBatch) {
  std::mt19937_64 rng(35);
  std::string big(size_t{64} << 10, '\0');
  for (char& c : big) c = static_cast<char>(rng() % 256);
  std::vector<std::string> keys = {big, "", std::string(1, '\0'),
                                   std::string(9, '\0'),
                                   std::string("com.a\0b@x", 9),
                                   std::string("\0\0com.gmail@\0", 14)};
  keys.insert(keys.end(), keys_.begin(), keys_.begin() + 100);
  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  const auto batch = hope_->EncodeBatch(sorted);

  std::string buf;
  size_t bits = 0;
  hope_->EncodeTo(big, &buf, &bits);
  const size_t dirty = buf.size();
  for (const std::string& key : keys) {
    size_t want_bits = 0;
    const std::string want = hope_->Encode(key, &want_bits);
    ASSERT_LE(want.size(), dirty);
    hope_->EncodeTo(key, &buf, &bits);
    ASSERT_EQ(buf, want) << "key of " << key.size() << " bytes";
    ASSERT_EQ(bits, want_bits) << "key of " << key.size() << " bytes";
    ASSERT_EQ(want.size(), (want_bits + 7) / 8);
    const size_t slot =
        std::lower_bound(sorted.begin(), sorted.end(), key) - sorted.begin();
    ASSERT_EQ(batch[slot], want) << "key of " << key.size() << " bytes";
  }
  EXPECT_EQ(hope_->Decode(buf, bits), keys.back());
}

// Four threads point-encode through one shared Hope, each into its own
// reused buffer, and every result matches the single-threaded encoding.
TEST_P(SchemeEncoderTest, ConcurrentEncodeToThroughOneHope) {
  constexpr int kThreads = 4;
  std::vector<std::string> want(keys_.size());
  std::vector<size_t> want_bits(keys_.size());
  for (size_t i = 0; i < keys_.size(); i++)
    want[i] = hope_->Encode(keys_[i], &want_bits[i]);
  std::vector<size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      std::string buf;
      size_t bits = 0;
      for (int round = 0; round < 3; round++) {
        for (size_t i = static_cast<size_t>(t); i < keys_.size(); i++) {
          hope_->EncodeTo(keys_[i], &buf, &bits);
          mismatches[t] += buf != want[i] || bits != want_bits[i];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; t++) EXPECT_EQ(mismatches[t], 0u) << t;
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
