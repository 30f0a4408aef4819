// Heap-allocation gate for the serving path. This binary replaces the
// global operator new with one that counts calls, then checks, after a
// warm-up, that
//  - a point encode into a reused buffer allocates nothing, on every
//    scheme, for keys whose encodings fit the buffer;
//  - VersionedIndex<BTree>::Peek allocates nothing;
//  - VersionedIndex<BTree>::Insert allocates less than once per 100
//    inserts: only the amortized growth of the tree's arena, the insert
//    log's arena and its reference vector may allocate.
// operator new[] and the nothrow forms forward to operator new in
// libstdc++, so the one replacement counts them too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "btree/btree.h"
#include "datasets/datasets.h"
#include "dynamic/dictionary_manager.h"
#include "dynamic/versioned_index.h"
#include "hope/hope.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Out of line, so the compiler never pairs an inlined malloc with a
// caller's delete (or an inlined free with a caller's new).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace hope::dynamic {
namespace {

constexpr size_t kCalls = 10000;

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// The gate is only as good as the counter: a sanitizer runtime or a
// library that bypassed the replacement would make every bound below
// pass vacuously.
TEST(AllocCounterTest, CountsHeapAllocations) {
  const uint64_t before = Allocations();
  std::vector<std::string> v;
  v.emplace_back(100, 'x');
  const uint64_t allocations = Allocations() - before;
  EXPECT_GE(allocations, 2u);  // the vector's storage and the string's
  EXPECT_EQ(v.back().size(), 100u);
}

class EncodeAllocGateTest : public ::testing::TestWithParam<Scheme> {};

TEST_P(EncodeAllocGateTest, EncodeIntoReusedBufferAllocatesNothing) {
  const auto keys = GenerateEmails(2000, 41);
  const auto hope = Hope::Build(GetParam(), keys, 1024);
  // Warm-up: the buffer grows to the longest encoding of the set.
  std::string buf;
  size_t bits = 0, total = 0;
  for (const auto& key : keys) hope->EncodeTo(key, &buf, &bits);

  const uint64_t before = Allocations();
  for (size_t i = 0; i < kCalls; i++) {
    hope->EncodeTo(keys[i % keys.size()], &buf, &bits);
    total += bits;
  }
  const uint64_t allocations = Allocations() - before;
  EXPECT_EQ(allocations, 0u) << SchemeName(GetParam());
  EXPECT_GT(total, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, EncodeAllocGateTest,
    ::testing::Values(Scheme::kSingleChar, Scheme::kDoubleChar,
                      Scheme::kThreeGrams, Scheme::kFourGrams, Scheme::kAlm,
                      Scheme::kAlmImproved),
    [](const ::testing::TestParamInfo<Scheme>& info) {
      std::string name = SchemeName(info.param);
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// An index over kWarm keys, each inserted and looked up once, so the
// thread's encode scratch and the tree are warm. The stats collector
// samples only the first served encode: a sampled key is copied into a
// reservoir slot, and the slot's string reallocates whenever a longer
// key lands in it, so the collector's own allocations (a cost of the
// collector, not of the index) stay out of these counts.
class IndexAllocGateTest : public ::testing::Test {
 protected:
  static constexpr size_t kWarm = 40000;

  void SetUp() override {
    keys_ = GenerateEmails(kWarm + kCalls, 42);
    DictionaryManager::Options options;
    options.stats.sample_every = size_t{1} << 40;
    mgr_ = std::make_unique<DictionaryManager>(
        Hope::Build(Scheme::kDoubleChar, SampleKeys(keys_, 0.05), 4096),
        options);
    index_ = std::make_unique<VersionedIndex<BTree>>(mgr_.get());
    for (size_t i = 0; i < kWarm; i++) index_->Insert(keys_[i], i);
    uint64_t v = 0;
    for (size_t i = 0; i < kWarm; i++) ASSERT_TRUE(index_->Peek(keys_[i], &v));
    // The served encodes still reach the collector.
    ASSERT_EQ(mgr_->stats().KeysObserved(), 2 * kWarm);
  }

  std::vector<std::string> keys_;
  std::unique_ptr<DictionaryManager> mgr_;
  std::unique_ptr<VersionedIndex<BTree>> index_;
};

TEST_F(IndexAllocGateTest, PeekAllocatesNothing) {
  size_t hits = 0;
  const uint64_t before = Allocations();
  for (size_t i = 0; i < kCalls; i++) {
    uint64_t v = 0;
    hits += index_->Peek(keys_[i * 7 % kWarm], &v) && v == i * 7 % kWarm;
  }
  const uint64_t allocations = Allocations() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(hits, kCalls);
}

TEST_F(IndexAllocGateTest, InsertAllocatesOnlyForAmortizedGrowth) {
  const uint64_t before = Allocations();
  for (size_t i = kWarm; i < kWarm + kCalls; i++) index_->Insert(keys_[i], i);
  const uint64_t allocations = Allocations() - before;
  EXPECT_LT(allocations, kCalls / 100);
  EXPECT_EQ(index_->size(), kWarm + kCalls);
}

}  // namespace
}  // namespace hope::dynamic
