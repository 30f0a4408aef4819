#include "common/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace hope {
namespace {

TEST(ArenaTest, InternRoundTripsEveryLength) {
  Arena arena;
  std::vector<std::string> keys = {"", "a", std::string(3, '\0')};
  for (size_t len : {65534, 65535, 65536, 200000})
    keys.push_back(std::string(len, static_cast<char>(len % 251)));
  std::vector<KeyRef> refs;
  for (const auto& key : keys) refs.push_back(arena.Intern(key));
  for (size_t i = 0; i < keys.size(); i++) {
    EXPECT_EQ(KeyAt(refs[i]), keys[i]) << keys[i].size();
    // Lengths from 65,535 up take the escape tag and a length prefix.
    uint64_t tag = refs[i] >> kKeyRefLenShift;
    EXPECT_EQ(tag, std::min(keys[i].size(), kKeyRefEscapeLen));
  }
}

// Key bytes pack with no header or padding, and a key larger than a chunk
// gets a chunk of its own without breaking the current chunk's run.
TEST(ArenaTest, KeysPackBackToBack) {
  Arena arena;
  KeyRef a = arena.Intern("abc");
  KeyRef b = arena.Intern("de");
  KeyRef big = arena.Intern(std::string(100000, 'x'));
  KeyRef c = arena.Intern("f");
  EXPECT_EQ(KeyAddress(b), KeyAddress(a) + 3);
  EXPECT_EQ(KeyAddress(c), KeyAddress(b) + 2);
  EXPECT_EQ(KeyAt(big), std::string(100000, 'x'));
}

TEST(ArenaTest, BlocksAreAlignedAndRecycledBySize) {
  Arena arena;
  arena.Intern("odd");  // leaves the bump pointer unaligned
  void* a = arena.AllocateBlock(16);
  void* b = arena.AllocateBlock(24);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % 8, 0u);
  arena.FreeBlock(a, 16);
  arena.FreeBlock(b, 24);
  // A free list serves only its own size, last freed first.
  void* c = arena.AllocateBlock(32);
  EXPECT_NE(c, a);
  EXPECT_NE(c, b);
  EXPECT_EQ(arena.AllocateBlock(24), b);
  EXPECT_EQ(arena.AllocateBlock(16), a);
  void* d = arena.AllocateBlock(16);
  EXPECT_NE(d, a);
  arena.FreeBlock(a, 16);
  arena.FreeBlock(d, 16);
  EXPECT_EQ(arena.AllocateBlock(16), d);
  EXPECT_EQ(arena.AllocateBlock(16), a);
  // A block larger than a chunk is recycled like any other.
  void* huge = arena.AllocateBlock(80000);
  arena.FreeBlock(huge, 80000);
  EXPECT_EQ(arena.AllocateBlock(80000), huge);
}

#if defined(__SANITIZE_ADDRESS__)
#define HOPE_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HOPE_TEST_ASAN 1
#endif
#endif

#ifdef HOPE_TEST_ASAN
// A block on a free list is poisoned: a stale pointer into it faults
// under AddressSanitizer although the block never goes back to malloc.
TEST(ArenaDeathTest, FreedBlockIsPoisoned) {
  EXPECT_DEATH(
      {
        Arena arena;
        auto* p = static_cast<uint64_t*>(arena.AllocateBlock(16));
        arena.FreeBlock(p, 16);
        *static_cast<volatile uint64_t*>(p + 1) = 1;
      },
      "use-after-poison");
}

TEST(ArenaTest, ReusedBlockIsUnpoisoned) {
  Arena arena;
  auto* p = static_cast<uint64_t*>(arena.AllocateBlock(16));
  arena.FreeBlock(p, 16);
  auto* q = static_cast<uint64_t*>(arena.AllocateBlock(16));
  ASSERT_EQ(p, q);
  q[0] = 1;
  q[1] = 2;
  EXPECT_EQ(q[0] + q[1], 3u);
}
#endif

}  // namespace
}  // namespace hope
