#include "common/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <stdexcept>
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

// Blocks named by 32-bit references, across the doubling chunks and a
// block that gets a chunk of its own: every reference is non-null with
// bit 0 clear, decodes to an aligned block that keeps its bytes, and
// ignores a tag in bit 0.
TEST(ArenaTest, BlockRefsRoundTripAcrossChunks) {
  Arena arena;
  struct Block {
    BlockRef ref;
    size_t size;
  };
  std::vector<Block> blocks;
  for (size_t i = 0; i < 4000; i++) {
    size_t size = 8 * (1 + i % 7);
    if (i % 3 == 1) arena.Intern("odd");  // keys share the chunks
    blocks.push_back({arena.AllocateRef(size), size});
    if (i == 2000) blocks.push_back({arena.AllocateRef(80000), 80000});
  }
  for (size_t i = 0; i < blocks.size(); i++) {
    BlockRef ref = blocks[i].ref;
    ASSERT_NE(ref, kNullRef);
    ASSERT_EQ(ref & 1, 0u);
    auto* p = static_cast<unsigned char*>(arena.Deref(ref));
    ASSERT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
    ASSERT_EQ(arena.Deref(ref | 1), p);
    std::memset(p, static_cast<int>(i % 251), blocks[i].size);
  }
  // The refs span more chunks than the 1 KiB-64 KiB ramp.
  EXPECT_GT(blocks.back().ref >> kRefChunkShift, 7u);
  for (size_t i = 0; i < blocks.size(); i++) {
    auto* p = static_cast<unsigned char*>(arena.Deref(blocks[i].ref));
    for (size_t j = 0; j < blocks[i].size; j++)
      ASSERT_EQ(p[j], i % 251) << i;
  }
  // A block of its own chunk sits at offset 0 of that chunk, and the
  // blocks after it continue the regular chunk's run.
  Arena small;
  BlockRef a = small.AllocateRef(16);
  BlockRef huge = small.AllocateRef(80000);
  BlockRef b = small.AllocateRef(16);
  EXPECT_EQ(a >> kRefChunkShift, 1u);
  EXPECT_EQ(huge, BlockRef{2} << kRefChunkShift);
  EXPECT_EQ(static_cast<char*>(small.Deref(b)),
            static_cast<char*>(small.Deref(a)) + 16);
}

TEST(ArenaTest, NullRefIsNeverIssued) {
  Arena first;
  EXPECT_NE(first.AllocateRef(8), kNullRef);
  Arena keys_first;
  keys_first.Intern("");
  keys_first.Intern("k");
  EXPECT_NE(keys_first.AllocateRef(16), kNullRef);
}

TEST(ArenaTest, FreedRefsAreReusedBySize) {
  Arena arena;
  BlockRef a = arena.AllocateRef(16);
  BlockRef b = arena.AllocateRef(40);
  BlockRef c = arena.AllocateRef(16);
  arena.FreeRef(a, 16);
  arena.FreeRef(b, 40);
  arena.FreeRef(c, 16);
  // A free list serves only its own size, last freed first; the pointer
  // free lists are separate.
  BlockRef d = arena.AllocateRef(24);
  EXPECT_NE(d, a);
  EXPECT_NE(d, b);
  EXPECT_NE(d, c);
  EXPECT_NE(arena.AllocateBlock(16), arena.Deref(c));
  EXPECT_EQ(arena.AllocateRef(16), c);
  EXPECT_EQ(arena.AllocateRef(16), a);
  EXPECT_EQ(arena.AllocateRef(40), b);
  EXPECT_NE(arena.AllocateRef(16), a);
}

// The reach, checked where references are packed: the last chunk index
// packs and round-trips its fields, the next one throws. No gigabytes
// are allocated.
TEST(ArenaTest, RefReachEndsAtTheLastChunkIndex) {
  BlockRef last = Arena::PackRef(kRefChunks - 1, 65528);
  EXPECT_EQ(last >> kRefChunkShift, kRefChunks - 1);
  EXPECT_EQ(size_t{last & kRefSlotMask} << 2, 65528u);
  EXPECT_EQ(last & 1, 0u);
  EXPECT_EQ(Arena::PackRef(1, 0), BlockRef{1} << kRefChunkShift);
  EXPECT_THROW(Arena::PackRef(kRefChunks, 0), std::length_error);
  // A fresh arena opens chunks from index 1 on.
  Arena arena;
  EXPECT_NO_THROW(arena.EnsureRefReach(kRefChunks - 1));
  EXPECT_THROW(arena.EnsureRefReach(kRefChunks), std::length_error);
  arena.AllocateRef(8);  // chunk 1
  EXPECT_NO_THROW(arena.EnsureRefReach(kRefChunks - 2));
  EXPECT_THROW(arena.EnsureRefReach(kRefChunks - 1), std::length_error);
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

// The same through a stale block reference.
TEST(ArenaDeathTest, FreedRefIsPoisoned) {
  EXPECT_DEATH(
      {
        Arena arena;
        BlockRef ref = arena.AllocateRef(16);
        arena.FreeRef(ref, 16);
        *static_cast<volatile uint64_t*>(arena.Deref(ref)) = 1;
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
