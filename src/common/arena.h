// Per-tree memory arena: the one node allocator behind BTree, Art and
// Hot.
//
// Storage comes in chunks that double from 1 KiB to 64 KiB, so a small
// tree holds little slack and a large one few chunks; a request larger
// than a chunk gets a chunk of its own. Two kinds of storage share the
// chunks:
//
//  - Key bytes (Intern) are append-only and unaligned: each key's bytes
//    sit contiguously with no header, and erasing a key leaves them in
//    place. Art and Hot keep their keys here; BTree keeps its keys in a
//    buffer of its own (btree/btree.h), addressed by 4-byte offsets.
//    The third user of Intern is VersionedIndex's insert log
//    (dynamic/versioned_index.h): it keeps its original keys as KeyRefs
//    into an arena of its own, and a rebuild (a dictionary swap or log
//    compaction) copies the live ones into a fresh arena rather than
//    erasing in place.
//  - Blocks are 8-byte aligned and recycled: a freed block goes onto an
//    intrusive free list for its exact size, and the next request of that
//    size takes it back. Nodes and leaves of all three trees live here.
//    BTree addresses its blocks by pointer (AllocateBlock/FreeBlock); Art
//    and Hot by 32-bit reference (AllocateRef/FreeRef/Deref, below). The
//    two kinds keep separate free lists, and a tree uses one kind only.
//
// Nothing returns to the system before the arena dies, and then it frees
// a few hundred chunks rather than one heap object per node, leaf and
// key. Under AddressSanitizer a block on a free list is poisoned, so a
// stale node or leaf pointer or reference still faults even though the
// block never goes back to malloc.
//
// A block reference (BlockRef) is 32 bits: the index of the block's
// chunk in bits 14-31 and its offset in the chunk, in 8-byte slots, in
// bits 1-13; bit 0 is left clear for the caller (Art and Hot tag leaves
// there). Deref decodes it through the chunk table, ignoring bit 0, so a
// reference costs one load of the chunk's base on top of the block's own.
// No block ever moves, so a pointer taken from a reference stays valid
// while the arena grows. Chunk index 0 is never given to a chunk, which
// makes 0 the null reference. Regular chunks are at most 64 KiB, 8,192
// slots, and a larger request gets a chunk of its own at offset 0, so
// the 18-bit chunk index is the reach: 2^18 - 1 chunks, of which all but
// the first few hold 64 KiB or more, i.e. about 16 GiB of arena per tree.
// A block that would land past that has no reference: PackRef throws
// std::length_error, and EnsureRefReach lets a tree throw it before it
// changes anything.
//
// A key reference (KeyRef), the key slot of Art's and Hot's leaves, is
// one tagged word: the address in the low 48 bits and the length in the
// high 16, so a comparison reads a single run of bytes and the length
// costs no load. A key of 65,535 bytes or more
// carries the escape tag 0xFFFF instead, and its bytes follow an 8-byte
// length prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace hope {

/// Tagged key reference: address in bits 0-47, length in bits 48-63
/// (0xFFFF: the length is an 8-byte prefix at the address).
using KeyRef = uint64_t;

inline constexpr int kKeyRefLenShift = 48;
inline constexpr uint64_t kKeyRefAddrMask =
    (uint64_t{1} << kKeyRefLenShift) - 1;
/// The length tag of a key of this many bytes or more.
inline constexpr size_t kKeyRefEscapeLen = 0xFFFF;

/// Where the key's storage starts (its bytes, or its length prefix).
inline const char* KeyAddress(KeyRef ref) {
  return reinterpret_cast<const char*>(ref & kKeyRefAddrMask);
}

inline std::string_view KeyAt(KeyRef ref) {
  const char* p = KeyAddress(ref);
  size_t len = ref >> kKeyRefLenShift;
  if (len == kKeyRefEscapeLen) {
    uint64_t n;
    std::memcpy(&n, p, sizeof(n));
    return {p + sizeof(n), n};
  }
  return {p, len};
}

/// Block reference: chunk index in bits 14-31, 8-byte slot in bits 1-13,
/// bit 0 free for the caller's tag. 0 is null.
using BlockRef = uint32_t;

inline constexpr BlockRef kNullRef = 0;
inline constexpr int kRefChunkShift = 14;
/// Chunk indices a reference can name (index 0 stands for null).
inline constexpr size_t kRefChunks = size_t{1} << (32 - kRefChunkShift);
/// Bits 1-13: the slot, times two.
inline constexpr BlockRef kRefSlotMask = (BlockRef{1} << kRefChunkShift) - 2;

class Arena {
 public:
  /// Copies `key` into append-only storage.
  KeyRef Intern(std::string_view key) {
    bool escape = key.size() >= kKeyRefEscapeLen;
    char* p = Allocate(key.size() + (escape ? sizeof(uint64_t) : 0), 1);
    char* bytes = p;
    if (escape) {
      uint64_t n = key.size();
      std::memcpy(p, &n, sizeof(n));
      bytes += sizeof(n);
    }
    // The empty key needs no chunk: Allocate(0, 1) may return nullptr.
    if (!key.empty()) std::memcpy(bytes, key.data(), key.size());
    return reinterpret_cast<uintptr_t>(p) |
           (uint64_t{escape ? kKeyRefEscapeLen : key.size()}
            << kKeyRefLenShift);
  }

  /// An uninitialized block of `size` bytes (a non-zero multiple of 8),
  /// 8-byte aligned; the last block freed with this size if there is one.
  void* AllocateBlock(size_t size);

  /// Puts a block from AllocateBlock(size) on the free list for `size`.
  void FreeBlock(void* block, size_t size);

  /// AllocateBlock, returning the block's reference (never kNullRef).
  /// Throws std::length_error if the block lands past the reach.
  BlockRef AllocateRef(size_t size);

  /// Puts a block from AllocateRef(size) on the reference free list for
  /// `size`. `ref` is untagged.
  void FreeRef(BlockRef ref, size_t size);

  /// The block `ref` names; bit 0 of `ref` is ignored. `ref` is not null.
  void* Deref(BlockRef ref) const {
    return chunks_[ref >> kRefChunkShift].get() +
           (size_t{ref & kRefSlotMask} << 2);
  }

  /// The reference of the block at byte `offset` (a multiple of 8 below
  /// 64 KiB) of chunk `chunk` (>= 1). Throws std::length_error when
  /// `chunk` is past the reach (>= kRefChunks).
  static BlockRef PackRef(size_t chunk, size_t offset);

  /// Throws std::length_error unless `new_chunks` more chunks would all
  /// still be within the reach. A tree calls it before an update that
  /// may open that many chunks, so the update cannot fail half-done.
  void EnsureRefReach(size_t new_chunks) const;

 private:
  static constexpr size_t kBlockAlign = 8;

  /// `n` contiguous bytes at a multiple of `align` (1 or kBlockAlign).
  char* Allocate(size_t n, size_t align) {
    size_t pad = (0 - reinterpret_cast<uintptr_t>(cur_)) & (align - 1);
    if (pad + n <= static_cast<size_t>(end_ - cur_)) {
      char* p = cur_ + pad;
      cur_ = p + n;
      return p;
    }
    return AllocateInNewChunk(n);
  }
  char* AllocateInNewChunk(size_t n);

  // chunks_[0] is empty once any chunk exists: a reference's chunk
  // index is its position here, and index 0 stands for null.
  std::vector<std::unique_ptr<char[]>> chunks_;
  size_t cur_chunk_ = 0;  // index of the current regular chunk
  char* cur_ = nullptr;   // free bytes of the current chunk
  char* end_ = nullptr;
  size_t chunk_bytes_ = 0;  // size of the last regular chunk
  // free_[size / kBlockAlign]: the most recently freed block of that
  // size, whose first word links to the next one. free_refs_ is the same
  // for referenced blocks, linked by their first 4 bytes.
  std::vector<void*> free_;
  std::vector<BlockRef> free_refs_;
};

}  // namespace hope
