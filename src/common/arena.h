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
//  - Blocks (AllocateBlock/FreeBlock) are 8-byte aligned and recycled:
//    a freed block goes onto an intrusive free list for its exact size,
//    and the next request of that size takes it back. Nodes and leaves
//    of all three trees live here.
//
// Nothing returns to the system before the arena dies, and then it frees
// a few hundred chunks rather than one heap object per node, leaf and
// key. Under AddressSanitizer a block on a free list is poisoned, so a
// stale node or leaf pointer still faults even though the block never
// goes back to malloc.
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

  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cur_ = nullptr;  // free bytes of the current chunk
  char* end_ = nullptr;
  size_t chunk_bytes_ = 0;  // size of the last regular chunk
  // free_[size / kBlockAlign]: the most recently freed block of that
  // size, whose first word links to the next one.
  std::vector<void*> free_;
};

}  // namespace hope
