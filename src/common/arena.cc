#include "common/arena.h"

#include <algorithm>
#include <stdexcept>

#include "common/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define HOPE_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HOPE_ARENA_ASAN 1
#endif
#endif

#ifdef HOPE_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#define HOPE_POISON(p, n) __asan_poison_memory_region((p), (n))
#define HOPE_UNPOISON(p, n) __asan_unpoison_memory_region((p), (n))
#else
#define HOPE_POISON(p, n) static_cast<void>(0)
#define HOPE_UNPOISON(p, n) static_cast<void>(0)
#endif

namespace hope {

namespace {

// Regular chunks double from kMinChunk to kMaxChunk (or fit the request
// that opens them).
constexpr size_t kMinChunk = size_t{1} << 10;
constexpr size_t kMaxChunk = size_t{1} << 16;

}  // namespace

char* Arena::AllocateInNewChunk(size_t n) {
  bool own = n > kMaxChunk;
  size_t size =
      std::max(n, std::clamp(2 * chunk_bytes_, kMinChunk, kMaxChunk));
  if (chunks_.empty()) chunks_.emplace_back();  // index 0: null
  chunks_.push_back(std::make_unique_for_overwrite<char[]>(size));
  char* p = chunks_.back().get();
  HOPE_CHECK_MSG(
      (reinterpret_cast<uintptr_t>(p) + size) >> kKeyRefLenShift == 0,
      "arena chunk past the 48-bit address range");
  // A dedicated chunk leaves the current one's free bytes in use.
  if (own) return p;
  cur_chunk_ = chunks_.size() - 1;
  chunk_bytes_ = size;
  cur_ = p + n;
  end_ = p + size;
  return p;
}

void* Arena::AllocateBlock(size_t size) {
  HOPE_DCHECK(size != 0 && size % kBlockAlign == 0);
  size_t cls = size / kBlockAlign;
  if (cls < free_.size() && free_[cls] != nullptr) {
    void* block = free_[cls];
    HOPE_UNPOISON(block, size);
    std::memcpy(&free_[cls], block, sizeof(void*));
    return block;
  }
  return Allocate(size, kBlockAlign);
}

void Arena::FreeBlock(void* block, size_t size) {
  HOPE_DCHECK(size != 0 && size % kBlockAlign == 0);
  size_t cls = size / kBlockAlign;
  if (cls >= free_.size()) free_.resize(cls + 1, nullptr);
  std::memcpy(block, &free_[cls], sizeof(void*));
  free_[cls] = block;
  HOPE_POISON(block, size);
}

BlockRef Arena::PackRef(size_t chunk, size_t offset) {
  HOPE_DCHECK(chunk != 0 && offset % kBlockAlign == 0 && offset < kMaxChunk);
  if (chunk >= kRefChunks)
    throw std::length_error("arena blocks past the 32-bit reference reach");
  return static_cast<BlockRef>(chunk << kRefChunkShift | offset >> 2);
}

void Arena::EnsureRefReach(size_t new_chunks) const {
  size_t next = std::max<size_t>(chunks_.size(), 1);
  if (new_chunks > 0) static_cast<void>(PackRef(next + new_chunks - 1, 0));
}

BlockRef Arena::AllocateRef(size_t size) {
  HOPE_DCHECK(size != 0 && size % kBlockAlign == 0);
  size_t cls = size / kBlockAlign;
  if (cls < free_refs_.size() && free_refs_[cls] != kNullRef) {
    BlockRef ref = free_refs_[cls];
    void* block = Deref(ref);
    HOPE_UNPOISON(block, size);
    std::memcpy(&free_refs_[cls], block, sizeof(BlockRef));
    return ref;
  }
  char* p = Allocate(size, kBlockAlign);
  // A block larger than a regular chunk got the last chunk to itself.
  size_t chunk = size > kMaxChunk ? chunks_.size() - 1 : cur_chunk_;
  return PackRef(chunk, static_cast<size_t>(p - chunks_[chunk].get()));
}

void Arena::FreeRef(BlockRef ref, size_t size) {
  HOPE_DCHECK(ref != kNullRef && (ref & 1) == 0);
  HOPE_DCHECK(size != 0 && size % kBlockAlign == 0);
  size_t cls = size / kBlockAlign;
  if (cls >= free_refs_.size()) free_refs_.resize(cls + 1, kNullRef);
  void* block = Deref(ref);
  std::memcpy(block, &free_refs_[cls], sizeof(BlockRef));
  free_refs_[cls] = ref;
  HOPE_POISON(block, size);
}

}  // namespace hope
