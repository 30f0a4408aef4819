#include "common/arena.h"

#include <algorithm>

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
  chunks_.push_back(std::make_unique_for_overwrite<char[]>(size));
  char* p = chunks_.back().get();
  HOPE_CHECK_MSG(
      (reinterpret_cast<uintptr_t>(p) + size) >> kKeyRefLenShift == 0,
      "arena chunk past the 48-bit address range");
  // A dedicated chunk leaves the current one's free bytes in use.
  if (own) return p;
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

}  // namespace hope
