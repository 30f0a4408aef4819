// SIMD kernels for the encode hot path, with compile-time tier dispatch.
//
// Tiers (highest available wins):
//   AVX2 / SSE2  — x86: byte-broadcast compare + movemask child scans
//   NEON         — aarch64: vceqq + shrn-nibble movemask equivalent
//   portable     — branch-free / SWAR plain C++ (always correct)
// Defining HOPE_NO_SIMD (cmake -DHOPE_NO_SIMD=ON) disables the intrinsic
// tiers so the portable path can be built and tested on any machine.
//
// Every dispatched kernel has a naive reference twin under
// hope::simd::scalar; the equivalence suite pins dispatched == scalar in
// the same binary, and the HOPE_NO_SIMD CI row re-runs the whole suite on
// the portable tier, so neither path can rot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

#if !defined(HOPE_NO_SIMD)
#if defined(__AVX2__)
#define HOPE_SIMD_AVX2 1
#endif
#if defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#define HOPE_SIMD_SSE2 1
#include <emmintrin.h>
#endif
#if defined(__ARM_NEON) || defined(__ARM_NEON__)
#define HOPE_SIMD_NEON 1
#include <arm_neon.h>
#endif
#if defined(__x86_64__) || defined(_M_X64)
#define HOPE_SIMD_DYNAMIC_POPCNT 1
#include <cpuid.h>
#endif
#endif  // !HOPE_NO_SIMD

namespace hope::simd {

/// Human-readable dispatch tier, for bench rows and version strings.
constexpr const char* TierName() {
#if defined(HOPE_SIMD_AVX2)
  return "avx2";
#elif defined(HOPE_SIMD_SSE2)
  return "sse2";
#elif defined(HOPE_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

/// Popcount that never lowers to a libgcc call: builds without -mpopcnt
/// would otherwise pay a function call per rank in the trie descent.
inline int PopCount64(uint64_t x) {
#if defined(__POPCNT__) || defined(__aarch64__) || defined(__ARM_NEON)
  return __builtin_popcountll(x);
#else
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<int>((x * 0x0101010101010101ull) >> 56);
#endif
}

// Runtime POPCNT dispatch (x86-64). The portable build targets baseline
// x86-64, where __builtin_popcountll lowers to the SWAR sequence above —
// a ~12-cycle dependency chain sitting on the trie descent's critical
// path. Virtually every x86 CPU since 2008 has the POPCNT instruction;
// inline asm emits it without -mpopcnt (the binary stays baseline: the
// instruction only executes behind the cpuid check). Hot loops template
// on HavePopcnt() once per span, so each use inlines to one instruction
// with no call and no per-use branch.
#if defined(HOPE_SIMD_DYNAMIC_POPCNT)
inline bool HavePopcnt() {
  // Resolved once at first use. The Hw and portable template legs differ
  // only in which popcount they inline, and the two popcounts are pinned
  // equal by the SIMD unit tests.
  static const bool have = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
           (ecx & (1u << 23)) != 0;
  }();
  return have;
}
inline int PopCount64Hw(uint64_t x) {
  uint64_t r;
  asm("popcntq %1, %0" : "=r"(r) : "rm"(x));
  return static_cast<int>(r);
}
#else
inline bool HavePopcnt() { return false; }
inline int PopCount64Hw(uint64_t x) { return PopCount64(x); }
#endif

/// Popcount for hot loops templated on a HavePopcnt() probe: the caller
/// hoists the runtime check out of its loop, the body inlines the picked
/// form. Hw == true requires HavePopcnt() (checked by the caller).
template <bool Hw>
inline int PopCount64T(uint64_t x) {
  return Hw ? PopCount64Hw(x) : PopCount64(x);
}

/// Hints the prefetcher at an address a later step of the walk will load.
inline void PrefetchRead(const void* p) { __builtin_prefetch(p, 0, 3); }

// ---------------------------------------------------------------------------
// Naive reference kernels. Correct by inspection; the equivalence tests
// compare every dispatched kernel against these in-process.
// ---------------------------------------------------------------------------
namespace scalar {

/// Index of `b` within keys[0, n), or -1.
inline int FindByteEq(const uint8_t* keys, int n, uint8_t b) {
  for (int i = 0; i < n; i++)
    if (keys[i] == b) return i;
  return -1;
}

/// Number of bytes in keys[0, n) strictly below `bound` (<= 256).
inline int CountBytesLt(const uint8_t* keys, int n, unsigned bound) {
  int c = 0;
  for (int i = 0; i < n; i++) c += keys[i] < bound;
  return c;
}

/// Byte-loop longest common prefix.
inline size_t LcpLen(std::string_view a, std::string_view b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  size_t i = 0;
  while (i < n && a[i] == b[i]) i++;
  return i;
}

/// Bit-loop rank over a 256-bit MSB-first bitmap: set bits strictly
/// below position b.
inline unsigned Rank256Below(const uint64_t bm[4], unsigned b) {
  unsigned r = 0;
  for (unsigned i = 0; i < b; i++)
    r += (bm[i >> 6] >> (63 - (i & 63))) & 1;
  return r;
}

/// Bit-loop predecessor: largest set position strictly below b, or -1.
inline int PrevSetBit256(const uint64_t bm[4], unsigned b) {
  for (int i = static_cast<int>(b) - 1; i >= 0; i--)
    if ((bm[i >> 6] >> (63 - (i & 63))) & 1) return i;
  return -1;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatched kernels.
// ---------------------------------------------------------------------------

/// Index of `b` within the first n (<= 16) sorted keys of a 16-byte
/// array, or -1. The caller guarantees 16 readable bytes (ART Node16
/// stores a full uint8_t keys[16]).
inline int FindByteEq16(const uint8_t* keys, int n, uint8_t b) {
#if defined(HOPE_SIMD_SSE2)
  __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys));
  __m128i eq = _mm_cmpeq_epi8(k, _mm_set1_epi8(static_cast<char>(b)));
  unsigned mask = static_cast<unsigned>(_mm_movemask_epi8(eq));
  mask &= (1u << n) - 1;
  return mask ? __builtin_ctz(mask) : -1;
#elif defined(HOPE_SIMD_NEON)
  uint8x16_t k = vld1q_u8(keys);
  uint8x16_t eq = vceqq_u8(k, vdupq_n_u8(b));
  // Narrow each 8-bit lane to a nibble: lane i of eq maps to bits
  // [4i, 4i+4) of the 64-bit mask.
  uint64_t mask =
      vget_lane_u64(vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(eq),
                                                    4)),
                    0);
  mask &= n >= 16 ? ~uint64_t{0} : (uint64_t{1} << (4 * n)) - 1;
  return mask ? __builtin_ctzll(mask) >> 2 : -1;
#else
  return scalar::FindByteEq(keys, n, b);
#endif
}

/// Number of keys (first n <= 16 of a 16-byte array) strictly below
/// `bound` (<= 256). With sorted keys this is the predecessor rank.
inline int CountBytesLt16(const uint8_t* keys, int n, unsigned bound) {
  if (bound >= 256) return n;
#if defined(HOPE_SIMD_SSE2)
  // SSE2 has only signed byte compares: bias both sides by 0x80.
  __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(keys));
  __m128i bias = _mm_set1_epi8(static_cast<char>(0x80));
  __m128i lt = _mm_cmplt_epi8(
      _mm_xor_si128(k, bias),
      _mm_set1_epi8(static_cast<char>(bound ^ 0x80u)));
  unsigned mask = static_cast<unsigned>(_mm_movemask_epi8(lt));
  mask &= (1u << n) - 1;
  return PopCount64(mask);
#elif defined(HOPE_SIMD_NEON)
  uint8x16_t k = vld1q_u8(keys);
  uint8x16_t lt = vcltq_u8(k, vdupq_n_u8(static_cast<uint8_t>(bound)));
  uint64_t mask =
      vget_lane_u64(vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(lt),
                                                    4)),
                    0);
  mask &= n >= 16 ? ~uint64_t{0} : (uint64_t{1} << (4 * n)) - 1;
  return PopCount64(mask) >> 2;
#else
  return scalar::CountBytesLt(keys, n, bound);
#endif
}

/// Index of `b` within the first n (<= 4) keys of a 4-byte array, or -1.
/// SWAR zero-byte detection — portable, no out-of-bounds read.
inline int FindByteEq4(const uint8_t* keys, int n, uint8_t b) {
  uint32_t w;
  std::memcpy(&w, keys, 4);
  uint32_t x = w ^ (0x01010101u * b);  // matching byte becomes 0x00
  uint32_t zero = (x - 0x01010101u) & ~x & 0x80808080u;
  if (zero == 0) return -1;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  int i = __builtin_clz(zero) >> 3;
#else
  int i = __builtin_ctz(zero) >> 3;
#endif
  return i < n ? i : -1;
}

/// Number of keys (first n <= 4) strictly below `bound` (<= 256);
/// four unrolled compares, branch-free.
inline int CountBytesLt4(const uint8_t* keys, int n, unsigned bound) {
  int c = 0;
  c += (0 < n) & (keys[0] < bound);
  c += (1 < n) & (keys[1] < bound);
  c += (2 < n) & (keys[2] < bound);
  c += (3 < n) & (keys[3] < bound);
  return c;
}

/// Word-at-a-time longest common prefix: XOR eight bytes per step, locate
/// the first differing byte with a count-zeros on the mismatch word.
inline size_t LcpLen(std::string_view a, std::string_view b) {
  size_t n = a.size() < b.size() ? a.size() : b.size();
  size_t i = 0;
  while (i + 8 <= n) {
    uint64_t wa, wb;
    std::memcpy(&wa, a.data() + i, 8);
    std::memcpy(&wb, b.data() + i, 8);
    uint64_t x = wa ^ wb;
    if (x != 0) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
      return i + (static_cast<size_t>(__builtin_clzll(x)) >> 3);
#else
      return i + (static_cast<size_t>(__builtin_ctzll(x)) >> 3);
#endif
    }
    i += 8;
  }
  while (i < n && a[i] == b[i]) i++;
  return i;
}

/// True when a and b share at least `len` leading bytes (the batch
/// prefix-reuse predicate — cheaper than a full LcpLen when only the
/// threshold matters).
inline bool SharedPrefixAtLeast(std::string_view a, std::string_view b,
                                size_t len) {
  if (a.size() < len || b.size() < len) return false;
  return std::memcmp(a.data(), b.data(), len) == 0;
}

/// Rank over a 256-bit MSB-first bitmap: set bits strictly below
/// position b (<= 256).
inline unsigned Rank256Below(const uint64_t bm[4], unsigned b) {
#if defined(__POPCNT__) || defined(__aarch64__) || defined(__ARM_NEON)
  // One-shot branch-free form: four hardware popcounts over masked
  // words, no data-dependent branch to mispredict.
  unsigned r = 0;
  for (unsigned w = 0; w < 4; w++) {  // constant trip count: fully unrolled
    unsigned lo = w * 64;
    // Bits of word w counted: clamp(b - lo, 0, 64). The double shift
    // keeps n == 0 defined ((x >> 1) >> 63 == 0) without a branch.
    unsigned n = b <= lo ? 0 : (b - lo >= 64 ? 64 : b - lo);
    uint64_t top = n >= 64 ? bm[w] : (bm[w] >> 1) >> (63 - n);
    r += static_cast<unsigned>(PopCount64(top));
  }
  return r;
#else
  // Without hardware POPCNT the four SWAR popcounts cost more than the
  // branches they avoid: stop at the word containing b instead. ASCII
  // descents keep b < 128, so this is one or two popcounts.
  unsigned word = b >> 6, bit = b & 63;
  unsigned r = 0;
  for (unsigned w = 0; w < word; w++) r += PopCount64(bm[w]);
  if (bit != 0 && word < 4) r += PopCount64(bm[word] >> (64 - bit));
  return r;
#endif
}

/// Predecessor over a 256-bit MSB-first bitmap: largest set position
/// strictly below b (<= 256), or -1. Masks the word containing b, then
/// scans down word-at-a-time; dense nodes resolve in the first probe
/// (one load + ctz — this is what replaces ART's backward slot scan).
inline int PrevSetBit256(const uint64_t bm[4], unsigned b) {
  if (b == 0) return -1;
  unsigned pos = b - 1;
  int word = static_cast<int>(pos >> 6);
  uint64_t w = bm[word] & (~uint64_t{0} << (63 - (pos & 63)));
  while (true) {
    // MSB-first layout: the largest position is the lowest set bit.
    if (w != 0) return word * 64 + (63 - __builtin_ctzll(w));
    if (word == 0) return -1;
    word--;
    w = bm[word];
  }
}

}  // namespace hope::simd
