// Exhaustive pinning of the encode-hot-path kernels in common/simd.h:
// every dispatched kernel must agree with its naive scalar reference for
// all 256 bit positions / all slot counts / randomized byte content. The
// HOPE_NO_SIMD CI row re-runs this suite on the portable tier.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>

#include "common/simd.h"

namespace hope {
namespace {

using Bitmap = uint64_t[4];

void FillPattern(Bitmap bm, int pattern, std::mt19937_64* rng) {
  switch (pattern) {
    case 0:  // empty
      std::memset(bm, 0, 32);
      break;
    case 1:  // full
      std::memset(bm, 0xFF, 32);
      break;
    case 2:  // single bit per word boundary region
      std::memset(bm, 0, 32);
      bm[0] = uint64_t{1} << 63;  // position 0
      bm[1] = uint64_t{1};        // position 127
      bm[3] = uint64_t{1};        // position 255
      break;
    case 3:  // alternating
      for (int w = 0; w < 4; w++) bm[w] = 0xAAAAAAAAAAAAAAAAull;
      break;
    default:  // random
      for (int w = 0; w < 4; w++) bm[w] = (*rng)();
      break;
  }
}

TEST(SimdBitmapTest, Rank256BelowMatchesScalarExhaustively) {
  std::mt19937_64 rng(42);
  Bitmap bm;
  for (int pattern = 0; pattern < 32; pattern++) {
    FillPattern(bm, pattern, &rng);
    for (unsigned b = 0; b <= 256; b++) {
      ASSERT_EQ(simd::Rank256Below(bm, b), simd::scalar::Rank256Below(bm, b))
          << "pattern " << pattern << " b " << b;
    }
  }
}

TEST(SimdBitmapTest, PrevSetBit256MatchesScalarExhaustively) {
  std::mt19937_64 rng(43);
  Bitmap bm;
  for (int pattern = 0; pattern < 32; pattern++) {
    FillPattern(bm, pattern, &rng);
    for (unsigned b = 0; b <= 256; b++) {
      ASSERT_EQ(simd::PrevSetBit256(bm, b),
                simd::scalar::PrevSetBit256(bm, b))
          << "pattern " << pattern << " b " << b;
    }
  }
}

TEST(SimdBitmapTest, PrevSetBitIsStrictlyBelow) {
  // The off-by-one that matters: a set bit at position b must never be
  // returned for query b ("strictly below" contract).
  Bitmap bm;
  std::memset(bm, 0, 32);
  for (unsigned p = 0; p < 256; p += 7) bm[p >> 6] |= uint64_t{1}
                                                      << (63 - (p & 63));
  for (unsigned b = 0; b <= 256; b++) {
    int prev = simd::PrevSetBit256(bm, b);
    if (prev >= 0) {
      EXPECT_LT(static_cast<unsigned>(prev), b);
    }
  }
}

TEST(SimdByteScanTest, FindByteEq16MatchesScalarForAllCounts) {
  std::mt19937_64 rng(44);
  for (int trial = 0; trial < 200; trial++) {
    uint8_t keys[16];
    for (auto& k : keys) k = static_cast<uint8_t>(rng());
    for (int n = 0; n <= 16; n++) {
      for (int probe = 0; probe < 16; probe++) {
        uint8_t b = trial % 2 ? keys[probe]  // guaranteed present value
                              : static_cast<uint8_t>(rng());
        ASSERT_EQ(simd::FindByteEq16(keys, n, b),
                  simd::scalar::FindByteEq(keys, n, b))
            << "n " << n << " b " << int(b);
      }
    }
  }
}

TEST(SimdByteScanTest, CountBytesLt16MatchesScalarForAllBounds) {
  std::mt19937_64 rng(45);
  for (int trial = 0; trial < 50; trial++) {
    uint8_t keys[16];
    for (auto& k : keys) k = static_cast<uint8_t>(rng());
    for (int n = 0; n <= 16; n++) {
      for (unsigned bound = 0; bound <= 256; bound += (bound < 8 ? 1 : 3)) {
        ASSERT_EQ(simd::CountBytesLt16(keys, n, bound),
                  simd::scalar::CountBytesLt(keys, n, bound))
            << "n " << n << " bound " << bound;
      }
    }
  }
}

TEST(SimdByteScanTest, Node4KernelsMatchScalar) {
  std::mt19937_64 rng(46);
  for (int trial = 0; trial < 500; trial++) {
    uint8_t keys[4];
    for (auto& k : keys) k = static_cast<uint8_t>(rng());
    for (int n = 0; n <= 4; n++) {
      for (int probe = 0; probe < 8; probe++) {
        uint8_t b = probe < 4 ? keys[probe] : static_cast<uint8_t>(rng());
        ASSERT_EQ(simd::FindByteEq4(keys, n, b),
                  simd::scalar::FindByteEq(keys, n, b));
      }
      for (unsigned bound : {0u, 1u, 127u, 128u, 255u, 256u,
                             static_cast<unsigned>(rng() % 257)}) {
        ASSERT_EQ(simd::CountBytesLt4(keys, n, bound),
                  simd::scalar::CountBytesLt(keys, n, bound));
      }
    }
  }
}

TEST(SimdLcpTest, MatchesScalarAcrossWordBoundaries) {
  std::mt19937_64 rng(47);
  // Every (length, mismatch position) pair around the 8-byte word size,
  // with embedded NULs to catch any C-string shortcut.
  for (size_t len = 0; len <= 24; len++) {
    for (size_t diff = 0; diff <= len; diff++) {
      std::string a(len, '\0');
      for (auto& c : a) c = static_cast<char>(rng());
      std::string b = a;
      if (diff < len) b[diff] = static_cast<char>(b[diff] + 1);
      if (len > 2) a[len / 2] = b[len / 2] = '\0';
      size_t expect = simd::scalar::LcpLen(a, b);
      ASSERT_EQ(simd::LcpLen(a, b), expect) << "len " << len << " diff "
                                            << diff;
      // Unequal lengths exercise the min() clamp and the tail loop.
      ASSERT_EQ(simd::LcpLen(a.substr(0, len / 2), b),
                simd::scalar::LcpLen(a.substr(0, len / 2), b));
    }
  }
}

TEST(SimdLcpTest, SharedPrefixAtLeastMatchesLcp) {
  std::mt19937_64 rng(48);
  for (int trial = 0; trial < 2000; trial++) {
    size_t la = rng() % 12, lb = rng() % 12;
    std::string a(la, '\0'), b(lb, '\0');
    for (auto& c : a) c = static_cast<char>(rng() % 4);  // force overlaps
    for (auto& c : b) c = static_cast<char>(rng() % 4);
    size_t lcp = simd::scalar::LcpLen(a, b);
    for (size_t len = 0; len <= 12; len++) {
      bool expect = a.size() >= len && b.size() >= len && lcp >= len;
      ASSERT_EQ(simd::SharedPrefixAtLeast(a, b, len), expect)
          << "a " << a << " b " << b << " len " << len;
    }
  }
}

TEST(SimdPopCountTest, MatchesBuiltin) {
  std::mt19937_64 rng(49);
  EXPECT_EQ(simd::PopCount64(0), 0);
  EXPECT_EQ(simd::PopCount64(~uint64_t{0}), 64);
  for (int trial = 0; trial < 10000; trial++) {
    uint64_t x = rng();
    ASSERT_EQ(simd::PopCount64(x), __builtin_popcountll(x));
  }
}

// The runtime-dispatched hardware popcount must agree with the portable
// form on every input shape: the templated rank helpers differ only in
// which of the two they inline, so this equality is what makes the
// Hw == true and Hw == false encode paths interchangeable.
TEST(SimdPopCountTest, HardwareMatchesPortable) {
  if (!simd::HavePopcnt()) {
    // Portable fallback aliases PopCount64; nothing to cross-check.
    EXPECT_EQ(simd::PopCount64Hw(0x5555555555555555ull),
              simd::PopCount64(0x5555555555555555ull));
    return;
  }
  std::mt19937_64 rng(50);
  EXPECT_EQ(simd::PopCount64Hw(0), 0);
  EXPECT_EQ(simd::PopCount64Hw(~uint64_t{0}), 64);
  for (unsigned b = 0; b < 64; b++)
    ASSERT_EQ(simd::PopCount64Hw(uint64_t{1} << b), 1);
  for (int trial = 0; trial < 10000; trial++) {
    uint64_t x = rng();
    ASSERT_EQ(simd::PopCount64Hw(x), simd::PopCount64(x));
  }
}

}  // namespace
}  // namespace hope
