// Append-only bit writer backed by a 64-bit accumulator. Codes are
// left-aligned (Code invariant: bits beyond `len` are zero), so a full
// accumulator flushes as one big-endian word — a byteswap + memcpy, not a
// byte loop — which runs once per 64 output bits on every key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/bits.h"

namespace hope {

namespace detail {
inline uint64_t ToBigEndian64(uint64_t x) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return x;
#else
  return __builtin_bswap64(x);
#endif
}
}  // namespace detail

/// Append-only bit writer backed by a 64-bit accumulator.
class BitWriter {
 public:
  void Clear() {
    buf_.clear();
    acc_ = 0;
    acc_bits_ = 0;
    total_bits_ = 0;
  }

  /// Pre-sizes the backing buffer for an expected output size; purely an
  /// allocation hint (the encoder reserves 8 bits per source byte).
  void ReserveBits(size_t bits) { buf_.reserve(bits / 8 + 8); }

  /// Rewinds the writer to its state after the first `bits` bits were
  /// appended (`bits` <= total_bits()), as if only those bits had been
  /// written. No bytes are copied: the batch encoder's shared-prefix
  /// reuse rewinds the previous key's tail off in place.
  void TruncateToBits(size_t bits) {
    size_t flushed = buf_.size() * 8;
    if (bits >= flushed) {
      // The cut lands inside the accumulator: drop pending bits.
      int keep = static_cast<int>(bits - flushed);
      acc_ = keep > 0 ? acc_ & ~(~uint64_t{0} >> keep) : 0;
      acc_bits_ = keep;
    } else {
      size_t full = bits / 8;
      int rem = static_cast<int>(bits % 8);
      acc_ = rem > 0 ? (static_cast<uint64_t>(static_cast<uint8_t>(
                            buf_[full]))
                        << 56) &
                           ~(~uint64_t{0} >> rem)
                     : 0;
      acc_bits_ = rem;
      buf_.resize(full);
    }
    total_bits_ = bits;
  }

  void Append(Code code) {
    uint64_t bits = code.bits;
    int len = code.len;
    total_bits_ += len;
    int room = 64 - acc_bits_;
    if (len < room) {
      if (len > 0) acc_ |= bits >> acc_bits_;
      acc_bits_ += len;
      return;
    }
    // Fill the accumulator and flush a full word.
    acc_ |= acc_bits_ > 0 ? bits >> acc_bits_ : bits;
    FlushAcc();
    int taken = room;
    acc_ = taken < 64 ? bits << taken : 0;
    acc_bits_ = len - taken;
  }

  /// Zero-pads to a byte boundary and returns the bytes; the writer keeps
  /// its state so the caller can read total_bits().
  std::string TakeBytes() const {
    std::string out;
    CopyBytesTo(&out);
    return out;
  }

  /// TakeBytes into an existing string, reusing its capacity — the batch
  /// path writes straight into the caller's output slot instead of
  /// constructing a temporary.
  void CopyBytesTo(std::string* out) const {
    size_t bytes = static_cast<size_t>(acc_bits_ + 7) / 8;
    // The accumulator's bits beyond acc_bits_ are zero (Code invariant),
    // so the top `bytes` big-endian bytes are already zero-padded.
    uint64_t be = detail::ToBigEndian64(acc_);
    constexpr size_t kStage = 40;
    if (buf_.size() <= kStage - 8) {
      // Short encoding (the per-key common case): stage everything in one
      // buffer so the copy-out is a single assign, not assign + append.
      char stage[kStage];
      std::memcpy(stage, buf_.data(), buf_.size());
      std::memcpy(stage + buf_.size(), &be, 8);
      out->assign(stage, buf_.size() + bytes);
      return;
    }
    out->reserve(buf_.size() + bytes);
    *out = buf_;
    out->append(reinterpret_cast<const char*>(&be), bytes);
  }

  /// Starts an encode whose bytes land in `*out`: the writer takes out's
  /// string, and with it out's capacity, as its buffer and starts empty.
  /// PadInto hands the bytes back, so a reused `out` costs no allocation
  /// once its capacity covers the encoding.
  void Adopt(std::string* out) {
    buf_.swap(*out);
    Clear();
  }

  /// Zero-pads to a byte boundary in place and moves the bytes into the
  /// `*out` that Adopt took them from; total_bits() stays valid.
  void PadInto(std::string* out) {
    uint64_t be = detail::ToBigEndian64(acc_);
    buf_.append(reinterpret_cast<const char*>(&be),
                static_cast<size_t>(acc_bits_ + 7) / 8);
    buf_.swap(*out);
  }

  size_t total_bits() const { return total_bits_; }

  /// Stack-local mirror of the accumulator state for hot append loops.
  /// Appends through a BitWriter* reload acc_/acc_bits_ around every store
  /// the compiler cannot disambiguate (the byte buffer holds chars, which
  /// may alias anything); the mirror keeps them in locals the whole span
  /// and syncs back on destruction. While a Local is live, the writer's
  /// own state is stale — read total_bits() from the Local, not the
  /// writer, and let it go out of scope before touching the writer again.
  class Local {
   public:
    explicit Local(BitWriter* w)
        : w_(w),
          acc_(w->acc_),
          acc_bits_(w->acc_bits_),
          total_bits_(w->total_bits_) {}
    ~Local() {
      w_->acc_ = acc_;
      w_->acc_bits_ = acc_bits_;
      w_->total_bits_ = total_bits_;
    }
    Local(const Local&) = delete;
    Local& operator=(const Local&) = delete;

    void Append(Code code) {
      uint64_t bits = code.bits;
      int len = code.len;
      total_bits_ += static_cast<size_t>(len);
      int room = 64 - acc_bits_;
      if (len < room) {
        if (len > 0) acc_ |= bits >> acc_bits_;
        acc_bits_ += len;
        return;
      }
      acc_ |= acc_bits_ > 0 ? bits >> acc_bits_ : bits;
      w_->AppendWord(acc_);
      int taken = room;
      acc_ = taken < 64 ? bits << taken : 0;
      acc_bits_ = len - taken;
    }

    size_t total_bits() const { return total_bits_; }

   private:
    BitWriter* w_;
    uint64_t acc_;
    int acc_bits_;
    size_t total_bits_;
  };

 private:
  std::string buf_;
  uint64_t acc_ = 0;   // left-aligned pending bits
  int acc_bits_ = 0;   // number of pending bits (< 64)
  size_t total_bits_ = 0;

  void AppendWord(uint64_t acc) {
    uint64_t be = detail::ToBigEndian64(acc);
    buf_.append(reinterpret_cast<const char*>(&be), 8);
  }

  void FlushAcc() {
    AppendWord(acc_);
    acc_ = 0;
    acc_bits_ = 0;
  }
};

}  // namespace hope
