// Array dictionary for the fixed-length-interval schemes (§4.2).
//
// Single-Char: 256 slots, one per byte. Double-Char: 256*257 slots — for
// each first byte c0, slot c0*257 is the terminator entry ∅ (covering the
// lone one-byte string "c0") followed by 256 slots for c0c1. Symbols and
// boundaries are implied by the slot index, so an entry stores only the
// code and the symbol length; a lookup is a single array access.
#include <stdexcept>

#include "hope/dictionary.h"

namespace hope {

namespace {

class ArrayDict : public Dictionary {
 public:
  ArrayDict(const std::vector<DictEntry>& entries, int chars)
      : chars_(chars) {
    size_t expected = chars == 1 ? 256 : 256 * 257;
    if (entries.size() != expected)
      throw std::invalid_argument("ArrayDict: wrong entry count");
    slots_.resize(expected);
    for (size_t i = 0; i < entries.size(); i++) {
      // The interval layout is fixed, so the sorted entry order *is* the
      // slot order — and the slot dictates the symbol length. A
      // deserialized blob that disagrees must be rejected here: a
      // terminator slot claiming 2 consumed bytes would overshoot a
      // 1-byte tail in the encode loop (this was an assert, compiled out
      // exactly in the release builds that load untrusted blobs).
      if (entries[i].symbol_len != SlotSymbolLen(i))
        throw std::invalid_argument("ArrayDict: symbol_len mismatch");
      slots_[i] = PackEntry(entries[i]);
    }
  }

  LookupResult Lookup(std::string_view src) const override {
    size_t idx;
    if (chars_ == 1) {
      idx = static_cast<uint8_t>(src[0]);
    } else {
      size_t c0 = static_cast<uint8_t>(src[0]);
      idx = src.size() >= 2 ? c0 * 257 + static_cast<uint8_t>(src[1]) + 1
                            : c0 * 257;  // terminator entry
    }
    return UnpackEntry(slots_[idx]);
  }

  size_t NumEntries() const override { return slots_.size(); }

  size_t MemoryBytes() const override {
    return slots_.capacity() * sizeof(PackedCode);
  }

  size_t MaxLookahead() const override { return static_cast<size_t>(chars_); }

  const char* Name() const override {
    return chars_ == 1 ? "array-1" : "array-2";
  }

  // Devirtualized hot path: the whole key is consumed with direct slot
  // indexing — no virtual dispatch per symbol.
  void EncodeSpan(std::string_view src, size_t base, BitWriter* writer,
                  std::vector<EncodeTrace>* trace) const override {
    if (trace)
      EncodeSpanImpl<true>(src, base, writer, trace);
    else
      EncodeSpanImpl<false>(src, base, writer, nullptr);
  }

 private:
  template <bool kTrace>
  void EncodeSpanImpl(std::string_view src, size_t pos, BitWriter* writer,
                      std::vector<EncodeTrace>* trace) const {
    const size_t n = src.size();
    // The accumulator stays in locals for the whole span (see
    // BitWriter::Local), as in the bitmap trie's fused loop.
    BitWriter::Local out(writer);
    if (chars_ == 1) {
      while (pos < n) {
        if constexpr (kTrace)
          trace->push_back({static_cast<uint32_t>(pos),
                            static_cast<uint32_t>(out.total_bits())});
        out.Append(UnpackEntry(slots_[static_cast<uint8_t>(src[pos])]).code);
        pos++;
      }
      return;
    }
    while (pos < n) {
      if constexpr (kTrace)
        trace->push_back({static_cast<uint32_t>(pos),
                          static_cast<uint32_t>(out.total_bits())});
      size_t c0 = static_cast<uint8_t>(src[pos]);
      size_t idx = n - pos >= 2
                       ? c0 * 257 + static_cast<uint8_t>(src[pos + 1]) + 1
                       : c0 * 257;  // terminator entry
      LookupResult r = UnpackEntry(slots_[idx]);
      out.Append(r.code);
      pos += r.consumed;
    }
  }

  uint8_t SlotSymbolLen(size_t idx) const {
    if (chars_ == 1) return 1;
    return idx % 257 == 0 ? 1 : 2;
  }

  std::vector<PackedCode> slots_;
  int chars_;
};

}  // namespace

std::unique_ptr<Dictionary> MakeArrayDict(const std::vector<DictEntry>& entries,
                                          int chars) {
  return std::make_unique<ArrayDict>(entries, chars);
}

}  // namespace hope
