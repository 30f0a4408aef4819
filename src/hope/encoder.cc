#include "hope/encoder.h"

#include <limits>

#include "common/simd.h"

namespace hope {

namespace {

// Prefetches a key's first byte and its terminator, so a short key whose
// heap bytes straddle a cache-line boundary arrives whole.
inline void PrefetchKey(const std::string& key) {
  simd::PrefetchRead(key.data());
  simd::PrefetchRead(key.data() + key.size());
}

}  // namespace

std::string Encoder::Encode(std::string_view key, size_t* bit_len) const {
  BitWriter writer;
  writer.ReserveBits(key.size() * 8);
  dict_->EncodeSpan(key, 0, &writer, nullptr);
  std::string out = writer.TakeBytes();
  if (bit_len) *bit_len = writer.total_bits();
  return out;
}

std::vector<std::string> Encoder::EncodeBatch(
    const std::vector<std::string>& keys, size_t* total_bits) const {
  std::vector<std::string> out(keys.size());
  size_t bits = 0;
  const size_t lookahead = dict_->MaxLookahead();

  // Shared-prefix reuse (Appendix B) only ever fires when some adjacent
  // pair shares at least `lookahead` leading bytes. The prescan is a
  // bounded memcmp per pair (lookahead <= 4 for the gram dictionaries);
  // unbounded-lookahead dictionaries (ALM family) can never reuse.
  bool any_reuse = false;
  if (lookahead != std::numeric_limits<size_t>::max()) {
    for (size_t i = 1; i < keys.size() && !any_reuse; i++)
      any_reuse = simd::SharedPrefixAtLeast(keys[i - 1], keys[i], lookahead);
  }

  BitWriter writer;
  if (!any_reuse) {
    // No prefix to reuse: encode each key straight through the
    // devirtualized span, recycling one writer's buffer across keys.
    for (size_t i = 0; i < keys.size(); i++) {
      if (i + kPrefetchAhead < keys.size())
        PrefetchKey(keys[i + kPrefetchAhead]);
      writer.Clear();
      dict_->EncodeSpan(keys[i], 0, &writer, nullptr);
      writer.CopyBytesTo(&out[i]);
      bits += writer.total_bits();
    }
    if (total_bits) *total_bits = bits;
    return out;
  }

  // The writer's state flows from key to key: after encoding key i-1 it
  // holds exactly that key's bits, so reusing a shared prefix is a rewind
  // (TruncateToBits) rather than a copy back out of the previous output.
  std::vector<EncodeTrace> trace;
  writer.ReserveBits(keys[0].size() * 8);
  for (size_t i = 0; i < keys.size(); i++) {
    if (i + kPrefetchAhead < keys.size()) PrefetchKey(keys[i + kPrefetchAhead]);
    const std::string& key = keys[i];
    size_t resume = 0;
    size_t resume_bits = 0;
    if (i > 0) {
      size_t l = simd::LcpLen(keys[i - 1], key);
      // Reuse lookups [0, j): every reused lookup must have inspected
      // only bytes inside the common prefix, i.e.
      // trace[j-1].src_pos + lookahead <= l. trace.back() is a sentinel
      // at (key_len, total_bits), so j == trace.size()-1 reuses the whole
      // previous key. The trace is truncated in place (EncodeTrace is
      // trivially destructible, so resize-down is a size store) and the
      // span appends the fresh tail onto the kept prefix.
      size_t j = 0;
      while (j + 1 < trace.size() &&
             trace[j].src_pos + lookahead <= l)
        j++;
      if (j > 0) {
        resume = trace[j].src_pos;
        resume_bits = trace[j].bit_pos;
      }
      trace.resize(j);
    }
    writer.TruncateToBits(resume_bits);
    dict_->EncodeSpan(key, resume, &writer, &trace);
    trace.push_back({static_cast<uint32_t>(key.size()),
                     static_cast<uint32_t>(writer.total_bits())});
    writer.CopyBytesTo(&out[i]);
    bits += writer.total_bits();
  }
  if (total_bits) *total_bits = bits;
  return out;
}

std::pair<std::string, std::string> Encoder::EncodePair(
    std::string_view a, std::string_view b) const {
  std::vector<std::string> keys{std::string(a), std::string(b)};
  auto enc = EncodeBatch(keys);
  return {std::move(enc[0]), std::move(enc[1])};
}

}  // namespace hope
