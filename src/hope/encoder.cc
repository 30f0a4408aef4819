#include "hope/encoder.h"

#include <algorithm>
#include <array>
#include <exception>
#include <limits>
#include <thread>

#include "common/cpus.h"
#include "common/simd.h"

namespace hope {

namespace {

// Prefetches a key's first byte and its terminator, so a short key whose
// heap bytes straddle a cache-line boundary arrives whole.
template <typename Key>
inline void PrefetchKey(const Key& key) {
  simd::PrefetchRead(key.data());
  simd::PrefetchRead(key.data() + key.size());
}

// The sequential batch loop over keys[0, n), writing out[0, n). Returns
// the sum of the exact bit lengths. Key is std::string (EncodeBatch) or
// std::string_view (EncodePair).
template <typename Key>
size_t EncodeRun(const Dictionary& dict, const Key* keys, size_t n,
                 std::string* out) {
  constexpr size_t kAhead = Encoder::kPrefetchAhead;
  size_t bits = 0;
  const size_t lookahead = dict.MaxLookahead();

  // Shared-prefix reuse (Appendix B) only ever fires when some adjacent
  // pair shares at least `lookahead` leading bytes. The prescan is a
  // bounded memcmp per pair (lookahead <= 4 for the gram dictionaries);
  // unbounded-lookahead dictionaries (ALM family) can never reuse.
  bool any_reuse = false;
  if (lookahead != std::numeric_limits<size_t>::max()) {
    for (size_t i = 1; i < n && !any_reuse; i++)
      any_reuse = simd::SharedPrefixAtLeast(keys[i - 1], keys[i], lookahead);
  }

  BitWriter writer;
  if (!any_reuse) {
    // No prefix to reuse: encode each key straight through the
    // devirtualized span, recycling one writer's buffer across keys.
    for (size_t i = 0; i < n; i++) {
      if (i + kAhead < n) PrefetchKey(keys[i + kAhead]);
      writer.Clear();
      dict.EncodeSpan(keys[i], 0, &writer, nullptr);
      writer.CopyBytesTo(&out[i]);
      bits += writer.total_bits();
    }
    return bits;
  }

  // The writer's state flows from key to key: after encoding key i-1 it
  // holds exactly that key's bits, so reusing a shared prefix is a rewind
  // (TruncateToBits) rather than a copy back out of the previous output.
  std::vector<EncodeTrace> trace;
  writer.ReserveBits(keys[0].size() * 8);
  for (size_t i = 0; i < n; i++) {
    if (i + kAhead < n) PrefetchKey(keys[i + kAhead]);
    const Key& key = keys[i];
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
    dict.EncodeSpan(key, resume, &writer, &trace);
    trace.push_back({static_cast<uint32_t>(key.size()),
                     static_cast<uint32_t>(writer.total_bits())});
    writer.CopyBytesTo(&out[i]);
    bits += writer.total_bits();
  }
  return bits;
}

}  // namespace

void Encoder::EncodeTo(std::string_view key, std::string* out,
                       size_t* bit_len) const {
  BitWriter writer;
  writer.Adopt(out);
  dict_->EncodeSpan(key, 0, &writer, nullptr);
  writer.PadInto(out);
  if (bit_len) *bit_len = writer.total_bits();
}

std::string Encoder::Encode(std::string_view key, size_t* bit_len) const {
  std::string out;
  EncodeTo(key, &out, bit_len);
  return out;
}

std::vector<std::string> Encoder::EncodeBatch(
    const std::vector<std::string>& keys, size_t* total_bits) const {
  // The size test comes first, so a batch below the threshold reads no
  // CPU count and starts no thread.
  size_t parts = 1;
  if (keys.size() >= 2 * kMinKeysPerThread) {
    parts = std::min({size_t{NumCpus()}, kMaxThreads,
                      keys.size() / kMinKeysPerThread});
  }
  return internal::EncodeBatchInParts(*this, keys, parts, total_bits);
}

std::pair<std::string, std::string> Encoder::EncodePair(
    std::string_view a, std::string_view b) const {
  const std::array<std::string_view, 2> keys{a, b};
  std::array<std::string, 2> out;
  EncodeRun(*dict_, keys.data(), keys.size(), out.data());
  return {std::move(out[0]), std::move(out[1])};
}

namespace internal {

std::vector<std::string> EncodeBatchInParts(
    const Encoder& encoder, const std::vector<std::string>& keys,
    size_t parts, size_t* total_bits) {
  const Dictionary& dict = encoder.dict();
  const size_t n = keys.size();
  parts = std::min(parts, Encoder::kMaxThreads);
  std::vector<std::string> out(n);
  if (parts <= 1) {
    const size_t bits = EncodeRun(dict, keys.data(), n, out.data());
    if (total_bits) *total_bits = bits;
    return out;
  }

  // Part p is keys [n*p/parts, n*(p+1)/parts). Each part writes only its
  // own out slots and reads the dictionary, which nothing mutates, so the
  // parts share no written state. A part's failure is carried back here
  // and rethrown only after every thread has joined.
  std::vector<size_t> bits(parts, 0);
  std::vector<std::exception_ptr> errors(parts);
  auto encode_part = [&](size_t p) {
    const size_t begin = n * p / parts;
    const size_t end = n * (p + 1) / parts;
    try {
      bits[p] = EncodeRun(dict, keys.data() + begin, end - begin,
                          out.data() + begin);
    } catch (...) {
      errors[p] = std::current_exception();
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(parts - 1);
  for (size_t p = 1; p < parts; p++) {
    // A thread that cannot be started costs only parallelism: its part
    // runs here instead.
    try {
      threads.emplace_back(encode_part, p);
    } catch (...) {
      encode_part(p);
    }
  }
  encode_part(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  size_t sum = 0;
  for (size_t b : bits) sum += b;
  if (total_bits) *total_bits = sum;
  return out;
}

}  // namespace internal

}  // namespace hope
