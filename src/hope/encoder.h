// The Encoder (§4.2): repeatedly looks the remaining source string up in
// the dictionary, concatenates the returned codes into 64-bit buffers,
// and emits the zero-padded byte string. Includes the batch-encoding
// optimization for sorted key runs (Appendix B): the shared prefix of
// consecutive keys is encoded once when the dictionary's lookahead allows
// proving the lookups are identical.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hope/bit_writer.h"
#include "hope/dictionary.h"

namespace hope {

/// Stateless encoder over a dictionary.
class Encoder {
 public:
  explicit Encoder(std::unique_ptr<Dictionary> dict)
      : dict_(std::move(dict)) {}

  /// Encodes one key into caller-owned storage. Afterwards `*out` holds
  /// exactly the code bit string zero-padded to a byte boundary, whatever
  /// it held before, and `bit_len` (optional) receives the exact bit
  /// length. The bytes are written into out's own buffer, so a string
  /// reused across calls makes no heap allocation once its capacity
  /// covers the encoding. `out` must not alias `key`: its old contents
  /// are gone before the first code is written.
  void EncodeTo(std::string_view key, std::string* out,
                size_t* bit_len = nullptr) const;

  /// Encodes one key into a new string: EncodeTo on an empty one.
  std::string Encode(std::string_view key, size_t* bit_len = nullptr) const;

  /// Encodes a sorted run of keys, skipping re-encoding of shared
  /// prefixes where the dictionary's bounded lookahead proves the lookups
  /// identical (Appendix B). Runs without reusable prefixes (including
  /// the unbounded-lookahead ALM family) encode key by key. Every key's
  /// output is byte-identical to Encode; `total_bits` (optional) receives
  /// the sum of the exact bit lengths.
  ///
  /// Set-up calls this on a whole sorted key vector, and that pass is
  /// bound by memory, not by the dictionary: sorting a vector<string>
  /// moves the headers but leaves each key's heap bytes where they were
  /// allocated, so key i's bytes are a cache and TLB miss at an address
  /// unrelated to key i-1's. Both loops therefore prefetch the bytes of
  /// the key kPrefetchAhead positions on, so those misses overlap instead
  /// of forming a chain.
  ///
  /// A batch of at least 2 * kMinKeysPerThread keys is also cut into
  /// contiguous ranges, one per CPU the process may run on (NumCpus()),
  /// at most kMaxThreads and at least kMinKeysPerThread keys each. The
  /// calling thread encodes the first range and one new thread each of
  /// the others; a range whose thread cannot start is encoded on the
  /// calling thread. Prefix reuse restarts at each range's first key, so
  /// the output and `total_bits` are the same bytes whatever the split.
  /// A smaller batch reads no CPU count and starts no thread.
  std::vector<std::string> EncodeBatch(const std::vector<std::string>& keys,
                                       size_t* total_bits = nullptr) const;

  /// Pair encoding for closed-range queries (batch of two).
  std::pair<std::string, std::string> EncodePair(std::string_view a,
                                                 std::string_view b) const;

  const Dictionary& dict() const { return *dict_; }

  /// How many keys ahead of the one being encoded EncodeBatch prefetches.
  static constexpr size_t kPrefetchAhead = 16;
  /// Fewest keys EncodeBatch hands to one thread: below this a thread's
  /// start-up cost is a visible share of its work.
  static constexpr size_t kMinKeysPerThread = size_t{1} << 14;
  /// Most threads (the caller included) one EncodeBatch uses.
  static constexpr size_t kMaxThreads = 8;

 private:
  std::unique_ptr<Dictionary> dict_;
};

namespace internal {

/// EncodeBatch with the split forced to `parts` contiguous ranges, capped
/// at Encoder::kMaxThreads (0 or 1: one range on the calling thread), for
/// tests and benches that pin the split. Not part of the public API:
/// callers use EncodeBatch.
std::vector<std::string> EncodeBatchInParts(
    const Encoder& encoder, const std::vector<std::string>& keys,
    size_t parts, size_t* total_bits = nullptr);

}  // namespace internal

}  // namespace hope
