// Dictionary data structures (§4.2): map an interval (via its left
// boundary) to a code. A lookup is a "greater than or equal to" query:
// find the entry whose interval contains the source string, i.e. the last
// boundary <= src. Completeness guarantees every lookup succeeds and
// consumes at least one byte.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hope/bit_writer.h"
#include "hope/interval.h"

namespace hope {

/// One lookup step boundary recorded by EncodeSpan: the source position
/// where a lookup started and the writer's bit position before its code
/// was appended. The encoder's batch shared-prefix reuse (Appendix B)
/// consumes these; no trailing sentinel is recorded — the encoder appends
/// its own (key_len, total_bits) entry.
struct EncodeTrace {
  uint32_t src_pos;
  uint32_t bit_pos;
};

/// Abstract dictionary. Implementations: array (Single-/Double-Char),
/// bitmap-trie (3-/4-Grams), ART-based (ALM, ALM-Improved), and a
/// binary-search baseline used for ablation.
class Dictionary {
 public:
  virtual ~Dictionary() = default;

  /// Finds the entry whose interval contains `src` (non-empty) and returns
  /// its code and the number of bytes consumed (the symbol length).
  virtual LookupResult Lookup(std::string_view src) const = 0;

  virtual size_t NumEntries() const = 0;

  /// Approximate heap size of the structure in bytes.
  virtual size_t MemoryBytes() const = 0;

  /// How many leading bytes of `src` a lookup may inspect; used by batch
  /// encoding to find a safe aligned prefix. Unbounded (ALM) returns
  /// SIZE_MAX, which disables batching.
  virtual size_t MaxLookahead() const = 0;

  virtual const char* Name() const = 0;

  /// Encodes src[base..) into `writer` — the devirtualized per-key hot
  /// path: one virtual call per key instead of one per symbol. If `trace`
  /// is non-null, appends one EncodeTrace per lookup (absolute positions).
  /// The default implementation is the Lookup loop; concrete dictionaries
  /// override it to keep the whole descent inside one type. Output must be
  /// byte-identical to the Lookup loop for every implementation (pinned by
  /// simd_equivalence_test).
  virtual void EncodeSpan(std::string_view src, size_t base, BitWriter* writer,
                          std::vector<EncodeTrace>* trace) const;
};

/// Factory functions. `entries` must be sorted by left bound, with the
/// first bound == "" (complete dictionary).
std::unique_ptr<Dictionary> MakeBinarySearchDict(
    std::vector<DictEntry> entries);
/// `chars` is 1 (Single-Char, 256 entries) or 2 (Double-Char, 256*257).
std::unique_ptr<Dictionary> MakeArrayDict(const std::vector<DictEntry>& entries,
                                          int chars);
/// `n` is the gram length (3 or 4); boundaries must be at most n bytes.
std::unique_ptr<Dictionary> MakeBitmapTrieDict(
    const std::vector<DictEntry>& entries, int n);
/// Arbitrary-length boundaries (ALM family).
std::unique_ptr<Dictionary> MakeArtDict(const std::vector<DictEntry>& entries);

}  // namespace hope
