// Public facade of the High-speed Order-Preserving Encoder.
//
// Typical use:
//
//   std::vector<std::string> samples = ...;   // ~1% of the keys
//   auto hope = hope::Hope::Build(hope::Scheme::kDoubleChar, samples);
//   std::string enc = hope->Encode(key);      // order-preserving
//
// Encoded keys compare in the same order as the originals (§3.1), and any
// key — sampled or not — can be encoded thanks to dictionary completeness.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hope/decoder.h"
#include "hope/dictionary.h"
#include "hope/encoder.h"

namespace hope {

/// The six compression schemes of §3.3.
enum class Scheme {
  kSingleChar,   ///< FIVC: per-byte intervals, Hu-Tucker codes
  kDoubleChar,   ///< FIVC: per-byte-pair intervals, Hu-Tucker codes
  kAlm,          ///< VIFC: ALM intervals, fixed-length codes
  kThreeGrams,   ///< VIVC: 3-gram intervals, Hu-Tucker codes
  kFourGrams,    ///< VIVC: 4-gram intervals, Hu-Tucker codes
  kAlmImproved,  ///< VIVC: suffix-statistics ALM, Hu-Tucker codes
};

const char* SchemeName(Scheme scheme);

/// Dictionary structure override (Table 1 defaults apply when kDefault).
enum class DictImpl {
  kDefault,
  kBinarySearch,  ///< sorted-array baseline (ablation)
  kArray,
  kBitmapTrie,
  kArt,
};

/// Per-module build-time breakdown (Fig. 9).
struct BuildStats {
  double symbol_select_seconds = 0;
  double code_assign_seconds = 0;
  double dict_build_seconds = 0;
  size_t num_entries = 0;
  size_t dict_memory_bytes = 0;

  double TotalSeconds() const {
    return symbol_select_seconds + code_assign_seconds + dict_build_seconds;
  }
};

/// A built HOPE instance: a dictionary plus an encoder (and a decoder for
/// losslessness checks / covering reads).
class Hope {
 public:
  /// Builds the dictionary from sampled keys (the build phase, §4.1).
  /// `dict_size_limit` bounds the number of dictionary entries for the
  /// variable-interval schemes; Single-/Double-Char are fixed-size.
  static std::unique_ptr<Hope> Build(Scheme scheme,
                                     const std::vector<std::string>& samples,
                                     size_t dict_size_limit = size_t{1} << 16,
                                     BuildStats* stats = nullptr,
                                     DictImpl impl = DictImpl::kDefault);

  /// Encodes one key into a new string, the code bit string zero-padded
  /// to a byte boundary; `bit_len` (optional) receives the exact bit
  /// length.
  std::string Encode(std::string_view key, size_t* bit_len = nullptr) const {
    return encoder_->Encode(key, bit_len);
  }

  /// Encode into caller-owned storage: `*out` ends up holding exactly the
  /// padded encoding, written into out's own buffer, so a string reused
  /// across calls makes no heap allocation once its capacity covers the
  /// encoding. `out` must not alias `key`. See Encoder::EncodeTo.
  void EncodeTo(std::string_view key, std::string* out,
                size_t* bit_len = nullptr) const {
    encoder_->EncodeTo(key, out, bit_len);
  }

  /// Encodes sorted keys with shared-prefix reuse (Appendix B); output is
  /// byte-identical to Encode on each key. A batch of at least
  /// 2 * Encoder::kMinKeysPerThread keys is split into contiguous ranges
  /// encoded in parallel, one per CPU the process may use (at most
  /// Encoder::kMaxThreads); a smaller one starts no thread. See
  /// Encoder::EncodeBatch.
  std::vector<std::string> EncodeBatch(const std::vector<std::string>& keys,
                                       size_t* total_bits = nullptr) const {
    return encoder_->EncodeBatch(keys, total_bits);
  }

  std::pair<std::string, std::string> EncodePair(std::string_view a,
                                                 std::string_view b) const {
    return encoder_->EncodePair(a, b);
  }

  /// Reconstructs a key from its encoding and exact bit length.
  std::string Decode(std::string_view bytes, size_t bit_len) const {
    return decoder_->Decode(bytes, bit_len);
  }

  const Dictionary& dict() const { return encoder_->dict(); }
  const Encoder& encoder() const { return *encoder_; }
  Scheme scheme() const { return scheme_; }

  /// Uncompressed bytes / compressed bytes over a key set (§6.1).
  double CompressionRate(const std::vector<std::string>& keys) const;

  /// Serializes the scheme and dictionary entries into a portable byte
  /// string, so the (possibly expensive) build phase runs once and the
  /// encoder can be reloaded with Deserialize(). The serialized
  /// dictionary reproduces the exact same encodings.
  std::string Serialize() const;

  /// Rebuilds an encoder from Serialize() output. Returns nullptr on a
  /// malformed input.
  static std::unique_ptr<Hope> Deserialize(std::string_view bytes);

  /// Independent copy over the same dictionary entries (identical
  /// encodings), for a caller that needs to own or publish its own
  /// instance.
  std::unique_ptr<Hope> Clone() const;

 private:
  Hope(Scheme scheme, std::unique_ptr<Encoder> encoder,
       std::unique_ptr<Decoder> decoder, std::vector<DictEntry> entries)
      : scheme_(scheme),
        encoder_(std::move(encoder)),
        decoder_(std::move(decoder)),
        entries_(std::move(entries)) {}

  static std::unique_ptr<Hope> FromEntries(Scheme scheme,
                                           std::vector<DictEntry> entries,
                                           DictImpl impl, BuildStats* stats);

  Scheme scheme_;
  std::unique_ptr<Encoder> encoder_;
  std::unique_ptr<Decoder> decoder_;
  std::vector<DictEntry> entries_;  ///< retained for Serialize()
};

/// Exposed for tests and benchmarks: runs only the symbol-selection and
/// code-assignment phases, returning finalized entries.
std::vector<DictEntry> BuildDictEntries(
    Scheme scheme, const std::vector<std::string>& samples,
    size_t dict_size_limit, BuildStats* stats = nullptr);

}  // namespace hope
