// SuRF: Succinct Range Filter (Zhang et al., SIGMOD'18), §5 of the HOPE
// paper. A static, succinct trie built from sorted keys that answers
// approximate membership queries for points and ranges with no false
// negatives.
//
// This implementation uses the LOUDS-Sparse encoding for all levels:
// per-label arrays (label, has-child bit, LOUDS bit) over rank/select
// bit-vectors. Keys are truncated at their shortest unique prefix; an
// optional per-leaf suffix (Real8: the next key byte, or Hash8: an 8-bit
// key hash) trades memory for a lower false-positive rate (Fig. 11).
//
// Deviation from the original: labels are 16-bit with value 0 reserved as
// the key terminator, so arbitrary byte strings — including HOPE-encoded
// keys with embedded 0x00 — are handled without the original's
// no-NUL-in-keys assumption. HOPE's codes can put a 0x00 byte anywhere in
// an encoded key, so no byte value is free to mark a key's end; the cost
// is a second label byte, charged alike to raw and encoded keys.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitvector.h"

namespace hope {

enum class SurfSuffix : uint8_t {
  kNone,   ///< no suffix bits (smallest, highest FPR)
  kHash8,  ///< 8-bit hash of the full key (point queries only)
  kReal8,  ///< the 8 key bits following the stored prefix (ordered)
};

class Surf {
 public:
  /// Builds from sorted, de-duplicated keys.
  explicit Surf(const std::vector<std::string>& sorted_keys,
                SurfSuffix suffix = SurfSuffix::kNone);

  /// Approximate membership: false means definitely absent.
  bool MayContain(std::string_view key) const;

  /// Approximate range emptiness for [start, end] (closed range): false
  /// means no key in the range; true may be a false positive.
  bool MayContainRange(std::string_view start, std::string_view end) const;

  size_t num_keys() const { return num_keys_; }

  size_t MemoryBytes() const;

  /// Average trie depth of the leaves (levels), Fig. 10 bottom row.
  double AverageLeafDepth() const {
    return num_keys_ == 0 ? 0
                          : static_cast<double>(total_leaf_depth_) /
                                static_cast<double>(num_keys_);
  }

  SurfSuffix suffix_type() const { return suffix_; }

 private:
  static constexpr uint16_t kTerminator = 0;

  static uint16_t ToLabel(uint8_t byte) {
    return static_cast<uint16_t>(byte) + 1;
  }

  /// Label index range [begin, end) of a node.
  void NodeRange(size_t node, size_t* begin, size_t* end) const;
  /// Child node id for the has-child label at position pos.
  size_t ChildNode(size_t pos) const;
  /// Leaf id (suffix index) for the leaf label at position pos.
  size_t LeafId(size_t pos) const;

  static uint8_t HashSuffix(std::string_view key);
  uint8_t RealSuffix(std::string_view key, size_t next) const;
  bool CheckLeafSuffix(size_t pos, std::string_view key, size_t depth) const;

  /// Positions the iterator stack at the first leaf whose stored
  /// information is >= start; returns false if no such leaf.
  bool LowerBoundRec(size_t node, size_t depth, std::string_view start,
                     std::vector<uint32_t>* stack) const;
  void DescendMin(size_t pos, std::vector<uint32_t>* stack) const;
  /// Reconstructs the known bytes of the key at the iterator position.
  std::string ReconstructKey(const std::vector<uint32_t>& stack) const;

  std::vector<uint16_t> labels_;
  BitVector has_child_;
  BitVector louds_;
  std::vector<uint8_t> suffixes_;  // per leaf, empty when kNone
  SurfSuffix suffix_;
  size_t num_keys_ = 0;
  size_t total_leaf_depth_ = 0;
};

}  // namespace hope
