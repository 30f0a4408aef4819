// In-memory B+tree with out-of-node string keys (the paper's TLX/STX
// configuration, §5): 16-slot nodes storing 8-byte key references and
// 8-byte value/child pointers, leaf chaining for range scans.
// MemoryBytes() counts nodes plus key bytes, since the index stores the
// keys (Fig. 7: B+trees store full keys and benefit most from key
// compression).
//
// Key layout. Each key's bytes sit contiguously, with no header, in the
// tree's Arena (common/arena.h), and each 8-byte key slot is a tagged
// KeyRef, so a comparison reads a single run of bytes and the length
// costs no load. A search prefetches every key a node references before
// it bisects the node, so the dependent misses overlap.
//
// Split policy. Before an insert descends into a full leaf, the parent
// first shifts one of that leaf's entries into an adjacent sibling under
// it that has room (the B*-tree overflow rule): the left sibling takes
// the first entry, else the right sibling the last, and the separator
// between them moves to the new boundary. Only a leaf whose siblings are
// both full or missing splits, which keeps random-order loads ~83% full
// instead of ~70%. A full node that overflows splits in half (an inner
// node leaves kMinFill keys on each side), except on the right spine (the
// last child at every level) when the overflow is at the node's end. Then
// the old node stays full (an inner node gives up only its last key and
// child) and the new right node takes only the new key (a leaf) or the
// last child and the new one (an inner node), the rule PostgreSQL and
// SQLite use for rightmost pages; such an append never shifts. A sorted
// load therefore fills every leaf, and a key past the maximum goes
// straight into the rightmost leaf, without a descent, while that leaf
// has room.
//
// Fill rule. Every node except the root and the right spine holds at
// least kMinFill entries (keys); right-spine nodes may hold fewer, and
// Erase rebalances them like any other node once they drop below it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"

namespace hope {

class BTree {
 public:
  static constexpr int kSlots = 16;

  BTree() = default;
  ~BTree();

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts a key/value pair; overwrites the value if the key exists.
  void Insert(std::string_view key, uint64_t value);

  /// Point lookup.
  bool Lookup(std::string_view key, uint64_t* value) const;

  /// Removes a key with classic borrow/merge rebalancing (the fill rule
  /// above holds, the tree shrinks when the root empties). Returns
  /// false if the key was absent. Note: the erased key's bytes stay in
  /// the append-only arena and in MemoryBytes(); a delete-heavy
  /// long-lived index would pair this with arena compaction.
  bool Erase(std::string_view key);

  /// Scans up to `count` entries starting at the first key >= start.
  /// Returns the number of entries produced.
  size_t Scan(std::string_view start, size_t count,
              std::vector<uint64_t>* out) const;

  size_t size() const { return size_; }

  /// Node bytes plus the payload bytes of every key ever interned,
  /// erased ones included (the arena is append-only). Arena chunk slack
  /// and the length prefixes of escaped keys are not counted.
  size_t MemoryBytes() const;

  /// Tree height (levels), for diagnostics.
  int Height() const;

  /// Validates B+tree invariants: key ordering and separator bounds,
  /// uniform leaf depth, the fill rule above, and the leaf chain (walking
  /// `next` from the leftmost leaf visits every leaf once, in key order,
  /// and ends at the rightmost one). Returns an error description or ""
  /// if consistent. Test hook.
  std::string CheckInvariants() const;

 private:
  struct Node {
    bool leaf;
    uint16_t count = 0;
  };

  struct InnerNode : Node {
    // children[i] holds keys < keys[i]; children[count] holds the rest.
    KeyRef keys[kSlots];
    Node* children[kSlots + 1];
  };

  struct LeafNode : Node {
    KeyRef keys[kSlots];
    uint64_t values[kSlots];
    LeafNode* next = nullptr;
  };

  struct SplitResult {
    Node* right = nullptr;  // nullptr if no split happened
    KeyRef separator = 0;   // smallest key in `right`
  };

  static constexpr int kMinFill = kSlots / 2;

  KeyRef Intern(std::string_view key);
  // `spine`: node is the last child at every level above it.
  SplitResult InsertRec(Node* node, std::string_view key, uint64_t value,
                        bool spine);
  // Makes room in the full leaf parent->children[idx] by moving one entry
  // into an adjacent sibling with room. Returns false, moving nothing, if
  // the leaf is the append-split target for `key` or if both siblings are
  // full or missing.
  bool ShiftToSibling(InnerNode* parent, int idx, std::string_view key,
                      bool spine);
  bool EraseRec(Node* node, std::string_view key);
  void RebalanceChild(InnerNode* parent, int idx);
  const LeafNode* FindLeaf(std::string_view key) const;
  void FreeRec(Node* node);
  std::string CheckRec(const Node* node, const KeyRef* lo,
                       const KeyRef* hi, int depth, int expect_depth,
                       bool spine,
                       std::vector<const LeafNode*>* leaves) const;

  Node* root_ = nullptr;
  LeafNode* rightmost_ = nullptr;  // last leaf of the chain; the append target
  Arena arena_;  // key bytes
  size_t size_ = 0;
  size_t key_bytes_ = 0;
  size_t node_bytes_ = 0;
};

}  // namespace hope
