// In-memory B+tree with out-of-node string keys (the paper's TLX/STX
// configuration, §5): 16-slot nodes storing 4-byte key offsets and
// 8-byte value/child pointers, leaf chaining for range scans.
// MemoryBytes() counts nodes plus key bytes, since the index stores the
// keys (Fig. 7: B+trees store full keys and benefit most from key
// compression).
//
// Key layout. All keys sit in one contiguous buffer per tree, each as a
// 1-byte length and then its bytes; a key of 255 bytes or more has the
// escape 0xFF and an 8-byte length instead. A key slot is the key's
// 32-bit offset in that buffer, so a 208-byte node holds 16 keys and 16
// values or 17 children. A comparison reads base + offset, with the base
// loaded once per search, and finds length and bytes on the same cache
// line. A search prefetches every key a node references before it
// bisects the node, so the dependent misses overlap.
//
// Growth. The buffer is one anonymous mapping that grows by half, in
// place or moved by mremap, so growth copies no key bytes; from 8 MiB on
// it grows in whole 2 MiB pages and asks for transparent huge pages. An
// Intern may move the buffer: no view of a key lives across one. A tree
// whose key bytes would pass 4 GiB, the reach of an offset, throws
// std::length_error and stays unchanged. Nodes come from the tree's
// Arena (common/arena.h).
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

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Inserts a key/value pair; overwrites the value if the key exists.
  /// Throws std::length_error if a new key would take the key buffer
  /// past 4 GiB.
  void Insert(std::string_view key, uint64_t value);

  /// Point lookup.
  bool Lookup(std::string_view key, uint64_t* value) const;

  /// Removes a key with classic borrow/merge rebalancing (the fill rule
  /// above holds, the tree shrinks when the root empties). Returns
  /// false if the key was absent. Note: the erased key's bytes stay in
  /// the append-only key buffer and in MemoryBytes(); a delete-heavy
  /// long-lived index would pair this with compaction.
  bool Erase(std::string_view key);

  /// Scans up to `count` entries starting at the first key >= start.
  /// Returns the number of entries produced.
  size_t Scan(std::string_view start, size_t count,
              std::vector<uint64_t>* out) const;

  size_t size() const { return size_; }

  /// Node bytes (208 per node) plus the key buffer's used bytes: every
  /// key ever interned, erased ones included (the buffer is
  /// append-only), with its 1- or 9-byte length. The buffer's unused
  /// capacity and the arena's chunk slack are not counted.
  size_t MemoryBytes() const;

  /// Bytes the key buffer has mapped, used or not. Test hook: it changes
  /// exactly when the buffer grows.
  size_t KeyCapacity() const { return keys_.capacity(); }

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

  // A key's offset in keys_.
  using KeyOffset = uint32_t;

  struct InnerNode : Node {
    // children[i] holds keys < keys[i]; children[count] holds the rest.
    KeyOffset keys[kSlots];
    Node* children[kSlots + 1];
  };

  struct LeafNode : Node {
    KeyOffset keys[kSlots];
    uint64_t values[kSlots];
    LeafNode* next = nullptr;
  };

  // Bytes/key rests on these: a new field must not grow them unnoticed.
  static_assert(sizeof(InnerNode) == 208);
  static_assert(sizeof(LeafNode) == 208);

  struct SplitResult {
    Node* right = nullptr;    // nullptr if no split happened
    KeyOffset separator = 0;  // smallest key in `right`
  };

  // The key buffer of the layout above: one anonymous mapping, grown by
  // mremap.
  class KeyBuffer {
   public:
    KeyBuffer() = default;
    ~KeyBuffer();
    KeyBuffer(const KeyBuffer&) = delete;
    KeyBuffer& operator=(const KeyBuffer&) = delete;

    /// Appends `key` after its length; may move the buffer.
    KeyOffset Intern(std::string_view key);
    const char* base() const { return base_; }
    size_t size() const { return size_; }
    size_t capacity() const { return capacity_; }

   private:
    void Grow(size_t need);

    char* base_ = nullptr;
    size_t size_ = 0;
    size_t capacity_ = 0;
  };

  static constexpr int kMinFill = kSlots / 2;

  LeafNode* NewLeaf();
  InnerNode* NewInner();
  void FreeNode(Node* node);
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
  std::string CheckRec(const Node* node, const KeyOffset* lo,
                       const KeyOffset* hi, int depth, int expect_depth,
                       bool spine,
                       std::vector<const LeafNode*>* leaves) const;

  Node* root_ = nullptr;
  LeafNode* rightmost_ = nullptr;  // last leaf of the chain; the append target
  Arena arena_;     // nodes
  KeyBuffer keys_;  // key lengths and bytes
  size_t size_ = 0;
  size_t node_bytes_ = 0;
};

}  // namespace hope
