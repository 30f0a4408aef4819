// Adaptive Radix Tree (Leis et al., ICDE'13) as used in the paper's
// evaluation (§5): adaptive node sizes (Node4/16/48/256), *optimistic*
// path compression (a node stores its prefix length but only the first 8
// prefix bytes; lookups skip the rest and verify against the full key
// stored with the tuple), and single-value leaves holding a reference to
// the tuple key ("the DBMS verifies the match when it retrieves the
// tuple"). MemoryBytes() counts index structures only — nodes and
// leaves — not tuple key bytes, mirroring the paper's accounting (ART
// "only stores partial keys", Fig. 7).
//
// Memory. Nodes, leaves and the tuple key bytes all come from the tree's
// Arena (common/arena.h): a node that grows or shrinks moves to a block
// of its new size class and its old block goes on a free list, an erased
// leaf's block is reused by the next insert, and key bytes are
// append-only. Destroying the tree frees the arena's chunks, with no walk
// over the nodes.
//
// Prefix keys (a key that is a strict prefix of another) are supported
// via a per-node terminator leaf instead of key padding, so arbitrary
// byte strings — including HOPE-encoded keys with embedded zeros — are
// safe.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"

namespace hope {

class Art {
 public:
  Art() = default;

  Art(const Art&) = delete;
  Art& operator=(const Art&) = delete;

  /// Inserts a key/value pair; overwrites the value if the key exists.
  /// The key is copied into the tree's arena (simulating the record the
  /// index points at).
  void Insert(std::string_view key, uint64_t value);

  bool Lookup(std::string_view key, uint64_t* value) const;

  /// Removes a key. Returns false if the key was absent. Nodes left with
  /// a single entry are collapsed back into their parent path and
  /// oversized nodes shrink to the next size class.
  bool Erase(std::string_view key);

  /// Scans up to `count` entries starting at the first key >= start, in
  /// key order. Returns the number of entries produced.
  size_t Scan(std::string_view start, size_t count,
              std::vector<uint64_t>* out) const;

  size_t size() const { return size_; }

  /// Index memory: nodes + leaves (tuple keys excluded).
  size_t MemoryBytes() const { return memory_; }

  /// Average number of node levels above a leaf (trie height statistic).
  double AverageLeafDepth() const;

  /// Validates trie invariants ("" when consistent). Test hook.
  std::string CheckInvariants() const;

 // Node layout types are public so the implementation file's free
  // helper functions (node ops shared with Grow/AddChild) can use them;
  // they are not part of the supported API.
  struct Node;
  struct Leaf;

  /// Children are tagged pointers: bit 0 set = Leaf, clear = Node.
  using Child = void*;

 private:

  static bool IsLeaf(Child c) {
    return (reinterpret_cast<uintptr_t>(c) & 1) != 0;
  }
  static Leaf* AsLeaf(Child c) {
    return reinterpret_cast<Leaf*>(reinterpret_cast<uintptr_t>(c) & ~uintptr_t{1});
  }
  static Node* AsNode(Child c) { return reinterpret_cast<Node*>(c); }
  static Child TagLeaf(Leaf* l) {
    return reinterpret_cast<Child>(reinterpret_cast<uintptr_t>(l) | 1);
  }

  Leaf* NewLeaf(std::string_view key, uint64_t value);
  void FreeLeaf(Leaf* leaf);

  void InsertIntoSlot(Child* slot, std::string_view key, uint64_t value,
                      size_t depth);
  bool EraseFromSlot(Child* slot, std::string_view key, size_t depth);
  void CollapseIfNeeded(Child* slot, size_t depth);
  const Leaf* MinLeaf(Child c) const;
  size_t EmitAll(Child c, size_t count, size_t produced,
                 std::vector<uint64_t>* out) const;
  size_t EmitGE(Child c, std::string_view start, size_t depth, size_t count,
                size_t produced, std::vector<uint64_t>* out) const;
  std::string CheckChild(Child c, std::string* path) const;
  void DepthStats(Child c, size_t depth, size_t* total, size_t* leaves) const;

  Arena arena_;  // nodes, leaves and tuple key bytes
  Child root_ = nullptr;
  size_t size_ = 0;
  size_t memory_ = 0;
};

}  // namespace hope
