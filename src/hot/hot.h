// Simplified Height-Optimized Trie (after Binna et al., SIGMOD'18).
//
// The original HOT is a SIMD-heavy engineering artifact; what the paper's
// evaluation depends on is its *behavior*: HOT stores only discriminative
// partial keys (the minimum information needed to route to a candidate
// tuple, verified against the full key afterwards), giving it very low
// height and small memory — and therefore the *least* benefit from key
// compression (Fig. 7). This reimplementation captures exactly that: a
// byte-level discriminative Patricia trie. Each node stores one
// discriminating byte offset and its sorted, exact-fit edges (fanout up
// to 257: 256 byte values plus end-of-key); non-discriminative bytes are
// skipped entirely, never stored. Leaves hold a reference to the tuple
// key plus the value; lookups verify against the tuple like HOT's final
// full-key check. It substitutes byte-level discriminators for HOT's
// bit-level ones and its SIMD partial-key search: the height and the
// bytes per key, which Fig. 7 compares, keep HOT's shape, while absolute
// lookup speed is not HOT's.
//
// Node layout. A node is one block: a 6-byte header (offset, count),
// then the `count` edge bytes as int16_t (-1 for end-of-key, else
// 0..255, sorted), padded to 4 bytes, then the `count` children as
// 32-bit arena block references (BlockRef, bit 0 set for a leaf), so
// NodeBytes(c) = round8(round4(6 + 2c) + 4c): 24 bytes for two or three
// edges, 32 for four, where 8-byte child pointers took 32 and 48. A
// search reads the header and the edge bytes, which for up to 29 edges
// share the node's first 64 bytes, then the one child it takes. A leaf
// is 16 bytes: the tuple key's KeyRef and the value. References reach
// about 16 GiB of arena per tree; once the arena is that full, Insert
// and Erase throw std::length_error and leave the tree unchanged.
//
// Memory. Nodes, leaves and the tuple key bytes all come from the tree's
// Arena (common/arena.h): a node that gains or loses an edge moves to a
// block of its new size and its old block goes on a free list, an erased
// leaf's block is reused by the next insert, and key bytes are
// append-only. Destroying the tree frees the arena's chunks, with no walk
// over the nodes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"

namespace hope {

class Hot {
 public:
  Hot() = default;

  Hot(const Hot&) = delete;
  Hot& operator=(const Hot&) = delete;

  /// Inserts a key/value pair; overwrites the value if the key exists.
  /// Throws std::length_error, changing nothing, when the arena is at
  /// its reference reach.
  void Insert(std::string_view key, uint64_t value);

  bool Lookup(std::string_view key, uint64_t* value) const;

  /// Removes a key. Returns false if absent. A node left with a single
  /// edge is replaced by its remaining child (the Patricia invariant is
  /// restored automatically). Throws like Insert.
  bool Erase(std::string_view key);

  /// Scans up to `count` entries starting at the first key >= start.
  size_t Scan(std::string_view start, size_t count,
              std::vector<uint64_t>* out) const;

  size_t size() const { return size_; }

  /// Index memory: nodes + leaves; tuple key bytes excluded (HOT stores
  /// only partial keys). Each node is charged kNodeCharge bytes beyond
  /// its block, for an allocator header the arena does not have:
  /// dropping that charge would move every reported bytes_per_key, so it
  /// waits for the accounting itself to be redefined.
  size_t MemoryBytes() const { return memory_; }

  /// Average number of node levels above a leaf.
  double AverageLeafDepth() const;

  /// Bytes of a node block with `count` edges: the header and the edge
  /// bytes rounded up to 4, then one 4-byte child reference per edge,
  /// rounded up to 8.
  static constexpr size_t NodeBytes(size_t count) {
    return (ChildrenOffset(count) + count * sizeof(Child) + 7) & ~size_t{7};
  }

  /// Validates Patricia invariants: strictly increasing offsets along
  /// every path, sorted children, and subtree byte agreement below each
  /// node's offset. Returns "" when consistent.
  std::string CheckInvariants() const;

 private:
  using Child = BlockRef;  // tagged: bit 0 set = Leaf; kNullRef = none

  static constexpr size_t kNodeCharge = 8;  // see MemoryBytes()

  struct Leaf {
    KeyRef key;  ///< the tuple key, in arena_
    uint64_t value;
  };

  /// One arena block of NodeBytes(count) bytes: this header, the sorted
  /// edge bytes, and at ChildrenOffset(count) the children in the same
  /// order.
  struct Node {
    uint32_t offset;  ///< discriminating byte position
    uint16_t count;
    int16_t bytes[];  // NOLINT: flexible array (GNU extension)

    Child* children() {
      return reinterpret_cast<Child*>(reinterpret_cast<char*>(this) +
                                      ChildrenOffset(count));
    }
    const Child* children() const {
      return const_cast<Node*>(this)->children();
    }
  };

  static constexpr size_t kHeaderBytes = 6;  // offsetof(Node, bytes)
  static constexpr size_t ChildrenOffset(size_t count) {
    return (kHeaderBytes + count * sizeof(int16_t) + 3) & ~size_t{3};
  }

  static bool IsLeaf(Child c) { return (c & 1) != 0; }
  Leaf* AsLeaf(Child c) const { return static_cast<Leaf*>(arena_.Deref(c)); }
  Node* AsNode(Child c) const { return static_cast<Node*>(arena_.Deref(c)); }

  /// Byte at `off` with end-of-key semantics: -1 when off >= key length
  /// (a prefix sorts before its extensions).
  static int ByteAt(std::string_view key, size_t off) {
    return off < key.size() ? static_cast<uint8_t>(key[off]) : -1;
  }

  /// A new node with `count` uninitialized edges; its reference goes to
  /// `*ref`.
  Node* AllocNode(uint32_t offset, uint16_t count, Child* ref);
  void FreeNode(Child ref);
  /// A new leaf, as a tagged child.
  Child NewLeaf(std::string_view key, uint64_t value);
  void FreeLeaf(Child leaf);
  /// Returns a new node with the edge (byte, child) inserted in sorted
  /// position; frees node `n`.
  Child WithEdge(Child n, int byte, Child child);
  /// Returns a new node without edge `pos`; frees node `n`.
  Child WithoutEdge(Child n, uint16_t pos);
  bool EraseRec(Child* slot, std::string_view key);

  /// Index of the first edge whose byte is >= `byte` (count if none).
  static uint16_t LowerBound(const Node* n, int byte);
  /// Index of the edge for `byte`, or -1.
  static int FindEdge(const Node* n, int byte);

  /// The child slots a descent took, for Insert's second phase.
  static constexpr size_t kMaxPath = 32;
  struct Path {
    size_t depth = 0;            ///< levels recorded (at most kMaxPath)
    uint32_t offset[kMaxPath];   ///< the offset of the node at each level
    Child* taken[kMaxPath];      ///< the child slot taken there
  };

  /// The leaf reached by taking, at each node, the key's edge or the
  /// nearest one; records the first kMaxPath levels in `*path`.
  Leaf* DescendBestEffort(std::string_view key, Path* path);
  const Leaf* MinLeaf(Child c) const;
  size_t EmitAll(Child c, size_t count, size_t produced,
                 std::vector<uint64_t>* out) const;
  size_t EmitGE(Child c, std::string_view start, size_t count,
                size_t produced, std::vector<uint64_t>* out) const;
  void DepthStats(Child c, size_t depth, size_t* total, size_t* leaves) const;
  std::string CheckRec(Child c, uint32_t min_offset) const;

  Arena arena_;  // nodes, leaves and tuple key bytes
  Child root_ = kNullRef;
  size_t size_ = 0;
  size_t memory_ = 0;
};

}  // namespace hope
