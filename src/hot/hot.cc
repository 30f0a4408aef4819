#include "hot/hot.h"

#include <cassert>
#include <cstddef>

namespace hope {

// The layout is pinned: a padding change fails the build here.
static_assert(Hot::NodeBytes(2) == 32);
static_assert(Hot::NodeBytes(3) == 40);
static_assert(Hot::NodeBytes(4) == 48);
static_assert(Hot::NodeBytes(5) == 56);
static_assert(Hot::NodeBytes(257) == 2576);

Hot::Node* Hot::AllocNode(uint32_t offset, uint16_t count) {
  static_assert(offsetof(Node, bytes) == kHeaderBytes);
  Node* n = static_cast<Node*>(arena_.AllocateBlock(NodeBytes(count)));
  n->offset = offset;
  n->count = count;
  memory_ += NodeBytes(count) + sizeof(void*);  // see MemoryBytes()
  return n;
}

void Hot::FreeNode(Node* n) {
  memory_ -= NodeBytes(n->count) + sizeof(void*);
  arena_.FreeBlock(n, NodeBytes(n->count));
}

Hot::Leaf* Hot::NewLeaf(std::string_view key, uint64_t value) {
  // Leaf first: in fresh arena space the key's bytes then follow it.
  auto* leaf = static_cast<Leaf*>(arena_.AllocateBlock(sizeof(Leaf)));
  *leaf = Leaf{arena_.Intern(key), value};
  memory_ += sizeof(Leaf);
  size_++;
  return leaf;
}

void Hot::FreeLeaf(Leaf* leaf) {
  arena_.FreeBlock(leaf, sizeof(Leaf));
  memory_ -= sizeof(Leaf);
  size_--;
}

Hot::Node* Hot::WithEdge(Node* n, int byte, Child child) {
  // One pass over both arrays: per-array std::copy calls cost more than
  // they move on nodes of a few edges.
  Node* bigger = AllocNode(n->offset, static_cast<uint16_t>(n->count + 1));
  const Child* from = n->children();
  Child* to = bigger->children();
  uint16_t i = 0;
  for (; i < n->count && n->bytes[i] < byte; i++) {
    bigger->bytes[i] = n->bytes[i];
    to[i] = from[i];
  }
  assert(i == n->count || n->bytes[i] != byte);
  bigger->bytes[i] = static_cast<int16_t>(byte);
  to[i] = child;
  for (; i < n->count; i++) {
    bigger->bytes[i + 1] = n->bytes[i];
    to[i + 1] = from[i];
  }
  FreeNode(n);
  return bigger;
}

uint16_t Hot::LowerBound(const Node* n, int byte) {
  // Binary search over the sorted edge bytes.
  uint16_t lo = 0, hi = n->count;
  while (lo < hi) {
    uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
    if (n->bytes[mid] < byte)
      lo = static_cast<uint16_t>(mid + 1);
    else
      hi = mid;
  }
  return lo;
}

int Hot::FindEdge(const Node* n, int byte) {
  uint16_t i = LowerBound(n, byte);
  return i < n->count && n->bytes[i] == byte ? i : -1;
}

const Hot::Leaf* Hot::DescendBestEffort(std::string_view key) const {
  // Any leaf below a node agrees with the key's path up to the node's
  // offset, so on a miss any edge gives a valid candidate. The nearest
  // one does: a sorted load then follows the rightmost path it just
  // built, which is still in cache.
  Child c = root_;
  while (!IsLeaf(c)) {
    const Node* n = AsNode(c);
    uint16_t i = LowerBound(n, ByteAt(key, n->offset));
    c = n->children()[i < n->count ? i : n->count - 1];
  }
  return AsLeaf(c);
}

const Hot::Leaf* Hot::MinLeaf(Child c) const {
  while (!IsLeaf(c)) c = AsNode(c)->children()[0];
  return AsLeaf(c);
}

void Hot::Insert(std::string_view key, uint64_t value) {
  if (!root_) {
    root_ = TagLeaf(NewLeaf(key, value));
    return;
  }
  // Phase 1: find a candidate leaf and the first discriminating offset.
  const Leaf* cand = DescendBestEffort(key);
  std::string_view ckey = KeyAt(cand->key);
  size_t o = 0;
  while (ByteAt(key, o) == ByteAt(ckey, o)) {
    if (o >= key.size() && o >= ckey.size()) {  // equal keys
      const_cast<Leaf*>(cand)->value = value;
      return;
    }
    o++;
  }
  int new_byte = ByteAt(key, o);
  int old_byte = ByteAt(ckey, o);

  // Phase 2: re-descend to the slot where offset o belongs. Every node on
  // the path with offset < o has an exact child for the key's byte
  // (because the subtree agrees with `ckey` below its offset and the key
  // agrees with `ckey` before o).
  Child* slot = &root_;
  while (!IsLeaf(*slot)) {
    Node* n = AsNode(*slot);
    if (n->offset >= o) break;
    int i = FindEdge(n, ByteAt(key, n->offset));
    assert(i >= 0 && "exact child must exist below the first diff offset");
    slot = &n->children()[i];
  }

  Leaf* leaf = NewLeaf(key, value);

  if (!IsLeaf(*slot) && AsNode(*slot)->offset == o) {
    // The discriminating position already exists: add a sibling edge.
    *slot = WithEdge(AsNode(*slot), new_byte, TagLeaf(leaf));
    return;
  }
  // Split: a new node discriminating at offset o, with the old subtree
  // and the new leaf as its two children.
  Node* n = AllocNode(static_cast<uint32_t>(o), 2);
  int old_pos = old_byte < new_byte ? 0 : 1;
  n->bytes[old_pos] = static_cast<int16_t>(old_byte);
  n->children()[old_pos] = *slot;
  n->bytes[1 - old_pos] = static_cast<int16_t>(new_byte);
  n->children()[1 - old_pos] = TagLeaf(leaf);
  *slot = n;
}

Hot::Node* Hot::WithoutEdge(Node* n, uint16_t pos) {
  Node* smaller = AllocNode(n->offset, static_cast<uint16_t>(n->count - 1));
  const Child* from = n->children();
  Child* to = smaller->children();
  for (uint16_t i = 0, j = 0; i < n->count; i++) {
    if (i == pos) continue;
    smaller->bytes[j] = n->bytes[i];
    to[j++] = from[i];
  }
  FreeNode(n);
  return smaller;
}

bool Hot::EraseRec(Child* slot, std::string_view key) {
  Child c = *slot;
  if (IsLeaf(c)) {
    Leaf* leaf = AsLeaf(c);
    if (KeyAt(leaf->key) != key) return false;
    FreeLeaf(leaf);
    *slot = nullptr;  // the caller unlinks the edge
    return true;
  }
  Node* n = AsNode(c);
  int i = FindEdge(n, ByteAt(key, n->offset));
  if (i < 0) return false;
  Child* child = &n->children()[i];
  if (!EraseRec(child, key)) return false;
  if (*child == nullptr) {
    Node* smaller = WithoutEdge(n, static_cast<uint16_t>(i));
    if (smaller->count == 1) {
      // Single remaining edge: the child subtree replaces this node
      // (offsets along the path stay strictly increasing).
      *slot = smaller->children()[0];
      FreeNode(smaller);
    } else {
      *slot = smaller;
    }
  }
  return true;
}

bool Hot::Erase(std::string_view key) {
  if (!root_) return false;
  return EraseRec(&root_, key);
}

bool Hot::Lookup(std::string_view key, uint64_t* value) const {
  if (!root_) return false;
  Child c = root_;
  while (!IsLeaf(c)) {
    const Node* n = AsNode(c);
    int i = FindEdge(n, ByteAt(key, n->offset));
    if (i < 0) return false;
    c = n->children()[i];
  }
  const Leaf* leaf = AsLeaf(c);
  if (KeyAt(leaf->key) != key) return false;  // full-key verification
  if (value) *value = leaf->value;
  return true;
}

size_t Hot::EmitAll(Child c, size_t count, size_t produced,
                    std::vector<uint64_t>* out) const {
  if (produced >= count) return produced;
  if (IsLeaf(c)) {
    if (out) out->push_back(AsLeaf(c)->value);
    return produced + 1;
  }
  const Node* n = AsNode(c);
  const Child* children = n->children();
  for (uint16_t i = 0; i < n->count; i++) {
    produced = EmitAll(children[i], count, produced, out);
    if (produced >= count) break;
  }
  return produced;
}

size_t Hot::EmitGE(Child c, std::string_view start, size_t count,
                   size_t produced, std::vector<uint64_t>* out) const {
  if (produced >= count) return produced;
  if (IsLeaf(c)) {
    const Leaf* leaf = AsLeaf(c);
    if (KeyAt(leaf->key) >= start) {
      if (out) out->push_back(leaf->value);
      produced++;
    }
    return produced;
  }
  const Node* n = AsNode(c);
  // All keys in this subtree share their bytes below n->offset (Patricia
  // invariant), so one representative decides the comparison up to there.
  std::string_view rep = KeyAt(MinLeaf(c)->key);
  for (size_t i = 0; i < n->offset; i++) {
    int sb = ByteAt(start, i);
    int rb = ByteAt(rep, i);
    if (sb < rb) return EmitAll(c, count, produced, out);
    if (sb > rb) return produced;  // whole subtree < start
  }
  int sb = ByteAt(start, n->offset);
  const Child* children = n->children();
  for (uint16_t i = 0; i < n->count; i++) {
    if (n->bytes[i] < sb) continue;
    if (n->bytes[i] == sb)
      produced = EmitGE(children[i], start, count, produced, out);
    else
      produced = EmitAll(children[i], count, produced, out);
    if (produced >= count) break;
  }
  return produced;
}

size_t Hot::Scan(std::string_view start, size_t count,
                 std::vector<uint64_t>* out) const {
  if (!root_) return 0;
  return EmitGE(root_, start, count, 0, out);
}

void Hot::DepthStats(Child c, size_t depth, size_t* total,
                     size_t* leaves) const {
  if (IsLeaf(c)) {
    *total += depth;
    *leaves += 1;
    return;
  }
  const Node* n = AsNode(c);
  for (uint16_t i = 0; i < n->count; i++)
    DepthStats(n->children()[i], depth + 1, total, leaves);
}

double Hot::AverageLeafDepth() const {
  if (!root_) return 0;
  size_t total = 0, leaves = 0;
  DepthStats(root_, 0, &total, &leaves);
  return leaves == 0 ? 0 : static_cast<double>(total) /
                               static_cast<double>(leaves);
}

std::string Hot::CheckRec(Child c, uint32_t min_offset) const {
  if (IsLeaf(c)) return "";
  const Node* n = AsNode(c);
  if (n->count < 2) return "node with fewer than two children";
  for (uint16_t i = 0; i + 1 < n->count; i++)
    if (!(n->bytes[i] < n->bytes[i + 1])) return "children out of order";
  if (min_offset > 0 && n->offset < min_offset)
    return "offsets not increasing along path";
  // Subtree agreement: every child subtree's min leaf must agree with the
  // node's min leaf on all bytes below n->offset, and carry the edge byte
  // at n->offset.
  std::string_view rep = KeyAt(MinLeaf(c)->key);
  for (uint16_t i = 0; i < n->count; i++) {
    Child child = n->children()[i];
    std::string_view ck = KeyAt(MinLeaf(child)->key);
    for (size_t j = 0; j < n->offset; j++)
      if (ByteAt(ck, j) != ByteAt(rep, j))
        return "subtree bytes disagree below discriminating offset";
    if (ByteAt(ck, n->offset) != n->bytes[i])
      return "edge byte does not match subtree keys";
    std::string err = CheckRec(child, n->offset + 1);
    if (!err.empty()) return err;
  }
  return "";
}

std::string Hot::CheckInvariants() const {
  if (!root_) return "";
  return CheckRec(root_, 0);
}

}  // namespace hope
