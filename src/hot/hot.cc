#include "hot/hot.h"

#include <cassert>
#include <cstddef>

namespace hope {

namespace {
// Chunks an Insert or Erase may open: a leaf, its key bytes and a node.
constexpr size_t kMaxNewChunksPerUpdate = 3;
}  // namespace

// The layout is pinned: a padding change fails the build here.
static_assert(Hot::NodeBytes(2) == 24);
static_assert(Hot::NodeBytes(3) == 24);
static_assert(Hot::NodeBytes(4) == 32);
static_assert(Hot::NodeBytes(5) == 40);
static_assert(Hot::NodeBytes(257) == 1552);

Hot::Node* Hot::AllocNode(uint32_t offset, uint16_t count, Child* ref) {
  static_assert(offsetof(Node, bytes) == kHeaderBytes);
  *ref = arena_.AllocateRef(NodeBytes(count));
  Node* n = AsNode(*ref);
  n->offset = offset;
  n->count = count;
  memory_ += NodeBytes(count) + kNodeCharge;
  return n;
}

void Hot::FreeNode(Child ref) {
  size_t bytes = NodeBytes(AsNode(ref)->count);
  memory_ -= bytes + kNodeCharge;
  arena_.FreeRef(ref, bytes);
}

Hot::Child Hot::NewLeaf(std::string_view key, uint64_t value) {
  // Leaf first: in fresh arena space the key's bytes then follow it.
  BlockRef ref = arena_.AllocateRef(sizeof(Leaf));
  *AsLeaf(ref) = Leaf{arena_.Intern(key), value};
  memory_ += sizeof(Leaf);
  size_++;
  return ref | 1;
}

void Hot::FreeLeaf(Child leaf) {
  arena_.FreeRef(leaf & ~Child{1}, sizeof(Leaf));
  memory_ -= sizeof(Leaf);
  size_--;
}

Hot::Child Hot::WithEdge(Child old, int byte, Child child) {
  // One pass over both arrays: per-array std::copy calls cost more than
  // they move on nodes of a few edges.
  const Node* n = AsNode(old);
  Child ref;
  Node* bigger =
      AllocNode(n->offset, static_cast<uint16_t>(n->count + 1), &ref);
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
  FreeNode(old);
  return ref;
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

Hot::Leaf* Hot::DescendBestEffort(std::string_view key, Path* path) {
  // Any leaf below a node agrees with the key's path up to the node's
  // offset, so on a miss any edge gives a valid candidate. The nearest
  // one does: a sorted load then follows the rightmost path it just
  // built, which is still in cache.
  Child c = root_;
  while (!IsLeaf(c)) {
    Node* n = AsNode(c);
    uint16_t i = LowerBound(n, ByteAt(key, n->offset));
    Child* slot = &n->children()[i < n->count ? i : n->count - 1];
    if (path->depth < kMaxPath) {
      path->offset[path->depth] = n->offset;
      path->taken[path->depth++] = slot;
    }
    c = *slot;
  }
  return AsLeaf(c);
}

const Hot::Leaf* Hot::MinLeaf(Child c) const {
  while (!IsLeaf(c)) c = AsNode(c)->children()[0];
  return AsLeaf(c);
}

void Hot::Insert(std::string_view key, uint64_t value) {
  arena_.EnsureRefReach(kMaxNewChunksPerUpdate);
  if (root_ == kNullRef) {
    root_ = NewLeaf(key, value);
    return;
  }
  // Phase 1: find a candidate leaf and the first discriminating offset.
  Path path;
  Leaf* cand = DescendBestEffort(key, &path);
  std::string_view ckey = KeyAt(cand->key);
  size_t o = 0;
  while (ByteAt(key, o) == ByteAt(ckey, o)) {
    if (o >= key.size() && o >= ckey.size()) {  // equal keys
      cand->value = value;
      return;
    }
    o++;
  }
  int new_byte = ByteAt(key, o);
  int old_byte = ByteAt(ckey, o);

  // Phase 2: find the slot where offset o belongs. Every node on the path
  // with offset < o has an exact child for the key's byte (because the
  // subtree agrees with `ckey` below its offset and the key agrees with
  // `ckey` before o), and phase 1 took it: replay phase 1's steps above
  // o, then walk on past the levels it recorded.
  Child* slot = &root_;
  for (size_t d = 0; d < path.depth && path.offset[d] < o; d++)
    slot = path.taken[d];
  while (!IsLeaf(*slot)) {
    Node* n = AsNode(*slot);
    if (n->offset >= o) break;
    int i = FindEdge(n, ByteAt(key, n->offset));
    assert(i >= 0 && "exact child must exist below the first diff offset");
    slot = &n->children()[i];
  }

  Child leaf = NewLeaf(key, value);

  if (!IsLeaf(*slot) && AsNode(*slot)->offset == o) {
    // The discriminating position already exists: add a sibling edge.
    *slot = WithEdge(*slot, new_byte, leaf);
    return;
  }
  // Split: a new node discriminating at offset o, with the old subtree
  // and the new leaf as its two children.
  Child ref;
  Node* n = AllocNode(static_cast<uint32_t>(o), 2, &ref);
  int old_pos = old_byte < new_byte ? 0 : 1;
  n->bytes[old_pos] = static_cast<int16_t>(old_byte);
  n->children()[old_pos] = *slot;
  n->bytes[1 - old_pos] = static_cast<int16_t>(new_byte);
  n->children()[1 - old_pos] = leaf;
  *slot = ref;
}

Hot::Child Hot::WithoutEdge(Child old, uint16_t pos) {
  const Node* n = AsNode(old);
  Child ref;
  Node* smaller =
      AllocNode(n->offset, static_cast<uint16_t>(n->count - 1), &ref);
  const Child* from = n->children();
  Child* to = smaller->children();
  for (uint16_t i = 0, j = 0; i < n->count; i++) {
    if (i == pos) continue;
    smaller->bytes[j] = n->bytes[i];
    to[j++] = from[i];
  }
  FreeNode(old);
  return ref;
}

bool Hot::EraseRec(Child* slot, std::string_view key) {
  Child c = *slot;
  if (IsLeaf(c)) {
    if (KeyAt(AsLeaf(c)->key) != key) return false;
    FreeLeaf(c);
    *slot = kNullRef;  // the caller unlinks the edge
    return true;
  }
  Node* n = AsNode(c);
  int i = FindEdge(n, ByteAt(key, n->offset));
  if (i < 0) return false;
  Child* child = &n->children()[i];
  if (!EraseRec(child, key)) return false;
  if (*child != kNullRef) return true;
  if (n->count == 2) {
    // Single remaining edge: the child subtree replaces this node
    // (offsets along the path stay strictly increasing).
    *slot = n->children()[1 - i];
    FreeNode(c);
  } else {
    *slot = WithoutEdge(c, static_cast<uint16_t>(i));
  }
  return true;
}

bool Hot::Erase(std::string_view key) {
  if (root_ == kNullRef) return false;
  arena_.EnsureRefReach(kMaxNewChunksPerUpdate);
  return EraseRec(&root_, key);
}

bool Hot::Lookup(std::string_view key, uint64_t* value) const {
  if (root_ == kNullRef) return false;
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
  if (root_ == kNullRef) return 0;
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
  if (root_ == kNullRef) return 0;
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
  if (root_ == kNullRef) return "";
  return CheckRec(root_, 0);
}

}  // namespace hope
