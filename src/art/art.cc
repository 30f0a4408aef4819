#include "art/art.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>

#include "common/str_utils.h"

namespace hope {

namespace {
enum NodeType : uint8_t { kNode4, kNode16, kNode48, kNode256 };
constexpr size_t kMaxStoredPrefix = 8;
}  // namespace

struct Art::Leaf {
  KeyRef key;  // the full tuple key, in the tree's arena
  uint64_t value;
};

struct Art::Node {
  NodeType type;
  uint16_t num_children = 0;
  uint32_t prefix_len = 0;  // full length; only 8 bytes stored (optimistic)
  uint8_t prefix[kMaxStoredPrefix];
  Leaf* term_leaf = nullptr;  // key that ends exactly at this node
};

namespace {

struct Node4 : Art::Node {
  uint8_t keys[4];
  Art::Child children[4];
};
struct Node16 : Art::Node {
  uint8_t keys[16];
  Art::Child children[16];
};
struct Node48 : Art::Node {
  uint8_t child_index[256];
  Art::Child children[48];
};
struct Node256 : Art::Node {
  Art::Child children[256];
};

size_t NodeSize(NodeType t) {
  switch (t) {
    case kNode4: return sizeof(Node4);
    case kNode16: return sizeof(Node16);
    case kNode48: return sizeof(Node48);
    case kNode256: return sizeof(Node256);
  }
  return 0;
}

void FreeNode(Art::Node* n, Arena* arena, size_t* memory) {
  *memory -= NodeSize(n->type);
  arena->FreeBlock(n, NodeSize(n->type));
}

Art::Child* FindChildSlot(Art::Node* n, uint8_t b) {
  switch (n->type) {
    case kNode4: {
      auto* x = static_cast<Node4*>(n);
      for (int i = 0; i < x->num_children; i++)
        if (x->keys[i] == b) return &x->children[i];
      return nullptr;
    }
    case kNode16: {
      auto* x = static_cast<Node16*>(n);
      for (int i = 0; i < x->num_children; i++)
        if (x->keys[i] == b) return &x->children[i];
      return nullptr;
    }
    case kNode48: {
      auto* x = static_cast<Node48*>(n);
      return x->child_index[b] == 0xFF ? nullptr
                                       : &x->children[x->child_index[b]];
    }
    case kNode256: {
      auto* x = static_cast<Node256*>(n);
      return x->children[b] ? &x->children[b] : nullptr;
    }
  }
  return nullptr;
}

const Art::Child* FindChild(const Art::Node* n, uint8_t b) {
  return FindChildSlot(const_cast<Art::Node*>(n), b);
}

bool IsFull(const Art::Node* n) {
  switch (n->type) {
    case kNode4: return n->num_children >= 4;
    case kNode16: return n->num_children >= 16;
    case kNode48: return n->num_children >= 48;
    case kNode256: return false;
  }
  return false;
}

/// Calls fn(byte, child) for each child in ascending byte order. Returns
/// false early if fn returns false.
template <typename Fn>
bool ForEachChild(const Art::Node* n, Fn fn) {
  switch (n->type) {
    case kNode4: {
      auto* x = static_cast<const Node4*>(n);
      for (int i = 0; i < x->num_children; i++)
        if (!fn(x->keys[i], x->children[i])) return false;
      return true;
    }
    case kNode16: {
      auto* x = static_cast<const Node16*>(n);
      for (int i = 0; i < x->num_children; i++)
        if (!fn(x->keys[i], x->children[i])) return false;
      return true;
    }
    case kNode48: {
      auto* x = static_cast<const Node48*>(n);
      for (int b = 0; b < 256; b++)
        if (x->child_index[b] != 0xFF)
          if (!fn(static_cast<uint8_t>(b), x->children[x->child_index[b]]))
            return false;
      return true;
    }
    case kNode256: {
      auto* x = static_cast<const Node256*>(n);
      for (int b = 0; b < 256; b++)
        if (x->children[b])
          if (!fn(static_cast<uint8_t>(b), x->children[b])) return false;
      return true;
    }
  }
  return true;
}

}  // namespace

Art::Leaf* Art::NewLeaf(std::string_view key, uint64_t value) {
  // Leaf first: in fresh arena space the key's bytes then follow it.
  auto* leaf = static_cast<Leaf*>(arena_.AllocateBlock(sizeof(Leaf)));
  *leaf = Leaf{arena_.Intern(key), value};
  memory_ += sizeof(Leaf);
  size_++;
  return leaf;
}

void Art::FreeLeaf(Leaf* leaf) {
  arena_.FreeBlock(leaf, sizeof(Leaf));
  memory_ -= sizeof(Leaf);
  size_--;
}

namespace {

Art::Node* NewNode(NodeType t, Arena* arena, size_t* memory) {
  *memory += NodeSize(t);
  void* block = arena->AllocateBlock(NodeSize(t));
  Art::Node* n = nullptr;
  switch (t) {
    case kNode4: n = new (block) Node4(); break;
    case kNode16: n = new (block) Node16(); break;
    case kNode48: {
      auto* x = new (block) Node48();
      std::memset(x->child_index, 0xFF, sizeof(x->child_index));
      n = x;
      break;
    }
    case kNode256: n = new (block) Node256(); break;
  }
  n->type = t;
  return n;
}

template <size_t N, typename ChildT>
int InsertSorted(uint8_t (&keys)[N], ChildT (&children)[N], int count,
                 uint8_t b, ChildT child) {
  int pos = count;
  while (pos > 0 && keys[pos - 1] > b) {
    keys[pos] = keys[pos - 1];
    children[pos] = children[pos - 1];
    pos--;
  }
  keys[pos] = b;
  children[pos] = child;
  return pos;
}

Art::Node* Grow(Art::Node* old, Arena* arena, size_t* memory) {
  Art::Node* bigger = nullptr;
  switch (old->type) {
    case kNode4: {
      auto* o = static_cast<Node4*>(old);
      auto* n = static_cast<Node16*>(NewNode(kNode16, arena, memory));
      std::copy(o->keys, o->keys + 4, n->keys);
      std::copy(o->children, o->children + 4, n->children);
      n->num_children = 4;
      bigger = n;
      break;
    }
    case kNode16: {
      auto* o = static_cast<Node16*>(old);
      auto* n = static_cast<Node48*>(NewNode(kNode48, arena, memory));
      for (int i = 0; i < 16; i++) {
        n->child_index[o->keys[i]] = static_cast<uint8_t>(i);
        n->children[i] = o->children[i];
      }
      n->num_children = 16;
      bigger = n;
      break;
    }
    case kNode48: {
      auto* o = static_cast<Node48*>(old);
      auto* n = static_cast<Node256*>(NewNode(kNode256, arena, memory));
      for (int b = 0; b < 256; b++)
        if (o->child_index[b] != 0xFF)
          n->children[b] = o->children[o->child_index[b]];
      n->num_children = o->num_children;
      bigger = n;
      break;
    }
    case kNode256:
      assert(false);
      return old;
  }
  bigger->prefix_len = old->prefix_len;
  std::copy(old->prefix, old->prefix + kMaxStoredPrefix, bigger->prefix);
  bigger->term_leaf = old->term_leaf;
  FreeNode(old, arena, memory);
  return bigger;
}

Art::Child* AddChild(Art::Node*& node, uint8_t b, Art::Child child,
                     Arena* arena, size_t* memory) {
  if (IsFull(node)) node = Grow(node, arena, memory);
  switch (node->type) {
    case kNode4: {
      auto* x = static_cast<Node4*>(node);
      int pos = InsertSorted(x->keys, x->children, x->num_children, b, child);
      x->num_children++;
      return &x->children[pos];
    }
    case kNode16: {
      auto* x = static_cast<Node16*>(node);
      int pos = InsertSorted(x->keys, x->children, x->num_children, b, child);
      x->num_children++;
      return &x->children[pos];
    }
    case kNode48: {
      auto* x = static_cast<Node48*>(node);
      x->child_index[b] = static_cast<uint8_t>(x->num_children);
      x->children[x->num_children] = child;
      return &x->children[x->num_children++];
    }
    case kNode256: {
      auto* x = static_cast<Node256*>(node);
      x->children[b] = child;
      x->num_children++;
      return &x->children[b];
    }
  }
  return nullptr;
}

void SetStoredPrefix(Art::Node* n, std::string_view full_prefix) {
  n->prefix_len = static_cast<uint32_t>(full_prefix.size());
  size_t stored = std::min(full_prefix.size(), kMaxStoredPrefix);
  std::memcpy(n->prefix, full_prefix.data(), stored);
}

}  // namespace

const Art::Leaf* Art::MinLeaf(Child c) const {
  while (!IsLeaf(c)) {
    const Node* n = AsNode(c);
    if (n->term_leaf) return n->term_leaf;
    const Leaf* result = nullptr;
    ForEachChild(n, [&](uint8_t, Child child) {
      c = child;
      return false;  // first (smallest) child only
    });
    (void)result;
  }
  return AsLeaf(c);
}

void Art::InsertIntoSlot(Child* slot, std::string_view key, uint64_t value,
                         size_t depth) {
  while (true) {
    Child c = *slot;
    if (IsLeaf(c)) {
      Leaf* leaf = AsLeaf(c);
      std::string_view lkey = KeyAt(leaf->key);
      if (lkey == key) {
        leaf->value = value;
        return;
      }
      // Split into a node holding the common part after `depth`.
      std::string_view krest = key.substr(depth);
      std::string_view lrest = lkey.substr(depth);
      size_t lcp = LcpLen(krest, lrest);
      Node* node = NewNode(kNode4, &arena_, &memory_);
      SetStoredPrefix(node, krest.substr(0, lcp));
      Leaf* new_leaf = NewLeaf(key, value);
      if (depth + lcp == key.size()) {
        node->term_leaf = new_leaf;
      } else {
        AddChild(node, static_cast<uint8_t>(key[depth + lcp]),
                 TagLeaf(new_leaf), &arena_, &memory_);
      }
      if (depth + lcp == lkey.size()) {
        node->term_leaf = leaf;
      } else {
        AddChild(node, static_cast<uint8_t>(lkey[depth + lcp]), c, &arena_,
                 &memory_);
      }
      *slot = node;
      return;
    }

    Node* node = AsNode(c);
    // Compare the node's (possibly truncated) prefix. When the stored
    // bytes are exhausted we compare against a representative leaf (the
    // pessimistic fallback inserts need for correctness).
    size_t plen = node->prefix_len;
    std::string_view krest = key.substr(depth);
    size_t check = std::min<size_t>(plen, krest.size());
    size_t m = 0;  // matched bytes
    const Leaf* rep = nullptr;
    while (m < check) {
      uint8_t pb;
      if (m < kMaxStoredPrefix) {
        pb = node->prefix[m];
      } else {
        if (!rep) rep = MinLeaf(c);
        pb = static_cast<uint8_t>(KeyAt(rep->key)[depth + m]);
      }
      if (static_cast<uint8_t>(krest[m]) != pb) break;
      m++;
    }
    if (m < plen) {
      // Mismatch (or key exhausted) inside the prefix: split the prefix.
      if (!rep && plen > kMaxStoredPrefix) rep = MinLeaf(c);
      std::string_view full_prefix =
          rep ? KeyAt(rep->key).substr(depth, plen)
              : std::string_view(reinterpret_cast<const char*>(node->prefix),
                                 plen);
      Node* parent = NewNode(kNode4, &arena_, &memory_);
      SetStoredPrefix(parent, full_prefix.substr(0, m));
      // Old node keeps the tail of the prefix (after the branch byte).
      uint8_t old_branch = static_cast<uint8_t>(full_prefix[m]);
      std::string old_tail(full_prefix.substr(m + 1));
      SetStoredPrefix(node, old_tail);
      AddChild(parent, old_branch, c, &arena_, &memory_);
      Leaf* new_leaf = NewLeaf(key, value);
      if (depth + m == key.size()) {
        parent->term_leaf = new_leaf;
      } else {
        AddChild(parent, static_cast<uint8_t>(key[depth + m]),
                 TagLeaf(new_leaf), &arena_, &memory_);
      }
      *slot = parent;
      return;
    }
    depth += plen;
    if (depth == key.size()) {
      if (node->term_leaf) {
        node->term_leaf->value = value;
      } else {
        node->term_leaf = NewLeaf(key, value);
      }
      return;
    }
    uint8_t b = static_cast<uint8_t>(key[depth]);
    Child* child_slot = FindChildSlot(node, b);
    if (!child_slot) {
      Leaf* leaf = NewLeaf(key, value);
      Node* grown = node;
      AddChild(grown, b, TagLeaf(leaf), &arena_, &memory_);
      if (grown != node) *slot = grown;
      return;
    }
    slot = child_slot;
    depth++;
  }
}

void Art::Insert(std::string_view key, uint64_t value) {
  if (!root_) {
    root_ = TagLeaf(NewLeaf(key, value));
    return;
  }
  InsertIntoSlot(&root_, key, value, 0);
}

namespace {

void RemoveChildEntry(Art::Node* node, uint8_t b) {
  switch (node->type) {
    case kNode4: {
      auto* x = static_cast<Node4*>(node);
      int pos = 0;
      while (x->keys[pos] != b) pos++;
      for (int i = pos; i + 1 < x->num_children; i++) {
        x->keys[i] = x->keys[i + 1];
        x->children[i] = x->children[i + 1];
      }
      x->num_children--;
      break;
    }
    case kNode16: {
      auto* x = static_cast<Node16*>(node);
      int pos = 0;
      while (x->keys[pos] != b) pos++;
      for (int i = pos; i + 1 < x->num_children; i++) {
        x->keys[i] = x->keys[i + 1];
        x->children[i] = x->children[i + 1];
      }
      x->num_children--;
      break;
    }
    case kNode48: {
      auto* x = static_cast<Node48*>(node);
      uint8_t idx = x->child_index[b];
      x->child_index[b] = 0xFF;
      uint8_t last = static_cast<uint8_t>(x->num_children - 1);
      if (idx != last) {
        // Move the last stored child into the freed slot.
        x->children[idx] = x->children[last];
        for (int k = 0; k < 256; k++)
          if (x->child_index[k] == last) {
            x->child_index[k] = idx;
            break;
          }
      }
      x->num_children--;
      break;
    }
    case kNode256: {
      auto* x = static_cast<Node256*>(node);
      x->children[b] = nullptr;
      x->num_children--;
      break;
    }
  }
}

/// The single remaining (byte, child) entry of a node with exactly one
/// child and no terminator.
std::pair<uint8_t, Art::Child> OnlyChild(const Art::Node* n) {
  std::pair<uint8_t, Art::Child> result{0, nullptr};
  ForEachChild(n, [&](uint8_t b, Art::Child c) {
    result = {b, c};
    return false;
  });
  return result;
}

/// Shrinks a node to the next-smaller size class when sparse enough
/// (with slack so alternating insert/erase does not thrash).
Art::Node* MaybeShrink(Art::Node* n, Arena* arena, size_t* memory) {
  auto transplant = [&](Art::Node* smaller) {
    smaller->prefix_len = n->prefix_len;
    std::copy(n->prefix, n->prefix + kMaxStoredPrefix, smaller->prefix);
    smaller->term_leaf = n->term_leaf;
    FreeNode(n, arena, memory);
    return smaller;
  };
  switch (n->type) {
    case kNode16: {
      if (n->num_children > 3) return n;
      auto* x = static_cast<Node16*>(n);
      auto* s = static_cast<Node4*>(NewNode(kNode4, arena, memory));
      for (int i = 0; i < x->num_children; i++) {
        s->keys[i] = x->keys[i];
        s->children[i] = x->children[i];
      }
      s->num_children = x->num_children;
      return transplant(s);
    }
    case kNode48: {
      if (n->num_children > 12) return n;
      auto* x = static_cast<Node48*>(n);
      auto* s = static_cast<Node16*>(NewNode(kNode16, arena, memory));
      int out = 0;
      for (int b = 0; b < 256; b++)
        if (x->child_index[b] != 0xFF) {
          s->keys[out] = static_cast<uint8_t>(b);
          s->children[out++] = x->children[x->child_index[b]];
        }
      s->num_children = static_cast<uint16_t>(out);
      return transplant(s);
    }
    case kNode256: {
      if (n->num_children > 40) return n;
      auto* x = static_cast<Node256*>(n);
      auto* s = static_cast<Node48*>(NewNode(kNode48, arena, memory));
      int out = 0;
      for (int b = 0; b < 256; b++)
        if (x->children[b]) {
          s->child_index[b] = static_cast<uint8_t>(out);
          s->children[out++] = x->children[b];
        }
      s->num_children = static_cast<uint16_t>(out);
      return transplant(s);
    }
    case kNode4:
      return n;
  }
  return n;
}

}  // namespace

void Art::CollapseIfNeeded(Child* slot, size_t /*depth*/) {
  Node* n = AsNode(*slot);
  size_t entries = n->num_children + (n->term_leaf ? 1 : 0);
  if (entries >= 2) {
    *slot = MaybeShrink(n, &arena_, &memory_);
    return;
  }
  assert(entries == 1);
  if (n->num_children == 0) {
    // Only the terminator remains: the leaf replaces the node (leaves
    // carry their full key, so no prefix bookkeeping is needed).
    *slot = TagLeaf(n->term_leaf);
    n->term_leaf = nullptr;
    FreeNode(n, &arena_, &memory_);
    return;
  }
  auto [b, only] = OnlyChild(n);
  if (IsLeaf(only)) {
    *slot = only;
  } else {
    // Path compression restore: the child absorbs this node's prefix
    // plus the branch byte.
    Node* c = AsNode(only);
    uint8_t stored[kMaxStoredPrefix];
    size_t pos = 0;
    for (size_t i = 0; i < n->prefix_len && pos < kMaxStoredPrefix; i++)
      stored[pos++] = n->prefix[i];  // prefix_len < 8 here iff pos < 8 stops
    if (pos < kMaxStoredPrefix && n->prefix_len == pos) {
      stored[pos++] = b;
      for (size_t i = 0; i < c->prefix_len && pos < kMaxStoredPrefix; i++)
        stored[pos++] = c->prefix[i];
    }
    c->prefix_len = n->prefix_len + 1 + c->prefix_len;
    std::copy(stored, stored + pos, c->prefix);
    *slot = only;
  }
  FreeNode(n, &arena_, &memory_);
}

bool Art::EraseFromSlot(Child* slot, std::string_view key, size_t depth) {
  Child c = *slot;
  if (IsLeaf(c)) {
    Leaf* leaf = AsLeaf(c);
    if (KeyAt(leaf->key) != key) return false;
    FreeLeaf(leaf);
    *slot = nullptr;  // the caller unlinks the child entry
    return true;
  }
  Node* n = AsNode(c);
  size_t plen = n->prefix_len;
  if (depth + plen > key.size()) return false;
  // Exact prefix check (pessimistic beyond the stored bytes).
  size_t stored = std::min<size_t>(plen, kMaxStoredPrefix);
  for (size_t i = 0; i < stored; i++)
    if (static_cast<uint8_t>(key[depth + i]) != n->prefix[i]) return false;
  if (plen > kMaxStoredPrefix) {
    std::string_view rep = KeyAt(MinLeaf(c)->key);
    for (size_t i = kMaxStoredPrefix; i < plen; i++)
      if (key[depth + i] != rep[depth + i]) return false;
  }
  depth += plen;
  if (depth == key.size()) {
    if (!n->term_leaf || KeyAt(n->term_leaf->key) != key) return false;
    FreeLeaf(n->term_leaf);
    n->term_leaf = nullptr;
    CollapseIfNeeded(slot, depth);
    return true;
  }
  uint8_t b = static_cast<uint8_t>(key[depth]);
  Child* child_slot = FindChildSlot(n, b);
  if (!child_slot) return false;
  if (!EraseFromSlot(child_slot, key, depth + 1)) return false;
  if (*child_slot == nullptr) RemoveChildEntry(n, b);
  CollapseIfNeeded(slot, depth);
  return true;
}

bool Art::Erase(std::string_view key) {
  if (!root_) return false;
  if (IsLeaf(root_)) {
    Leaf* leaf = AsLeaf(root_);
    if (KeyAt(leaf->key) != key) return false;
    FreeLeaf(leaf);
    root_ = nullptr;
    return true;
  }
  bool erased = EraseFromSlot(&root_, key, 0);
  return erased;
}

bool Art::Lookup(std::string_view key, uint64_t* value) const {
  Child c = root_;
  if (!c) return false;
  size_t depth = 0;
  while (!IsLeaf(c)) {
    const Node* n = AsNode(c);
    // Optimistic skip: compare only the stored prefix bytes.
    size_t plen = n->prefix_len;
    if (depth + plen > key.size()) return false;
    size_t check = std::min<size_t>(plen, kMaxStoredPrefix);
    for (size_t i = 0; i < check; i++)
      if (static_cast<uint8_t>(key[depth + i]) != n->prefix[i]) return false;
    depth += plen;
    if (depth == key.size()) {
      if (!n->term_leaf || KeyAt(n->term_leaf->key) != key) return false;
      if (value) *value = n->term_leaf->value;
      return true;
    }
    const Child* child = FindChild(n, static_cast<uint8_t>(key[depth]));
    if (!child) return false;
    c = *child;
    depth++;
  }
  const Leaf* leaf = AsLeaf(c);
  if (KeyAt(leaf->key) != key) return false;  // final verification
  if (value) *value = leaf->value;
  return true;
}

size_t Art::EmitAll(Child c, size_t count, size_t produced,
                    std::vector<uint64_t>* out) const {
  if (produced >= count) return produced;
  if (IsLeaf(c)) {
    if (out) out->push_back(AsLeaf(c)->value);
    return produced + 1;
  }
  const Node* n = AsNode(c);
  if (n->term_leaf) {
    if (out) out->push_back(n->term_leaf->value);
    produced++;
  }
  ForEachChild(n, [&](uint8_t, Child child) {
    produced = EmitAll(child, count, produced, out);
    return produced < count;
  });
  return produced;
}

size_t Art::EmitGE(Child c, std::string_view start, size_t depth,
                   size_t count, size_t produced,
                   std::vector<uint64_t>* out) const {
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
  // Compare the node's full prefix against start[depth..]: scans must be
  // exact, so fall back to a representative key beyond the stored bytes.
  size_t plen = n->prefix_len;
  std::string_view srest =
      depth <= start.size() ? start.substr(depth) : std::string_view();
  size_t check = std::min<size_t>(plen, srest.size());
  const Leaf* rep = nullptr;
  for (size_t i = 0; i < check; i++) {
    uint8_t pb;
    if (i < kMaxStoredPrefix) {
      pb = n->prefix[i];
    } else {
      if (!rep) rep = MinLeaf(c);
      pb = static_cast<uint8_t>(KeyAt(rep->key)[depth + i]);
    }
    uint8_t sb = static_cast<uint8_t>(srest[i]);
    if (pb < sb) return produced;                        // subtree < start
    if (pb > sb) return EmitAll(c, count, produced, out);  // subtree > start
  }
  if (srest.size() <= plen) {
    // start is exhausted within (or at the end of) the prefix: the whole
    // subtree is >= start.
    return EmitAll(c, count, produced, out);
  }
  depth += plen;
  // term_leaf's key equals the path, which is shorter than start: skip it.
  uint8_t sb = static_cast<uint8_t>(start[depth]);
  bool aborted = !ForEachChild(n, [&](uint8_t b, Child child) {
    if (b < sb) return true;
    if (b == sb)
      produced = EmitGE(child, start, depth + 1, count, produced, out);
    else
      produced = EmitAll(child, count, produced, out);
    return produced < count;
  });
  (void)aborted;
  return produced;
}

size_t Art::Scan(std::string_view start, size_t count,
                 std::vector<uint64_t>* out) const {
  if (!root_) return 0;
  return EmitGE(root_, start, 0, count, 0, out);
}

void Art::DepthStats(Child c, size_t depth, size_t* total,
                     size_t* leaves) const {
  if (IsLeaf(c)) {
    *total += depth;
    *leaves += 1;
    return;
  }
  const Node* n = AsNode(c);
  if (n->term_leaf) {
    *total += depth + 1;
    *leaves += 1;
  }
  ForEachChild(n, [&](uint8_t, Child child) {
    DepthStats(child, depth + 1, total, leaves);
    return true;
  });
}

double Art::AverageLeafDepth() const {
  if (!root_) return 0;
  size_t total = 0, leaves = 0;
  DepthStats(root_, 0, &total, &leaves);
  return leaves == 0 ? 0 : static_cast<double>(total) /
                               static_cast<double>(leaves);
}

std::string Art::CheckChild(Child c, std::string* path) const {
  if (IsLeaf(c)) {
    std::string_view key = KeyAt(AsLeaf(c)->key);
    // The path must be a prefix of the leaf key (stored prefix bytes may
    // be truncated, so compare only what the path knows).
    if (key.size() < path->size()) return "leaf key shorter than path";
    for (size_t i = 0; i < path->size(); i++) {
      char p = (*path)[i];
      if (p != '\x01' && key[i] != p)  // \x01 marks skipped bytes
        return "leaf key does not match path";
    }
    return "";
  }
  const Node* n = AsNode(c);
  if (!n->term_leaf && n->num_children + (n->term_leaf ? 1 : 0) < 2 &&
      path->empty() == false)
    return "non-root node with fewer than two entries";
  size_t base = path->size();
  for (size_t i = 0; i < n->prefix_len; i++)
    path->push_back(i < kMaxStoredPrefix
                        ? static_cast<char>(n->prefix[i])
                        : '\x01');
  if (n->term_leaf) {
    if (KeyAt(n->term_leaf->key).size() != path->size())
      return "terminator key length mismatch";
  }
  uint8_t prev = 0;
  bool first = true;
  std::string err;
  ForEachChild(n, [&](uint8_t b, Child child) {
    if (!first && b <= prev) {
      err = "children out of order";
      return false;
    }
    first = false;
    prev = b;
    path->push_back(static_cast<char>(b));
    err = CheckChild(child, path);
    path->pop_back();
    return err.empty();
  });
  path->resize(base);
  return err;
}

std::string Art::CheckInvariants() const {
  if (!root_) return "";
  std::string path;
  return CheckChild(root_, &path);
}

}  // namespace hope
