#include "btree/btree.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

#include "common/simd.h"

// ThreadSanitizer does not intercept mremap: a mapping it moves leaves
// stale shadow state at its old address, and a later mapping there (a
// tree built on another thread) reports races with the old owner's
// writes. Under TSan the buffer grows by the copying path instead.
#if defined(__SANITIZE_THREAD__)
#define HOPE_BTREE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HOPE_BTREE_TSAN 1
#endif
#endif

namespace hope {

namespace {

// A length byte of this value says an 8-byte length follows.
constexpr size_t kLenEscape = 0xFF;
// The reach of a 32-bit offset.
constexpr size_t kMaxKeyBytes = size_t{1} << 32;
constexpr size_t kPageBytes = 4096;
// From kHugeFrom on, the key buffer grows in whole 2 MiB pages and asks
// for transparent huge pages: a large tree's keys then take one page
// fault per 2 MiB instead of one per 4 KiB, and the resident tail past
// the last key (under one huge page) stays small beside the buffer.
constexpr size_t kHugePageBytes = size_t{2} << 20;
constexpr size_t kHugeFrom = 4 * kHugePageBytes;

/// The key at `offset` in the key buffer at `base`.
inline std::string_view KeyAt(const char* base, uint32_t offset) {
  const char* p = base + offset;
  size_t len = static_cast<uint8_t>(*p);
  if (len != kLenEscape) return {p + 1, len};
  uint64_t n = 0;
  std::memcpy(&n, p + 1, sizeof(n));
  return {p + 1 + sizeof(n), n};
}

/// Starts loading every key of a node, so the probes of the binary
/// search that follows miss in parallel rather than one after another.
template <typename KeyArray>
void PrefetchKeys(const char* base, const KeyArray& keys, int count) {
  for (int i = 0; i < count; i++) simd::PrefetchRead(base + keys[i]);
}

/// First index in [0, count) with keys[i] > key (upper bound).
template <typename KeyArray>
int UpperBound(const char* base, const KeyArray& keys, int count,
               std::string_view key) {
  PrefetchKeys(base, keys, count);
  int lo = 0, hi = count;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (KeyAt(base, keys[mid]) <= key)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

/// First index in [0, count) with keys[i] >= key (lower bound).
template <typename KeyArray>
int LowerBound(const char* base, const KeyArray& keys, int count,
               std::string_view key) {
  PrefetchKeys(base, keys, count);
  int lo = 0, hi = count;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (KeyAt(base, keys[mid]) < key)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

/// Puts a key and its value at `pos` of a leaf with room.
template <typename Leaf>
void InsertAt(Leaf* leaf, int pos, uint32_t key, uint64_t value) {
  std::copy_backward(leaf->keys + pos, leaf->keys + leaf->count,
                     leaf->keys + leaf->count + 1);
  std::copy_backward(leaf->values + pos, leaf->values + leaf->count,
                     leaf->values + leaf->count + 1);
  leaf->keys[pos] = key;
  leaf->values[pos] = value;
  leaf->count++;
}

/// Moves the last entry of leaf `l` to the front of its right neighbour
/// `r`; the separator between them becomes r's new first key.
template <typename Leaf>
void ShiftRight(Leaf* l, Leaf* r, uint32_t* separator) {
  std::copy_backward(r->keys, r->keys + r->count, r->keys + r->count + 1);
  std::copy_backward(r->values, r->values + r->count,
                     r->values + r->count + 1);
  r->keys[0] = l->keys[l->count - 1];
  r->values[0] = l->values[l->count - 1];
  r->count++;
  l->count--;
  *separator = r->keys[0];
}

/// Moves the first entry of leaf `r` to the end of its left neighbour
/// `l`; the separator between them becomes r's new first key.
template <typename Leaf>
void ShiftLeft(Leaf* l, Leaf* r, uint32_t* separator) {
  l->keys[l->count] = r->keys[0];
  l->values[l->count] = r->values[0];
  l->count++;
  std::copy(r->keys + 1, r->keys + r->count, r->keys);
  std::copy(r->values + 1, r->values + r->count, r->values);
  r->count--;
  *separator = r->keys[0];
}

}  // namespace

BTree::KeyBuffer::~KeyBuffer() {
  if (base_) munmap(base_, capacity_);
}

BTree::KeyOffset BTree::KeyBuffer::Intern(std::string_view key) {
  size_t head = key.size() < kLenEscape ? 1 : 1 + sizeof(uint64_t);
  if (head + key.size() > kMaxKeyBytes - size_)
    throw std::length_error("BTree key bytes past 4 GiB");
  if (head + key.size() > capacity_ - size_) Grow(size_ + head + key.size());
  char* p = base_ + size_;
  if (head == 1) {
    *p = static_cast<char>(key.size());
  } else {
    *p = static_cast<char>(kLenEscape);
    uint64_t n = key.size();
    std::memcpy(p + 1, &n, sizeof(n));
  }
  // The empty key has no bytes to copy; key.data() may be null.
  if (!key.empty()) std::memcpy(p + head, key.data(), key.size());
  auto offset = static_cast<KeyOffset>(size_);
  size_ += head + key.size();
  return offset;
}

void BTree::KeyBuffer::Grow(size_t need) {
  // By half: a growth copies nothing, and unused capacity stays under a
  // third of the buffer.
  size_t cap = std::max({need, capacity_ + capacity_ / 2, kPageBytes});
  size_t unit = cap < kHugeFrom ? kPageBytes : kHugePageBytes;
  cap = std::min((cap + unit - 1) / unit * unit, kMaxKeyBytes);
  void* p;
  if (!base_) {
    p = mmap(nullptr, cap, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  } else {
#if defined(__linux__) && !defined(HOPE_BTREE_TSAN)
    // Moves page table entries, never bytes.
    p = mremap(base_, capacity_, cap, MREMAP_MAYMOVE);
#else
    p = mmap(nullptr, cap, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
      std::memcpy(p, base_, size_);
      munmap(base_, capacity_);
    }
#endif
  }
  if (p == MAP_FAILED) throw std::bad_alloc();
#if defined(MADV_HUGEPAGE)
  // Advice only: where the kernel refuses, the buffer keeps 4 KiB pages.
  if (cap >= kHugeFrom) madvise(p, cap, MADV_HUGEPAGE);
#endif
  base_ = static_cast<char*>(p);
  capacity_ = cap;
}

BTree::LeafNode* BTree::NewLeaf() {
  auto* leaf = new (arena_.AllocateBlock(sizeof(LeafNode))) LeafNode();
  leaf->leaf = true;
  node_bytes_ += sizeof(LeafNode);
  return leaf;
}

BTree::InnerNode* BTree::NewInner() {
  auto* inner = new (arena_.AllocateBlock(sizeof(InnerNode))) InnerNode();
  inner->leaf = false;
  node_bytes_ += sizeof(InnerNode);
  return inner;
}

void BTree::FreeNode(Node* node) {
  // Both node types take 208 bytes, so one free list serves both.
  arena_.FreeBlock(node, sizeof(LeafNode));
  node_bytes_ -= sizeof(LeafNode);
}

void BTree::Insert(std::string_view key, uint64_t value) {
  if (!root_) {
    KeyOffset ref = keys_.Intern(key);
    LeafNode* leaf = NewLeaf();
    leaf->keys[0] = ref;
    leaf->values[0] = value;
    leaf->count = 1;
    root_ = rightmost_ = leaf;
    size_ = 1;
    return;
  }
  // A key past the maximum belongs at the end of the rightmost leaf, and
  // no separator changes: each is a lower bound of its right subtree, and
  // the maximum only grows. While that leaf has room, skip the descent.
  LeafNode* last = rightmost_;
  if (last->count < kSlots &&
      key > KeyAt(keys_.base(), last->keys[last->count - 1])) {
    last->keys[last->count] = keys_.Intern(key);
    last->values[last->count] = value;
    last->count++;
    size_++;
    return;
  }
  SplitResult split = InsertRec(root_, key, value, /*spine=*/true);
  if (split.right) {
    InnerNode* new_root = NewInner();
    new_root->keys[0] = split.separator;
    new_root->children[0] = root_;
    new_root->children[1] = split.right;
    new_root->count = 1;
    root_ = new_root;
  }
}

BTree::SplitResult BTree::InsertRec(Node* node, std::string_view key,
                                    uint64_t value, bool spine) {
  if (node->leaf) {
    auto* leaf = static_cast<LeafNode*>(node);
    int pos = LowerBound(keys_.base(), leaf->keys, leaf->count, key);
    if (pos < leaf->count && KeyAt(keys_.base(), leaf->keys[pos]) == key) {
      leaf->values[pos] = value;  // overwrite
      return {};
    }
    // Before this leaf changes, so a throw leaves the tree's entries as
    // they were.
    KeyOffset ref = keys_.Intern(key);
    if (leaf->count < kSlots) {
      InsertAt(leaf, pos, ref, value);
      size_++;
      return {};
    }
    LeafNode* right = NewLeaf();
    if (spine && pos == kSlots) {
      // Append split: this leaf stays full, the new one starts with the key.
      right->keys[0] = ref;
      right->values[0] = value;
      right->count = 1;
    } else {
      // Split in half, then insert into the proper half.
      int half = kSlots / 2;
      right->count = static_cast<uint16_t>(kSlots - half);
      std::copy(leaf->keys + half, leaf->keys + kSlots, right->keys);
      std::copy(leaf->values + half, leaf->values + kSlots, right->values);
      leaf->count = static_cast<uint16_t>(half);
      if (pos <= half)
        InsertAt(leaf, pos, ref, value);
      else
        InsertAt(right, pos - half, ref, value);
    }
    size_++;
    right->next = leaf->next;
    leaf->next = right;
    if (leaf == rightmost_) rightmost_ = right;
    return {right, right->keys[0]};
  }

  auto* inner = static_cast<InnerNode*>(node);
  int idx = UpperBound(keys_.base(), inner->keys, inner->count, key);
  Node* child = inner->children[idx];
  if (child->leaf && child->count == kSlots &&
      ShiftToSibling(inner, idx, key, spine && idx == inner->count))
    idx = UpperBound(keys_.base(), inner->keys, inner->count, key);
  SplitResult child_split = InsertRec(inner->children[idx], key, value,
                                      spine && idx == inner->count);
  if (!child_split.right) return {};

  if (inner->count < kSlots) {
    for (int i = inner->count; i > idx; i--) {
      inner->keys[i] = inner->keys[i - 1];
      inner->children[i + 1] = inner->children[i];
    }
    inner->keys[idx] = child_split.separator;
    inner->children[idx + 1] = child_split.right;
    inner->count++;
    return {};
  }
  // Split the inner node: lay out its keys and children with the pending
  // separator in place, keep `left` keys here, move the next one up and
  // the rest to a new right node. An append split on the right spine
  // keeps kSlots - 1 keys and leaves the new right node one key and the
  // last two children; any other split leaves kMinFill keys on each side.
  KeyOffset keys[kSlots + 1];
  Node* children[kSlots + 2];
  std::copy(inner->keys, inner->keys + idx, keys);
  keys[idx] = child_split.separator;
  std::copy(inner->keys + idx, inner->keys + kSlots, keys + idx + 1);
  std::copy(inner->children, inner->children + idx + 1, children);
  children[idx + 1] = child_split.right;
  std::copy(inner->children + idx + 1, inner->children + kSlots + 1,
            children + idx + 2);
  int left = spine && idx == kSlots ? kSlots - 1 : kMinFill;
  InnerNode* right = NewInner();
  right->count = static_cast<uint16_t>(kSlots - left);
  std::copy(keys + left + 1, keys + kSlots + 1, right->keys);
  std::copy(children + left + 1, children + kSlots + 2, right->children);
  std::copy(keys, keys + left, inner->keys);
  std::copy(children, children + left + 1, inner->children);
  inner->count = static_cast<uint16_t>(left);
  return {right, keys[left]};
}

bool BTree::ShiftToSibling(InnerNode* parent, int idx, std::string_view key,
                           bool spine) {
  auto* leaf = static_cast<LeafNode*>(parent->children[idx]);
  // An append split keeps the leaf full.
  if (spine && key > KeyAt(keys_.base(), leaf->keys[kSlots - 1]))
    return false;
  if (idx > 0 && parent->children[idx - 1]->count < kSlots) {
    ShiftLeft(static_cast<LeafNode*>(parent->children[idx - 1]), leaf,
              &parent->keys[idx - 1]);
    return true;
  }
  if (idx < parent->count && parent->children[idx + 1]->count < kSlots) {
    ShiftRight(leaf, static_cast<LeafNode*>(parent->children[idx + 1]),
               &parent->keys[idx]);
    return true;
  }
  return false;
}

bool BTree::Erase(std::string_view key) {
  if (!root_) return false;
  if (!EraseRec(root_, key)) return false;
  size_--;
  // Shrink the root: an empty leaf root disappears, an inner root with a
  // single child is replaced by that child.
  if (root_->leaf) {
    if (root_->count == 0) {
      FreeNode(root_);
      root_ = rightmost_ = nullptr;
    }
  } else if (root_->count == 0) {
    Node* child = static_cast<InnerNode*>(root_)->children[0];
    FreeNode(root_);
    root_ = child;
  }
  return true;
}

bool BTree::EraseRec(Node* node, std::string_view key) {
  if (node->leaf) {
    auto* leaf = static_cast<LeafNode*>(node);
    int pos = LowerBound(keys_.base(), leaf->keys, leaf->count, key);
    if (pos >= leaf->count || KeyAt(keys_.base(), leaf->keys[pos]) != key)
      return false;
    for (int i = pos; i + 1 < leaf->count; i++) {
      leaf->keys[i] = leaf->keys[i + 1];
      leaf->values[i] = leaf->values[i + 1];
    }
    leaf->count--;
    return true;
  }
  auto* inner = static_cast<InnerNode*>(node);
  int idx = UpperBound(keys_.base(), inner->keys, inner->count, key);
  if (!EraseRec(inner->children[idx], key)) return false;
  if (inner->children[idx]->count < kMinFill) RebalanceChild(inner, idx);
  return true;
}

void BTree::RebalanceChild(InnerNode* parent, int idx) {
  Node* child = parent->children[idx];
  Node* left = idx > 0 ? parent->children[idx - 1] : nullptr;
  Node* right = idx < parent->count ? parent->children[idx + 1] : nullptr;

  if (child->leaf) {
    auto* c = static_cast<LeafNode*>(child);
    if (left && left->count > kMinFill) {
      // Borrow the left sibling's last entry.
      ShiftRight(static_cast<LeafNode*>(left), c, &parent->keys[idx - 1]);
      return;
    }
    if (right && right->count > kMinFill) {
      // Borrow the right sibling's first entry.
      ShiftLeft(c, static_cast<LeafNode*>(right), &parent->keys[idx]);
      return;
    }
    // Merge with a sibling. It always fits: a merge runs only when the
    // child is below kMinFill and no sibling holds more than kMinFill, so
    // the merged node has at most 2 * kMinFill - 1 = 15 entries. An
    // under-filled right-spine node only makes it smaller.
    auto* dst = left ? static_cast<LeafNode*>(left) : c;
    auto* src = left ? c : static_cast<LeafNode*>(right);
    int sep = left ? idx - 1 : idx;
    for (int i = 0; i < src->count; i++) {
      dst->keys[dst->count + i] = src->keys[i];
      dst->values[dst->count + i] = src->values[i];
    }
    dst->count = static_cast<uint16_t>(dst->count + src->count);
    dst->next = src->next;
    if (src == rightmost_) rightmost_ = dst;
    FreeNode(src);
    for (int i = sep; i + 1 < parent->count; i++) {
      parent->keys[i] = parent->keys[i + 1];
      parent->children[i + 1] = parent->children[i + 2];
    }
    parent->count--;
    return;
  }

  auto* c = static_cast<InnerNode*>(child);
  if (left && left->count > kMinFill) {
    // Rotate through the parent: parent separator moves down, the left
    // sibling's last key moves up.
    auto* l = static_cast<InnerNode*>(left);
    for (int i = c->count; i > 0; i--) c->keys[i] = c->keys[i - 1];
    for (int i = c->count + 1; i > 0; i--)
      c->children[i] = c->children[i - 1];
    c->keys[0] = parent->keys[idx - 1];
    c->children[0] = l->children[l->count];
    c->count++;
    parent->keys[idx - 1] = l->keys[l->count - 1];
    l->count--;
    return;
  }
  if (right && right->count > kMinFill) {
    auto* r = static_cast<InnerNode*>(right);
    c->keys[c->count] = parent->keys[idx];
    c->children[c->count + 1] = r->children[0];
    c->count++;
    parent->keys[idx] = r->keys[0];
    for (int i = 0; i + 1 < r->count; i++) r->keys[i] = r->keys[i + 1];
    for (int i = 0; i < r->count; i++) r->children[i] = r->children[i + 1];
    r->count--;
    return;
  }
  // Merge inner nodes around the parent separator: at most
  // kMinFill + 1 + (kMinFill - 1) = kSlots keys.
  auto* dst = left ? static_cast<InnerNode*>(left) : c;
  auto* src = left ? c : static_cast<InnerNode*>(right);
  int sep = left ? idx - 1 : idx;
  dst->keys[dst->count] = parent->keys[sep];
  for (int i = 0; i < src->count; i++)
    dst->keys[dst->count + 1 + i] = src->keys[i];
  for (int i = 0; i <= src->count; i++)
    dst->children[dst->count + 1 + i] = src->children[i];
  dst->count = static_cast<uint16_t>(dst->count + 1 + src->count);
  FreeNode(src);
  for (int i = sep; i + 1 < parent->count; i++) {
    parent->keys[i] = parent->keys[i + 1];
    parent->children[i + 1] = parent->children[i + 2];
  }
  parent->count--;
}

const BTree::LeafNode* BTree::FindLeaf(std::string_view key) const {
  if (!root_) return nullptr;
  const char* base = keys_.base();
  const Node* node = root_;
  while (!node->leaf) {
    const auto* inner = static_cast<const InnerNode*>(node);
    node = inner->children[UpperBound(base, inner->keys, inner->count, key)];
  }
  return static_cast<const LeafNode*>(node);
}

bool BTree::Lookup(std::string_view key, uint64_t* value) const {
  const LeafNode* leaf = FindLeaf(key);
  if (!leaf) return false;
  const char* base = keys_.base();
  int pos = LowerBound(base, leaf->keys, leaf->count, key);
  if (pos < leaf->count && KeyAt(base, leaf->keys[pos]) == key) {
    if (value) *value = leaf->values[pos];
    return true;
  }
  return false;
}

size_t BTree::Scan(std::string_view start, size_t count,
                   std::vector<uint64_t>* out) const {
  const LeafNode* leaf = FindLeaf(start);
  if (!leaf) return 0;
  size_t produced = 0;
  int pos = LowerBound(keys_.base(), leaf->keys, leaf->count, start);
  while (leaf && produced < count) {
    for (; pos < leaf->count && produced < count; pos++) {
      if (out) out->push_back(leaf->values[pos]);
      produced++;
    }
    leaf = leaf->next;
    pos = 0;
  }
  return produced;
}

size_t BTree::MemoryBytes() const { return node_bytes_ + keys_.size(); }

int BTree::Height() const {
  int h = 0;
  const Node* node = root_;
  while (node) {
    h++;
    if (node->leaf) break;
    node = static_cast<const InnerNode*>(node)->children[0];
  }
  return h;
}

std::string BTree::CheckRec(const Node* node, const KeyOffset* lo,
                            const KeyOffset* hi, int depth,
                            int expect_depth, bool spine,
                            std::vector<const LeafNode*>* leaves) const {
  if (node->count == 0) return "empty node";
  if (node != root_ && !spine && node->count < kMinFill)
    return "node below kMinFill off the right spine";
  auto key = [this](KeyOffset k) { return KeyAt(keys_.base(), k); };
  if (node->leaf) {
    if (depth != expect_depth) return "leaves at different depths";
    const auto* leaf = static_cast<const LeafNode*>(node);
    for (int i = 0; i + 1 < leaf->count; i++)
      if (!(key(leaf->keys[i]) < key(leaf->keys[i + 1])))
        return "leaf keys out of order";
    if (lo && !(key(*lo) <= key(leaf->keys[0])))
      return "leaf below lower bound";
    if (hi && !(key(leaf->keys[leaf->count - 1]) < key(*hi)))
      return "leaf above upper bound";
    leaves->push_back(leaf);
    return "";
  }
  const auto* inner = static_cast<const InnerNode*>(node);
  for (int i = 0; i + 1 < inner->count; i++)
    if (!(key(inner->keys[i]) < key(inner->keys[i + 1])))
      return "inner keys out of order";
  for (int i = 0; i <= inner->count; i++) {
    const KeyOffset* clo = i == 0 ? lo : &inner->keys[i - 1];
    const KeyOffset* chi = i == inner->count ? hi : &inner->keys[i];
    std::string err = CheckRec(inner->children[i], clo, chi, depth + 1,
                               expect_depth, spine && i == inner->count,
                               leaves);
    if (!err.empty()) return err;
  }
  return "";
}

std::string BTree::CheckInvariants() const {
  if (!root_) return rightmost_ ? "rightmost leaf in an empty tree" : "";
  // The walk collects the leaves in key order; the chain must match it.
  std::vector<const LeafNode*> leaves;
  std::string err = CheckRec(root_, nullptr, nullptr, 1, Height(),
                             /*spine=*/true, &leaves);
  if (!err.empty()) return err;
  const LeafNode* leaf = leaves.front();
  for (size_t i = 1; i < leaves.size(); i++) {
    if (leaf->next != leaves[i]) return "leaf chain skips or reorders a leaf";
    leaf = leaf->next;
  }
  if (leaf->next) return "leaf chain runs past the last leaf";
  if (leaf != rightmost_) return "rightmost leaf is not the chain's end";
  return "";
}

}  // namespace hope
