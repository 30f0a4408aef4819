#include "btree/btree.h"

#include <algorithm>
#include <cassert>

#include "common/simd.h"

namespace hope {

namespace {

/// Starts loading every key of a node, so the probes of the binary
/// search that follows miss in parallel rather than one after another.
template <typename KeyArray>
void PrefetchKeys(const KeyArray& keys, int count) {
  for (int i = 0; i < count; i++) simd::PrefetchRead(KeyAddress(keys[i]));
}

/// First index in [0, count) with keys[i] > key (upper bound).
template <typename KeyArray>
int UpperBound(const KeyArray& keys, int count, std::string_view key) {
  PrefetchKeys(keys, count);
  int lo = 0, hi = count;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (KeyAt(keys[mid]) <= key)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

/// First index in [0, count) with keys[i] >= key (lower bound).
template <typename KeyArray>
int LowerBound(const KeyArray& keys, int count, std::string_view key) {
  PrefetchKeys(keys, count);
  int lo = 0, hi = count;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (KeyAt(keys[mid]) < key)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

/// Moves the last entry of leaf `l` to the front of its right neighbour
/// `r`; the separator between them becomes r's new first key.
template <typename Leaf>
void ShiftRight(Leaf* l, Leaf* r, uint64_t* separator) {
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
void ShiftLeft(Leaf* l, Leaf* r, uint64_t* separator) {
  l->keys[l->count] = r->keys[0];
  l->values[l->count] = r->values[0];
  l->count++;
  std::copy(r->keys + 1, r->keys + r->count, r->keys);
  std::copy(r->values + 1, r->values + r->count, r->values);
  r->count--;
  *separator = r->keys[0];
}

}  // namespace

BTree::~BTree() {
  if (root_) FreeRec(root_);
}

void BTree::FreeRec(Node* node) {
  if (!node->leaf) {
    auto* inner = static_cast<InnerNode*>(node);
    for (int i = 0; i <= inner->count; i++) FreeRec(inner->children[i]);
    delete inner;
  } else {
    delete static_cast<LeafNode*>(node);
  }
}

KeyRef BTree::Intern(std::string_view key) {
  key_bytes_ += key.size();
  return arena_.Intern(key);
}

void BTree::Insert(std::string_view key, uint64_t value) {
  if (!root_) {
    auto* leaf = new LeafNode();
    leaf->leaf = true;
    leaf->keys[0] = Intern(key);
    leaf->values[0] = value;
    leaf->count = 1;
    root_ = rightmost_ = leaf;
    node_bytes_ += sizeof(LeafNode);
    size_ = 1;
    return;
  }
  // A key past the maximum belongs at the end of the rightmost leaf, and
  // no separator changes: each is a lower bound of its right subtree, and
  // the maximum only grows. While that leaf has room, skip the descent.
  LeafNode* last = rightmost_;
  if (last->count < kSlots &&
      key > KeyAt(last->keys[last->count - 1])) {
    last->keys[last->count] = Intern(key);
    last->values[last->count] = value;
    last->count++;
    size_++;
    return;
  }
  SplitResult split = InsertRec(root_, key, value, /*spine=*/true);
  if (split.right) {
    auto* new_root = new InnerNode();
    new_root->leaf = false;
    new_root->keys[0] = split.separator;
    new_root->children[0] = root_;
    new_root->children[1] = split.right;
    new_root->count = 1;
    root_ = new_root;
    node_bytes_ += sizeof(InnerNode);
  }
}

BTree::SplitResult BTree::InsertRec(Node* node, std::string_view key,
                                    uint64_t value, bool spine) {
  if (node->leaf) {
    auto* leaf = static_cast<LeafNode*>(node);
    int pos = LowerBound(leaf->keys, leaf->count, key);
    if (pos < leaf->count && KeyAt(leaf->keys[pos]) == key) {
      leaf->values[pos] = value;  // overwrite
      return {};
    }
    if (leaf->count < kSlots) {
      for (int i = leaf->count; i > pos; i--) {
        leaf->keys[i] = leaf->keys[i - 1];
        leaf->values[i] = leaf->values[i - 1];
      }
      leaf->keys[pos] = Intern(key);
      leaf->values[pos] = value;
      leaf->count++;
      size_++;
      return {};
    }
    auto* right = new LeafNode();
    right->leaf = true;
    node_bytes_ += sizeof(LeafNode);
    if (spine && pos == kSlots) {
      // Append split: this leaf stays full, the new one starts with the key.
      right->keys[0] = Intern(key);
      right->values[0] = value;
      right->count = 1;
      size_++;
    } else {
      // Split in half, then insert into the proper half.
      int half = kSlots / 2;
      right->count = static_cast<uint16_t>(kSlots - half);
      for (int i = 0; i < right->count; i++) {
        right->keys[i] = leaf->keys[half + i];
        right->values[i] = leaf->values[half + i];
      }
      leaf->count = static_cast<uint16_t>(half);
      InsertRec(pos <= half ? leaf : right, key, value, /*spine=*/false);
    }
    right->next = leaf->next;
    leaf->next = right;
    if (leaf == rightmost_) rightmost_ = right;
    return {right, right->keys[0]};
  }

  auto* inner = static_cast<InnerNode*>(node);
  int idx = UpperBound(inner->keys, inner->count, key);
  Node* child = inner->children[idx];
  if (child->leaf && child->count == kSlots &&
      ShiftToSibling(inner, idx, key, spine && idx == inner->count))
    idx = UpperBound(inner->keys, inner->count, key);
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
  KeyRef keys[kSlots + 1];
  Node* children[kSlots + 2];
  std::copy(inner->keys, inner->keys + idx, keys);
  keys[idx] = child_split.separator;
  std::copy(inner->keys + idx, inner->keys + kSlots, keys + idx + 1);
  std::copy(inner->children, inner->children + idx + 1, children);
  children[idx + 1] = child_split.right;
  std::copy(inner->children + idx + 1, inner->children + kSlots + 1,
            children + idx + 2);
  int left = spine && idx == kSlots ? kSlots - 1 : kMinFill;
  auto* right = new InnerNode();
  right->leaf = false;
  node_bytes_ += sizeof(InnerNode);
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
  if (spine && key > KeyAt(leaf->keys[kSlots - 1])) return false;
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
      delete static_cast<LeafNode*>(root_);
      node_bytes_ -= sizeof(LeafNode);
      root_ = rightmost_ = nullptr;
    }
  } else if (root_->count == 0) {
    Node* child = static_cast<InnerNode*>(root_)->children[0];
    delete static_cast<InnerNode*>(root_);
    node_bytes_ -= sizeof(InnerNode);
    root_ = child;
  }
  return true;
}

bool BTree::EraseRec(Node* node, std::string_view key) {
  if (node->leaf) {
    auto* leaf = static_cast<LeafNode*>(node);
    int pos = LowerBound(leaf->keys, leaf->count, key);
    if (pos >= leaf->count || KeyAt(leaf->keys[pos]) != key) return false;
    for (int i = pos; i + 1 < leaf->count; i++) {
      leaf->keys[i] = leaf->keys[i + 1];
      leaf->values[i] = leaf->values[i + 1];
    }
    leaf->count--;
    return true;
  }
  auto* inner = static_cast<InnerNode*>(node);
  int idx = UpperBound(inner->keys, inner->count, key);
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
    delete src;
    node_bytes_ -= sizeof(LeafNode);
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
  delete src;
  node_bytes_ -= sizeof(InnerNode);
  for (int i = sep; i + 1 < parent->count; i++) {
    parent->keys[i] = parent->keys[i + 1];
    parent->children[i + 1] = parent->children[i + 2];
  }
  parent->count--;
}

const BTree::LeafNode* BTree::FindLeaf(std::string_view key) const {
  if (!root_) return nullptr;
  const Node* node = root_;
  while (!node->leaf) {
    const auto* inner = static_cast<const InnerNode*>(node);
    node = inner->children[UpperBound(inner->keys, inner->count, key)];
  }
  return static_cast<const LeafNode*>(node);
}

bool BTree::Lookup(std::string_view key, uint64_t* value) const {
  const LeafNode* leaf = FindLeaf(key);
  if (!leaf) return false;
  int pos = LowerBound(leaf->keys, leaf->count, key);
  if (pos < leaf->count && KeyAt(leaf->keys[pos]) == key) {
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
  int pos = LowerBound(leaf->keys, leaf->count, start);
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

size_t BTree::MemoryBytes() const { return node_bytes_ + key_bytes_; }

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

std::string BTree::CheckRec(const Node* node, const KeyRef* lo,
                            const KeyRef* hi, int depth,
                            int expect_depth, bool spine,
                            std::vector<const LeafNode*>* leaves) const {
  if (node->count == 0) return "empty node";
  if (node != root_ && !spine && node->count < kMinFill)
    return "node below kMinFill off the right spine";
  if (node->leaf) {
    if (depth != expect_depth) return "leaves at different depths";
    const auto* leaf = static_cast<const LeafNode*>(node);
    for (int i = 0; i + 1 < leaf->count; i++)
      if (!(KeyAt(leaf->keys[i]) < KeyAt(leaf->keys[i + 1])))
        return "leaf keys out of order";
    if (lo && !(KeyAt(*lo) <= KeyAt(leaf->keys[0])))
      return "leaf below lower bound";
    if (hi && !(KeyAt(leaf->keys[leaf->count - 1]) < KeyAt(*hi)))
      return "leaf above upper bound";
    leaves->push_back(leaf);
    return "";
  }
  const auto* inner = static_cast<const InnerNode*>(node);
  for (int i = 0; i + 1 < inner->count; i++)
    if (!(KeyAt(inner->keys[i]) < KeyAt(inner->keys[i + 1])))
      return "inner keys out of order";
  for (int i = 0; i <= inner->count; i++) {
    const KeyRef* clo = i == 0 ? lo : &inner->keys[i - 1];
    const KeyRef* chi = i == inner->count ? hi : &inner->keys[i];
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
