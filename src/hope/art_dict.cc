// ART-based dictionary for the ALM / ALM-Improved schemes (§4.2).
//
// A radix tree with adaptive node sizes (Node4/16/48/256, after Leis et
// al.) modified as the paper describes: it supports prefix keys (a
// boundary may end at an interior node — the terminator entry), stores
// full prefixes structurally (no optimistic common-prefix skipping, since
// there is no tuple to verify against), and its leaves carry dictionary
// entries instead of tuple pointers. Lookup is a predecessor ("<=")
// search.
// Node4/16 child scans are SIMD (one compare + movemask, after Leis et
// al. §5); Node48/256 carry a 256-bit presence bitmap so the predecessor
// child is one branch-free PrevSetBit instead of a backward slot scan.
// EncodeSpan devirtualizes the per-key loop.
#include <cstring>
#include <stdexcept>

#include "common/check.h"
#include "common/simd.h"
#include "hope/dictionary.h"

namespace hope {

namespace {

enum NodeType : uint8_t { kNode4, kNode16, kNode48, kNode256 };

struct ArtNode {
  NodeType type;
  uint16_t num_children = 0;
  int32_t term_entry = -1;
};

struct ArtNode4 : ArtNode {
  uint8_t keys[4];
  ArtNode* children[4];
};

struct ArtNode16 : ArtNode {
  uint8_t keys[16];
  ArtNode* children[16];
};

struct ArtNode48 : ArtNode {
  uint8_t child_index[256];  // 0xFF = none
  ArtNode* children[48];
  uint64_t bm[4] = {0, 0, 0, 0};  // present keys, MSB-first per word
};

struct ArtNode256 : ArtNode {
  ArtNode* children[256];
  uint64_t bm[4] = {0, 0, 0, 0};  // present keys, MSB-first per word
};

/// Marks key b present in a node's 256-bit bitmap (same MSB-first layout
/// as the bitmap trie, so simd::PrevSetBit256 serves both).
inline void SetBit256(uint64_t bm[4], uint8_t b) {
  bm[b >> 6] |= uint64_t{1} << (63 - (b & 63));
}

void DeleteNode(ArtNode* node) {
  // Destructors are trivial but delete must see the true type.
  switch (node->type) {
    case kNode4: delete static_cast<ArtNode4*>(node); break;
    case kNode16: delete static_cast<ArtNode16*>(node); break;
    case kNode48: delete static_cast<ArtNode48*>(node); break;
    case kNode256: delete static_cast<ArtNode256*>(node); break;
  }
}

size_t NodeSize(NodeType type) {
  switch (type) {
    case kNode4: return sizeof(ArtNode4);
    case kNode16: return sizeof(ArtNode16);
    case kNode48: return sizeof(ArtNode48);
    case kNode256: return sizeof(ArtNode256);
  }
  return 0;
}

ArtNode* FindChild(const ArtNode* node, uint8_t b) {
  switch (node->type) {
    case kNode4: {
      auto* n = static_cast<const ArtNode4*>(node);
      for (int i = 0; i < n->num_children; i++)
        if (n->keys[i] == b) return n->children[i];
      return nullptr;
    }
    case kNode16: {
      // One vector compare + movemask over all 16 key slots.
      auto* n = static_cast<const ArtNode16*>(node);
      int i = simd::FindByteEq16(n->keys, n->num_children, b);
      return i >= 0 ? n->children[i] : nullptr;
    }
    case kNode48: {
      auto* n = static_cast<const ArtNode48*>(node);
      return n->child_index[b] == 0xFF ? nullptr
                                       : n->children[n->child_index[b]];
    }
    case kNode256: {
      auto* n = static_cast<const ArtNode256*>(node);
      return n->children[b];
    }
  }
  return nullptr;
}

/// Largest child with key strictly below b (pass 256 for "max child").
ArtNode* PrevChild(const ArtNode* node, int b) {
  switch (node->type) {
    case kNode4: {
      auto* n = static_cast<const ArtNode4*>(node);
      ArtNode* best = nullptr;
      for (int i = 0; i < n->num_children && n->keys[i] < b; i++)
        best = n->children[i];  // keys sorted ascending
      return best;
    }
    case kNode16: {
      auto* n = static_cast<const ArtNode16*>(node);
      int c = simd::CountBytesLt16(n->keys, n->num_children,
                                   static_cast<unsigned>(b));
      return c > 0 ? n->children[c - 1] : nullptr;
    }
    case kNode48: {
      // Presence bitmap: one branch-free PrevSetBit instead of scanning
      // up to 256 child_index slots backwards.
      auto* n = static_cast<const ArtNode48*>(node);
      int k = simd::PrevSetBit256(n->bm, static_cast<unsigned>(b));
      return k >= 0 ? n->children[n->child_index[k]] : nullptr;
    }
    case kNode256: {
      auto* n = static_cast<const ArtNode256*>(node);
      int k = simd::PrevSetBit256(n->bm, static_cast<unsigned>(b));
      return k >= 0 ? n->children[k] : nullptr;
    }
  }
  return nullptr;
}

class ArtDict : public Dictionary {
 public:
  explicit ArtDict(const std::vector<DictEntry>& entries) {
    root_ = NewNode(kNode4);
    payload_.reserve(entries.size());
    for (size_t i = 0; i < entries.size(); i++) {
      payload_.push_back(PackEntry(entries[i]));
      Insert(entries[i].left_bound, static_cast<int32_t>(i));
    }
    num_entries_ = entries.size();
  }

  ~ArtDict() override { Free(root_); }

  ArtDict(const ArtDict&) = delete;
  ArtDict& operator=(const ArtDict&) = delete;

  LookupResult Lookup(std::string_view src) const override {
    return Result(LookupEntry(src));
  }

  // Devirtualized hot path: all descents for one key run inside this
  // concrete type — one virtual call per key instead of one per symbol.
  void EncodeSpan(std::string_view src, size_t base, BitWriter* writer,
                  std::vector<EncodeTrace>* trace) const override {
    size_t pos = base;
    while (pos < src.size()) {
      if (trace)
        trace->push_back({static_cast<uint32_t>(pos),
                          static_cast<uint32_t>(writer->total_bits())});
      LookupResult r = Result(LookupEntry(src.substr(pos)));
      writer->Append(r.code);
      pos += r.consumed;
    }
  }

  size_t NumEntries() const override { return num_entries_; }

  size_t MemoryBytes() const override {
    return memory_ + payload_.capacity() * sizeof(PackedCode);
  }

  size_t MaxLookahead() const override {
    return std::numeric_limits<size_t>::max();
  }

  const char* Name() const override { return "art"; }

 private:
  int32_t LookupEntry(std::string_view src) const {
    int32_t cand_entry = -1;
    const ArtNode* cand_subtree = nullptr;

    const ArtNode* node = root_;
    size_t d = 0;
    while (true) {
      if (node->term_entry >= 0) {
        cand_entry = node->term_entry;
        cand_subtree = nullptr;
      }
      if (d >= src.size()) break;
      uint8_t b = static_cast<uint8_t>(src[d]);
      if (const ArtNode* prev = PrevChild(node, b)) cand_subtree = prev;
      const ArtNode* next = FindChild(node, b);
      if (!next) break;
      node = next;
      d++;
    }
    if (cand_subtree) {
      // Max-descent: the largest boundary in the subtree.
      const ArtNode* cur = cand_subtree;
      while (const ArtNode* mc = PrevChild(cur, 256)) cur = mc;
      HOPE_DCHECK(cur->term_entry >= 0);
      return cur->term_entry;
    }
    HOPE_DCHECK_MSG(cand_entry >= 0,
                    "complete dictionary: \"\" is a boundary");
    return cand_entry;
  }

  LookupResult Result(int32_t entry) const {
    return UnpackEntry(payload_[entry]);
  }

  ArtNode* NewNode(NodeType type) {
    memory_ += NodeSize(type);
    switch (type) {
      case kNode4: {
        auto* n = new ArtNode4();
        n->type = kNode4;
        return n;
      }
      case kNode16: {
        auto* n = new ArtNode16();
        n->type = kNode16;
        return n;
      }
      case kNode48: {
        auto* n = new ArtNode48();
        n->type = kNode48;
        std::memset(n->child_index, 0xFF, sizeof(n->child_index));
        return n;
      }
      case kNode256: {
        auto* n = new ArtNode256();
        n->type = kNode256;
        std::memset(n->children, 0, sizeof(n->children));
        return n;
      }
    }
    return nullptr;
  }

  void Insert(const std::string& boundary, int32_t entry) {
    ArtNode** slot = &root_;
    for (char ch : boundary) {
      uint8_t b = static_cast<uint8_t>(ch);
      ArtNode* node = *slot;
      if (ArtNode** child_slot = FindChildSlot(node, b)) {
        slot = child_slot;
        continue;
      }
      if (IsFull(node)) {
        node = Grow(node);
        *slot = node;
      }
      slot = AddChild(node, b, NewNode(kNode4));
    }
    (*slot)->term_entry = entry;
  }

  static ArtNode** FindChildSlot(ArtNode* node, uint8_t b) {
    switch (node->type) {
      case kNode4: {
        auto* n = static_cast<ArtNode4*>(node);
        for (int i = 0; i < n->num_children; i++)
          if (n->keys[i] == b) return &n->children[i];
        return nullptr;
      }
      case kNode16: {
        auto* n = static_cast<ArtNode16*>(node);
        for (int i = 0; i < n->num_children; i++)
          if (n->keys[i] == b) return &n->children[i];
        return nullptr;
      }
      case kNode48: {
        auto* n = static_cast<ArtNode48*>(node);
        return n->child_index[b] == 0xFF ? nullptr
                                         : &n->children[n->child_index[b]];
      }
      case kNode256: {
        auto* n = static_cast<ArtNode256*>(node);
        return n->children[b] ? &n->children[b] : nullptr;
      }
    }
    return nullptr;
  }

  static bool IsFull(const ArtNode* node) {
    switch (node->type) {
      case kNode4: return node->num_children >= 4;
      case kNode16: return node->num_children >= 16;
      case kNode48: return node->num_children >= 48;
      case kNode256: return false;
    }
    return false;
  }

  /// Adds a child to a non-full node; returns the slot holding the child.
  static ArtNode** AddChild(ArtNode* node, uint8_t b, ArtNode* child) {
    switch (node->type) {
      case kNode4: {
        auto* n = static_cast<ArtNode4*>(node);
        int pos = InsertSorted(n->keys, n->children, n->num_children, b,
                               child);
        n->num_children++;
        return &n->children[pos];
      }
      case kNode16: {
        auto* n = static_cast<ArtNode16*>(node);
        int pos = InsertSorted(n->keys, n->children, n->num_children, b,
                               child);
        n->num_children++;
        return &n->children[pos];
      }
      case kNode48: {
        auto* n = static_cast<ArtNode48*>(node);
        n->child_index[b] = static_cast<uint8_t>(n->num_children);
        n->children[n->num_children] = child;
        SetBit256(n->bm, b);
        return &n->children[n->num_children++];
      }
      case kNode256: {
        auto* n = static_cast<ArtNode256*>(node);
        n->children[b] = child;
        n->num_children++;
        SetBit256(n->bm, b);
        return &n->children[b];
      }
    }
    return nullptr;
  }

  template <size_t N>
  static int InsertSorted(uint8_t (&keys)[N], ArtNode* (&children)[N],
                          int count, uint8_t b, ArtNode* child) {
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

  /// Grows a full node to the next size class and returns the new node;
  /// the caller fixes the parent slot.
  ArtNode* Grow(ArtNode* old) {
    ArtNode* bigger = nullptr;
    switch (old->type) {
      case kNode4: {
        auto* o = static_cast<ArtNode4*>(old);
        auto* n = static_cast<ArtNode16*>(NewNode(kNode16));
        for (int i = 0; i < 4; i++) {
          n->keys[i] = o->keys[i];
          n->children[i] = o->children[i];
        }
        n->num_children = 4;
        bigger = n;
        break;
      }
      case kNode16: {
        auto* o = static_cast<ArtNode16*>(old);
        auto* n = static_cast<ArtNode48*>(NewNode(kNode48));
        for (int i = 0; i < 16; i++) {
          n->child_index[o->keys[i]] = static_cast<uint8_t>(i);
          n->children[i] = o->children[i];
          SetBit256(n->bm, o->keys[i]);
        }
        n->num_children = 16;
        bigger = n;
        break;
      }
      case kNode48: {
        auto* o = static_cast<ArtNode48*>(old);
        auto* n = static_cast<ArtNode256*>(NewNode(kNode256));
        for (int b = 0; b < 256; b++)
          if (o->child_index[b] != 0xFF)
            n->children[b] = o->children[o->child_index[b]];
        std::memcpy(n->bm, o->bm, sizeof(n->bm));
        n->num_children = o->num_children;
        bigger = n;
        break;
      }
      case kNode256:
        HOPE_CHECK_MSG(false, "Node256 never grows");
        return old;
    }
    bigger->term_entry = old->term_entry;
    memory_ -= NodeSize(old->type);
    DeleteNode(old);
    return bigger;
  }

  void Free(ArtNode* node) {
    if (!node) return;
    switch (node->type) {
      case kNode4: {
        auto* n = static_cast<ArtNode4*>(node);
        for (int i = 0; i < n->num_children; i++) Free(n->children[i]);
        break;
      }
      case kNode16: {
        auto* n = static_cast<ArtNode16*>(node);
        for (int i = 0; i < n->num_children; i++) Free(n->children[i]);
        break;
      }
      case kNode48: {
        auto* n = static_cast<ArtNode48*>(node);
        for (int i = 0; i < n->num_children; i++) Free(n->children[i]);
        break;
      }
      case kNode256: {
        auto* n = static_cast<ArtNode256*>(node);
        for (int b = 0; b < 256; b++) Free(n->children[b]);
        break;
      }
    }
    DeleteNode(node);
  }

  ArtNode* root_ = nullptr;
  std::vector<PackedCode> payload_;
  size_t num_entries_ = 0;
  size_t memory_ = 0;
};

}  // namespace

std::unique_ptr<Dictionary> MakeArtDict(const std::vector<DictEntry>& entries) {
  return std::make_unique<ArtDict>(entries);
}

}  // namespace hope
