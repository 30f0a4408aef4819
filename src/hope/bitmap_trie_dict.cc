// Bitmap-trie dictionary for the 3-Grams / 4-Grams schemes (§4.2, Fig. 6).
//
// An n-level trie stored as per-level node arrays. Each node holds a
// 256-bit bitmap of its branches plus the rank (index) of its first child
// in the next level, so following a branch costs one popcount. Boundaries
// shorter than n bytes terminate at an internal node (the paper borrows a
// bit from the counter for the terminator ∅; we store an explicit entry
// id). A lookup finds the last boundary <= src by walking the trie and
// falling back to the largest smaller branch when the walk diverges.
//
// The hot path is devirtualized (EncodeSpan consumes a whole key in one
// virtual call) and fuses the top two trie levels into a precomputed
// dispatch table: one 16-bit load on (byte0, byte1) replaces the first
// two node visits — bitmap tests, ranks and the candidate bookkeeping —
// and pairs that diverge within those levels collapse to their fully
// resolved predecessor entry. A parallel 256-entry table answers the
// 1-byte tail lookups every key ends with.
#include <cstring>
#include <stdexcept>

#include "common/check.h"
#include "common/simd.h"
#include "hope/dictionary.h"

namespace hope {

namespace {

struct TrieNode {
  uint64_t bm[4] = {0, 0, 0, 0};
  uint32_t child_base = 0;  ///< index of first child in the next level
  int32_t term_entry = -1;  ///< entry id when the path itself is a boundary
  uint32_t entry_base = 0;  ///< last level: entry id of the first set bit
  /// Cumulative popcount of bm[0..w): turns RankBelow into one byte load
  /// plus one masked popcount (the struct had 4 bytes of padding anyway).
  /// cum[3] <= 192, so uint8_t never overflows. Filled by FinishNode once
  /// the bitmap is complete.
  uint8_t cum[4] = {0, 0, 0, 0};

  void SetBit(unsigned b) { bm[b >> 6] |= uint64_t{1} << (63 - (b & 63)); }
  bool GetBit(unsigned b) const {
    return (bm[b >> 6] >> (63 - (b & 63))) & 1;
  }
  void FinishNode() {
    unsigned r = 0;
    for (unsigned w = 0; w < 4; w++) {
      cum[w] = static_cast<uint8_t>(r);
      r += simd::PopCount64(bm[w]);
    }
  }
  /// Number of set bits strictly below position b (b <= 256). The
  /// template variant lets hot loops hoist the runtime POPCNT probe
  /// (simd::HavePopcnt) and inline the hardware instruction.
  template <bool Hw>
  unsigned RankBelowT(unsigned b) const {
    if (b >= 256) return Total();
    unsigned w = b >> 6, bit = b & 63;
    unsigned r = cum[w];
    if (bit)
      r += static_cast<unsigned>(simd::PopCount64T<Hw>(bm[w] >> (64 - bit)));
    return r;
  }
  unsigned RankBelow(unsigned b) const { return RankBelowT<false>(b); }
  /// Total number of set bits.
  template <bool Hw>
  unsigned TotalT() const {
    return cum[3] + static_cast<unsigned>(simd::PopCount64T<Hw>(bm[3]));
  }
  unsigned Total() const { return TotalT<false>(); }
  bool HasBranches() const { return (bm[0] | bm[1] | bm[2] | bm[3]) != 0; }
};
static_assert(sizeof(TrieNode) == 48,
              "cum ranks live in what used to be padding");

class BitmapTrieDict : public Dictionary {
 public:
  BitmapTrieDict(const std::vector<DictEntry>& entries, int n) : n_(n) {
    levels_.resize(n);
    payload_.reserve(entries.size());
    for (const auto& e : entries) {
      if (e.left_bound.size() > static_cast<size_t>(n))
        throw std::invalid_argument("BitmapTrieDict: boundary too long");
      payload_.push_back(PackEntry(e));
    }
    Build(entries, 0, entries.size(), 0);
    for (auto& level : levels_)
      for (auto& nd : level) nd.FinishNode();
    num_entries_ = entries.size();
    BuildFused();  // after FinishNode: the replay ranks through cum
  }

  LookupResult Lookup(std::string_view src) const override {
    return Result(LookupEntry(src));
  }

  size_t NumEntries() const override { return num_entries_; }

  size_t MemoryBytes() const override {
    size_t bytes = payload_.capacity() * sizeof(PackedCode);
    for (const auto& level : levels_)
      bytes += level.capacity() * sizeof(TrieNode);
    bytes += fused_slots_.capacity() * sizeof(uint16_t);
    return bytes;
  }

  size_t MaxLookahead() const override { return static_cast<size_t>(n_); }

  const char* Name() const override {
    return n_ == 3 ? "bitmap-trie-3" : "bitmap-trie-4";
  }

  // Devirtualized hot path: all descents for one key run inside this
  // concrete type — one virtual call per key instead of one per gram —
  // and each descent with at least two bytes left starts from the fused
  // (byte0, byte1) table instead of walking the top two levels.
  void EncodeSpan(std::string_view src, size_t base, BitWriter* writer,
                  std::vector<EncodeTrace>* trace) const override {
    if (fused_) {
      // n_ is 3 or 4 by construction; the templated body unrolls the
      // below-table walk, keeps the hoisted array pointers live across
      // grams (through the Dictionary pointer they would be re-chased
      // after every append, since the writer's byte buffer may alias) and
      // bakes the POPCNT probe in so each rank is one instruction.
      const bool hw = simd::HavePopcnt();
      if (n_ == 3)
        return hw ? EncodeSpanFused<3, true>(src, base, writer, trace)
                  : EncodeSpanFused<3, false>(src, base, writer, trace);
      return hw ? EncodeSpanFused<4, true>(src, base, writer, trace)
                : EncodeSpanFused<4, false>(src, base, writer, trace);
    }
    size_t pos = base;
    while (pos < src.size()) {
      if (trace)
        trace->push_back({static_cast<uint32_t>(pos),
                          static_cast<uint32_t>(writer->total_bits())});
      std::string_view rest = src.substr(pos);
      int64_t entry;
      if (rest.size() >= 2) {
        entry = LookupEntry(rest);
      } else {
        int32_t e = fused_single_[static_cast<uint8_t>(rest[0])];
        entry = e >= 0 ? e : LookupEntry(rest);
      }
      LookupResult r = Result(entry);
      writer->Append(r.code);
      pos += r.consumed;
    }
  }

 private:
  // The descent is rank-only: `k = RankBelow(b)` answers every question a
  // level asks. At the last level the predecessor among the node's
  // entries is the (RankBelow(b + 1) - 1)-th — one masked popcount
  // replaces the prev-set-bit scan plus a second rank. At internal levels
  // the largest smaller sibling (the candidate) is the (k - 1)-th child,
  // and the max-descent resolve takes the (Total() - 1)-th child at every
  // hop, so no bit positions are ever rediscovered.
  int64_t LookupEntry(std::string_view src) const {
    // Candidate for the predecessor: either a terminator entry on the
    // descent path or a smaller sibling branch to resolve by max-descent.
    int32_t cand_entry = -1;
    int cand_level = -1;
    uint32_t cand_node = 0;
    uint32_t cand_rank = 0;

    uint32_t node = 0;
    int d = 0;
    while (true) {
      const TrieNode& nd = levels_[d][node];
      if (nd.term_entry >= 0) {
        cand_entry = nd.term_entry;
        cand_level = -1;  // resolved candidate
      }
      if (static_cast<size_t>(d) >= src.size()) break;
      unsigned b = static_cast<uint8_t>(src[d]);
      if (d == n_ - 1) {
        // Bits at the last level are entries themselves.
        unsigned k = nd.RankBelow(b + 1);
        if (k > 0) return nd.entry_base + k - 1;
        break;
      }
      unsigned k = nd.RankBelow(b);
      if (k > 0) {
        cand_level = d;
        cand_node = node;
        cand_rank = k - 1;
        cand_entry = -1;
      }
      if (!nd.GetBit(b)) break;
      node = nd.child_base + k;
      d++;
    }

    if (cand_level < 0) {
      HOPE_DCHECK_MSG(cand_entry >= 0,
                      "complete dictionary: root has a boundary");
      return cand_entry;
    }
    return ResolveMaxDescent(cand_level, cand_node, cand_rank);
  }

  /// Resolve: the largest boundary in the subtree under the cand_rank-th
  /// child of (cand_level, cand_node). Hw defaults off so the classic
  /// paths stay portable; the fused span passes its hoisted probe.
  template <bool Hw = false>
  int64_t ResolveMaxDescent(int cand_level, uint32_t cand_node,
                            uint32_t cand_rank) const {
    const TrieNode* nd = &levels_[cand_level][cand_node];
    uint32_t child = nd->child_base + cand_rank;
    int e = cand_level + 1;
    while (true) {
      const TrieNode& cur = levels_[e][child];
      unsigned total = cur.TotalT<Hw>();
      if (total == 0) {
        HOPE_DCHECK(cur.term_entry >= 0);
        return cur.term_entry;
      }
      if (e == n_ - 1) return cur.entry_base + total - 1;
      child = cur.child_base + total - 1;
      e++;
    }
  }

  /// Fused hot loop, N = n_ and the POPCNT probe fixed at compile time.
  /// Result-identical to the generic EncodeSpan loop (pinned by
  /// simd_equivalence_test); the wins are mechanical: the slot/node/
  /// payload array pointers live in locals for the whole key, the
  /// below-table walk unrolls (at N = 3 it is a single last-level rank),
  /// each rank's popcount inlines to the picked form, and the trace bit
  /// positions come from a local counter instead of re-reading the writer
  /// after every append.
  template <int N, bool Hw>
  void EncodeSpanFused(std::string_view src, size_t base, BitWriter* writer,
                       std::vector<EncodeTrace>* trace) const {
    const char* s = src.data();
    const size_t len = src.size();
    const uint16_t* slots = fused_slots_.data();
    const PackedCode* pay = payload_.data();
    const TrieNode* lvl[N];
    for (int d = 0; d < N; d++) lvl[d] = levels_[d].data();
    size_t pos = base;
    BitWriter::Local acc(writer);
    while (pos < len) {
      if (trace)
        trace->push_back({static_cast<uint32_t>(pos),
                          static_cast<uint32_t>(acc.total_bits())});
      const size_t rem = len - pos;
      int64_t entry;
      if (rem >= 2) {
        // Speculative prefetch of the next gram's slot assuming this one
        // consumes N bytes (the common case): the next slot address
        // otherwise waits on this gram's payload decode for `consumed`.
        if (rem >= static_cast<size_t>(N) + 2)
          simd::PrefetchRead(
              &slots[(static_cast<size_t>(static_cast<uint8_t>(s[pos + N]))
                      << 8) |
                     static_cast<uint8_t>(s[pos + N + 1])]);
        const uint16_t slot =
            slots[(static_cast<size_t>(static_cast<uint8_t>(s[pos])) << 8) |
                  static_cast<uint8_t>(s[pos + 1])];
        if (!(slot & kFusedEntryFlag)) {
          // Continue the rank-only walk below the table (same candidate
          // rules as LookupEntry; a walk that diverges down here with no
          // local candidate re-runs the classic walk — rare: it needs an
          // unseen suffix under a seen two-byte prefix with no smaller
          // sibling anywhere below).
          if constexpr (N == 3) {
            // One level left: the rank answers directly, and the node's
            // terminator only matters when the rank misses (k == 0) or
            // the key ends here — so compute the rank first and leave
            // the terminator load off the hit path.
            const TrieNode& nd = lvl[2][slot];
            unsigned k =
                rem >= 3 ? nd.RankBelowT<Hw>(
                               static_cast<uint8_t>(s[pos + 2]) + 1u)
                         : 0;
            if (k > 0)
              entry = nd.entry_base + static_cast<int64_t>(k) - 1;
            else if (nd.term_entry >= 0)
              entry = nd.term_entry;
            else
              entry = LookupEntry(src.substr(pos));
          } else {
            entry = -1;
            int32_t cand_entry = -1;
            int cand_level = -1;
            uint32_t cand_node = 0;
            uint32_t cand_rank = 0;
            uint32_t node = slot;
            for (int d = 2; d < N; d++) {
              const TrieNode& nd = lvl[d][node];
              if (nd.term_entry >= 0) {
                cand_entry = nd.term_entry;
                cand_level = -1;
              }
              if (static_cast<size_t>(d) >= rem) break;
              unsigned b = static_cast<uint8_t>(s[pos + d]);
              if (d == N - 1) {
                unsigned k = nd.RankBelowT<Hw>(b + 1);
                if (k > 0) entry = nd.entry_base + k - 1;
                break;
              }
              unsigned k = nd.RankBelowT<Hw>(b);
              if (k > 0) {
                cand_level = d;
                cand_node = node;
                cand_rank = k - 1;
                cand_entry = -1;
              }
              if (!nd.GetBit(b)) break;
              node = nd.child_base + k;
            }
            if (entry < 0) {
              if (cand_level >= 0)
                entry = ResolveMaxDescent<Hw>(cand_level, cand_node, cand_rank);
              else if (cand_entry >= 0)
                entry = cand_entry;
              else
                entry = LookupEntry(src.substr(pos));
            }
          }
        } else if (slot != kFusedClassic) {
          entry = slot & kFusedValueMask;
        } else {
          entry = LookupEntry(src.substr(pos));
        }
      } else {
        int32_t e = fused_single_[static_cast<uint8_t>(s[pos])];
        entry = e >= 0 ? e : LookupEntry(src.substr(pos));
      }
      LookupResult r = UnpackEntry(pay[entry]);
      acc.Append(r.code);
      pos += r.consumed;
    }
  }

  /// Precomputes the fused (byte0, byte1) dispatch table by replaying the
  /// level-0/1 walk for every pair (a first byte the root lacks collapses
  /// its whole row to one resolved entry). Build cost is 64K bounded
  /// max-descents — microseconds next to dictionary selection — and the
  /// replay reuses the same candidate rules as LookupEntry, so the table
  /// is correct by construction. The packed slots index with 15 bits, so
  /// dictionaries too large for them (more than 32,766 entries, or more
  /// than 32,767 third-level nodes) simply keep the classic walk.
  void BuildFused() {
    std::memset(fused_single_, -1, sizeof(fused_single_));
    // Single-byte answers are exact entry ids (no packing), so they are
    // built regardless of the 15-bit slot cap below. Replayed with the
    // LookupEntry candidate rules; -1 (incomplete dictionary) defers to
    // the classic walk at lookup time.
    {
      const TrieNode& root = levels_[0][0];
      for (unsigned b = 0; b < 256; b++) {
        int32_t ce = root.term_entry;
        int cl = -1;
        uint32_t cr = 0;
        unsigned k0 = root.RankBelow(b);
        if (k0 > 0) {
          cl = 0;
          cr = k0 - 1;
          ce = -1;
        }
        if (root.GetBit(b)) {
          // Boundaries extending byte b all sort above the 1-byte key, so
          // only a terminator at its child can beat the candidate.
          const TrieNode& n1 = levels_[1][root.child_base + k0];
          if (n1.term_entry >= 0) {
            ce = n1.term_entry;
            cl = -1;
          }
        }
        fused_single_[b] = ResolveFallback(ce, cl, 0, cr);
      }
    }
    if (num_entries_ > kFusedValueMask - 1 ||
        levels_[2].size() > kFusedValueMask)
      return;
    fused_ = true;
    fused_slots_.assign(size_t{256} * 256, kFusedClassic);
    const TrieNode& root = levels_[0][0];
    for (unsigned c0 = 0; c0 < 256; c0++) {
      uint16_t* row = &fused_slots_[static_cast<size_t>(c0) << 8];
      // Candidate state after consuming byte0 at the root.
      int32_t ce0 = root.term_entry;
      int cl0 = -1;
      uint32_t cr0 = 0;
      unsigned k0 = root.RankBelow(c0);
      if (k0 > 0) {
        cl0 = 0;
        cr0 = k0 - 1;
        ce0 = -1;
      }
      if (!root.GetBit(c0)) {
        // The whole row diverges at byte0 and resolves identically.
        int32_t entry = ResolveFallback(ce0, cl0, 0, cr0);
        if (entry >= 0)
          std::fill(row, row + 256,
                    static_cast<uint16_t>(kFusedEntryFlag | entry));
        continue;
      }
      const uint32_t node1 = root.child_base + k0;
      const TrieNode& n1 = levels_[1][node1];
      for (unsigned c1 = 0; c1 < 256; c1++) {
        unsigned k1 = n1.RankBelow(c1);
        if (n1.GetBit(c1)) {
          row[c1] = static_cast<uint16_t>(n1.child_base + k1);
          continue;
        }
        // Diverged within the top two levels: fold the candidate rules
        // (terminator beats an earlier candidate; a smaller sibling beats
        // both) into one resolved entry.
        int32_t ce = ce0;
        int cl = cl0;
        uint32_t cn = 0;
        uint32_t cr = cr0;
        if (n1.term_entry >= 0) {
          ce = n1.term_entry;
          cl = -1;
        }
        if (k1 > 0) {
          cl = 1;
          cn = node1;
          cr = k1 - 1;
          ce = -1;
        }
        int32_t entry = ResolveFallback(ce, cl, cn, cr);
        if (entry >= 0)
          row[c1] = static_cast<uint16_t>(kFusedEntryFlag | entry);
      }
    }
  }

  /// Resolves a build-time candidate to an entry id. A missing candidate
  /// (incomplete dictionary below the smallest boundary) stores -1; the
  /// classic path would hit the same completeness assert for such queries.
  int32_t ResolveFallback(int32_t ce, int cl, uint32_t cn,
                          uint32_t cr) const {
    if (cl < 0) return ce;
    return static_cast<int32_t>(ResolveMaxDescent(cl, cn, cr));
  }

  LookupResult Result(int64_t entry) const {
    return UnpackEntry(payload_[entry]);
  }

  /// Builds the node for entries[lo, hi) at depth d (all sharing the first
  /// d bytes) and recursively builds its children. Returns the node index
  /// within its level. Children of one node are contiguous because the
  /// recursion finishes a node's children before its parent's siblings.
  uint32_t Build(const std::vector<DictEntry>& entries, size_t lo, size_t hi,
                 int d) {
    uint32_t idx = static_cast<uint32_t>(levels_[d].size());
    levels_[d].push_back(TrieNode());
    if (lo < hi && entries[lo].left_bound.size() == static_cast<size_t>(d)) {
      levels_[d][idx].term_entry = static_cast<int32_t>(lo);
      lo++;
    }
    if (d == n_ - 1) {
      levels_[d][idx].entry_base = static_cast<uint32_t>(lo);
      for (size_t i = lo; i < hi; i++) {
        HOPE_DCHECK(entries[i].left_bound.size() == static_cast<size_t>(n_));
        levels_[d][idx].SetBit(
            static_cast<uint8_t>(entries[i].left_bound[d]));
      }
      return idx;
    }
    if (lo < hi) {
      // Group by byte at position d and recurse in order.
      uint32_t child_base = static_cast<uint32_t>(levels_[d + 1].size());
      levels_[d][idx].child_base = child_base;
      size_t i = lo;
      while (i < hi) {
        uint8_t b = static_cast<uint8_t>(entries[i].left_bound[d]);
        size_t j = i;
        while (j < hi &&
               static_cast<uint8_t>(entries[j].left_bound[d]) == b)
          j++;
        levels_[d][idx].SetBit(b);
        Build(entries, i, j, d + 1);
        i = j;
      }
    }
    return idx;
  }

  /// Fused-table slots are 16 bits so a full row set costs 128 KiB, not
  /// 512: bit 15 clear = level-2 node index reached by the (byte0, byte1)
  /// descent; bit 15 set = resolved predecessor entry for a pair that
  /// diverges within the top two levels; all-ones = defer to the classic
  /// walk (no candidate, i.e. an incomplete dictionary).
  static constexpr uint16_t kFusedEntryFlag = 0x8000;
  static constexpr uint16_t kFusedValueMask = 0x7FFF;
  static constexpr uint16_t kFusedClassic = 0xFFFF;

  int n_;
  std::vector<std::vector<TrieNode>> levels_;
  std::vector<PackedCode> payload_;
  size_t num_entries_ = 0;
  bool fused_ = false;  ///< fused table built (see BuildFused)
  std::vector<uint16_t> fused_slots_;  ///< flat [byte0 << 8 | byte1]
  int32_t fused_single_[256];          ///< 1-byte lookup answers, -1 = walk
};

}  // namespace

std::unique_ptr<Dictionary> MakeBitmapTrieDict(
    const std::vector<DictEntry>& entries, int n) {
  return std::make_unique<BitmapTrieDict>(entries, n);
}

}  // namespace hope
