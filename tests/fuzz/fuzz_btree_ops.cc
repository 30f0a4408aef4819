// Fuzz target: differential tree operations against std::map.
//
// The same input drives BTree, Art and Hot in turn, each against its own
// shadow map. The input is a stream of operations, one selector byte
// each (an arbitrary key may be empty):
//   0 append-max  a key past the current maximum (its successor plus a
//                 short suffix), the path the rightmost-leaf fast path and
//                 the right-spine append splits serve
//   1 insert      an arbitrary short key
//   2 overwrite   a new value for an existing key (the maximum, or the
//                 first key at or after a probe)
//   3 erase       the first key at or after a probe, or the probe itself
//   4 lookup      an arbitrary probe
//   5 scan        up to 32 values from an arbitrary start key
//   6 long insert 65,533-65,536 (selector 0-3) or 253-256 (selector
//                 4-7) copies of one byte plus a short suffix, keys on
//                 both sides of the arena's 16-bit length tag and of
//                 BTree's 1-byte length
//   7 churn       erase 1-16 consecutive keys from a probe on (wrapping
//                 to the first key) and insert them again, so the next
//                 allocations take the freed node and leaf blocks back off
//                 the arena's free lists
// Every result must match the shadow map, and the tree's invariants (for
// BTree: order, fill, leaf chain, rightmost leaf) must hold every
// kCheckEvery operations and at the end. Finally every key is erased:
// Art and Hot must then report 0 bytes (BTree keeps its key bytes until
// it is destroyed, by design).
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "art/art.h"
#include "btree/btree.h"
#include "common/check.h"
#include "hot/hot.h"
#include "tests/fuzz/fuzz_input.h"

namespace {

constexpr uint64_t kCheckEvery = 64;

/// A short key greater than `key`: bump its last byte below 0xFF and drop
/// what follows; a key of 0xFF bytes only (or the empty key) grows by one.
std::string Successor(const std::string& key) {
  std::string next = key;
  while (!next.empty() && static_cast<uint8_t>(next.back()) == 0xFF)
    next.pop_back();
  if (next.empty()) return key + '\0';
  next.back() = static_cast<char>(static_cast<uint8_t>(next.back()) + 1);
  return next;
}

template <typename Tree>
void RunOps(const uint8_t* data, size_t size) {
  hope::fuzz::FuzzInput in(data, size);
  Tree tree;
  std::map<std::string, uint64_t> shadow;
  uint64_t value = 0;
  while (in.remaining() > 0) {
    value++;
    switch (in.TakeByte() % 8) {
      case 0: {
        std::string key = shadow.empty() ? in.TakeString(8)
                                         : Successor(shadow.rbegin()->first) +
                                               in.TakeString(3);
        HOPE_CHECK_MSG(shadow.empty() || key > shadow.rbegin()->first,
                       "append key is not past the maximum");
        tree.Insert(key, value);
        shadow[key] = value;
        break;
      }
      case 1: {
        std::string key = in.TakeString(8);
        tree.Insert(key, value);
        shadow[key] = value;
        break;
      }
      case 2: {
        if (shadow.empty()) break;
        std::string probe = in.TakeString(8);
        auto it = probe.empty() ? std::prev(shadow.end())
                                : shadow.lower_bound(probe);
        if (it == shadow.end()) it = std::prev(shadow.end());
        tree.Insert(it->first, value);
        it->second = value;
        break;
      }
      case 3: {
        std::string key = in.TakeString(8);
        auto it = shadow.lower_bound(key);
        if (in.TakeBool() && it != shadow.end()) key = it->first;
        bool erased = shadow.erase(key) == 1;
        HOPE_CHECK_MSG(tree.Erase(key) == erased, "erase disagrees with map");
        break;
      }
      case 4: {
        std::string key = in.TakeString(8);
        auto it = shadow.find(key);
        uint64_t got = 0;
        bool found = tree.Lookup(key, &got);
        HOPE_CHECK_MSG(found == (it != shadow.end()),
                       "lookup hit/miss disagrees with map");
        HOPE_CHECK_MSG(!found || got == it->second,
                       "lookup value disagrees with map");
        break;
      }
      case 5: {
        std::string start = in.TakeString(8);
        size_t count = in.TakeByte() % 32;
        std::vector<uint64_t> got;
        HOPE_CHECK_MSG(tree.Scan(start, count, &got) == got.size(),
                       "scan count disagrees with its output");
        auto it = shadow.lower_bound(start);
        for (uint64_t v : got) {
          HOPE_CHECK_MSG(it != shadow.end() && it->second == v,
                         "scan value disagrees with map");
          ++it;
        }
        HOPE_CHECK_MSG(got.size() == count || it == shadow.end(),
                       "scan stopped early");
        break;
      }
      case 7: {
        size_t n = 1 + in.TakeByte() % 16;
        auto it = shadow.lower_bound(in.TakeString(8));
        std::vector<std::string> moved;
        for (; n > 0 && !shadow.empty(); n--) {
          if (it == shadow.end()) it = shadow.begin();
          moved.push_back(it->first);
          HOPE_CHECK_MSG(tree.Erase(it->first), "churn erase missed a key");
          it = shadow.erase(it);
        }
        for (const auto& key : moved) {
          tree.Insert(key, value);
          shadow[key] = value;
        }
        break;
      }
      default: {
        static constexpr size_t kLens[] = {65533, 65534, 65535, 65536,
                                           253,   254,   255,   256};
        size_t len = kLens[in.TakeByte() % 8];
        std::string key(len, static_cast<char>(in.TakeByte()));
        key += in.TakeString(3);
        tree.Insert(key, value);
        shadow[key] = value;
        uint64_t got = 0;
        HOPE_CHECK_MSG(tree.Lookup(key, &got) && got == value,
                       "long key lookup disagrees with map");
        break;
      }
    }
    HOPE_CHECK_MSG(tree.size() == shadow.size(), "size disagrees with map");
    if (value % kCheckEvery == 0)
      HOPE_CHECK_MSG(tree.CheckInvariants().empty(), "tree invariant broken");
  }
  HOPE_CHECK_MSG(tree.CheckInvariants().empty(), "tree invariant broken");
  std::vector<uint64_t> all;
  tree.Scan("", shadow.size() + 1, &all);
  HOPE_CHECK_MSG(all.size() == shadow.size(), "full scan size disagrees");
  size_t i = 0;
  for (const auto& kv : shadow)
    HOPE_CHECK_MSG(all[i++] == kv.second, "full scan disagrees with map");
  for (const auto& kv : shadow)
    HOPE_CHECK_MSG(tree.Erase(kv.first), "final erase missed a key");
  HOPE_CHECK_MSG(tree.size() == 0, "tree not empty after erasing all");
  if constexpr (!std::is_same_v<Tree, hope::BTree>)
    HOPE_CHECK_MSG(tree.MemoryBytes() == 0, "empty tree reports memory");
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  RunOps<hope::BTree>(data, size);
  RunOps<hope::Art>(data, size);
  RunOps<hope::Hot>(data, size);
  return 0;
}
