#include "hope/symbol_selector.h"

#include <algorithm>
#include <array>

#include "common/check.h"
#include "common/str_utils.h"

namespace hope {

void AddGapIntervals(const std::string& lo, const std::string& hi,
                     std::vector<IntervalSpec>* out) {
  std::string cur = lo;
  while (true) {
    if (!hi.empty() && cur >= hi) return;
    std::string prefix = IntervalCommonPrefix(cur, hi);
    if (!prefix.empty()) {
      out->push_back({cur, std::move(prefix), 0});
      return;
    }
    // No common prefix across the whole gap: peel off the first-byte
    // region of `cur`. Every non-empty string in [cur, b+1) starts with b
    // (for cur == "" the region is ["", "\x01") with symbol "\x00").
    unsigned b = cur.empty() ? 0 : static_cast<unsigned char>(cur[0]);
    out->push_back({cur, std::string(1, static_cast<char>(b)), 0});
    if (b == 255) return;  // region [cur, +inf) covered
    std::string region_end(1, static_cast<char>(b + 1));
    if (!hi.empty() && hi <= region_end) return;  // gap ends inside region
    cur = std::move(region_end);
  }
}

void TestEncodeWeights(const std::vector<std::string>& samples,
                       std::vector<IntervalSpec>* intervals) {
  // The entry for a source string is the last interval whose left bound
  // is <= the string. first[b] is the first interval whose left bound is
  // >= the 1-byte string b (first[256] = end); iv[0]'s bound is "", so
  // first[b] >= 1. A source starting with byte c is >= every bound before
  // first[c] and < every bound from first[c + 1] on, so its entry lies in
  // [first[c] - 1, first[c + 1]): one interval for Single-Char, ~257 of
  // Double-Char's 65,792 instead of all of them.
  auto& iv = *intervals;
  for (auto& spec : iv) spec.weight = 0;
  std::array<size_t, 257> first;
  size_t next = 0;
  for (unsigned b = 0; b < 256; b++) {
    while (next < iv.size() &&
           (iv[next].left_bound.empty() ||
            static_cast<unsigned char>(iv[next].left_bound[0]) < b))
      next++;
    first[b] = next;
  }
  first[256] = iv.size();
  auto lookup = [&iv, &first](std::string_view src) -> size_t {
    const auto c = static_cast<unsigned char>(src[0]);
    HOPE_DCHECK(first[c] > 0);  // iv[0]'s left bound is ""
    // invariant: iv[lo].left_bound <= src < iv[hi].left_bound
    size_t lo = first[c] - 1, hi = first[c + 1];
    while (hi - lo > 1) {
      size_t mid = (lo + hi) / 2;
      if (std::string_view(iv[mid].left_bound) <= src)
        lo = mid;
      else
        hi = mid;
    }
    return lo;
  };
  for (const std::string& key : samples) {
    std::string_view src(key);
    while (!src.empty()) {
      size_t idx = lookup(src);
      iv[idx].weight += 1;
      size_t consumed = iv[idx].symbol.size();
      HOPE_DCHECK(consumed > 0 && consumed <= src.size());
      src.remove_prefix(consumed);
    }
  }
}

std::string ValidateIntervals(const std::vector<IntervalSpec>& intervals) {
  if (intervals.empty()) return "no intervals";
  if (!intervals[0].left_bound.empty())
    return "first interval does not start at -infinity";
  for (size_t i = 0; i < intervals.size(); i++) {
    const auto& spec = intervals[i];
    const std::string& lb = spec.left_bound;
    if (spec.symbol.empty())
      return "empty symbol at index " + std::to_string(i);
    if (i + 1 < intervals.size() &&
        !(lb < intervals[i + 1].left_bound))
      return "boundaries not strictly increasing at index " +
             std::to_string(i);
    // Lower end: every non-empty string >= lb in the interval must start
    // with the symbol. This requires lb itself to start with the symbol,
    // except the head interval (lb == ""), whose shortest non-empty member
    // is "\0" and therefore requires the symbol to be exactly "\0".
    size_t lcp = LcpLen(lb, spec.symbol);
    bool lb_has_symbol_prefix = lcp == spec.symbol.size();
    bool head_like = lb.empty() && spec.symbol == std::string(1, '\0');
    if (!lb_has_symbol_prefix && !head_like)
      return "left bound does not start with symbol at index " +
             std::to_string(i);
    // Upper end: the interval must not extend past the symbol's range.
    std::string ub = PrefixUpperBound(spec.symbol);
    if (i + 1 < intervals.size()) {
      const std::string& next = intervals[i + 1].left_bound;
      if (!ub.empty() && next > ub)
        return "interval extends past symbol range at index " +
               std::to_string(i);
    } else if (!ub.empty()) {
      return "last interval's symbol does not cover +infinity";
    }
  }
  return "";
}

}  // namespace hope
