// ALM and ALM-Improved selectors (§3.3): VIFC/VIVC schemes with
// variable-length interval boundaries.
//
// ALM scores substring patterns by len(s) * freq(s) and selects the top
// ones (equivalent to the paper's threshold W, found by binary search: the
// top-k cutoff *is* that threshold). ALM counts every substring of every
// length (capped at kMaxAlmSubstring bytes, see below); the
// ALM-Improved variant only counts sample-string suffixes, which is the
// paper's build-time optimization.
//
// Because selected patterns of different lengths may violate the prefix
// property (both "sig" and "sigmod" selected), a blending pass
// redistributes each prefix pattern's count to its longest selected
// extension and drops the prefix pattern, exactly as described in §4.2.
#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/str_utils.h"
#include "hope/symbol_selector.h"

namespace hope {

namespace {

// Substring-length cap for ALM statistics; Email/Wiki keys average
// 21-22 bytes, so 16-byte patterns already exceed any common pattern.
constexpr size_t kMaxAlmSubstring = 16;
// ALM's all-substring counting is super-linear in sample bytes; cap the
// number of keys used for statistics (the interval probabilities are
// still computed on the full sample by TestEncodeWeights).
constexpr size_t kMaxAlmStatsKeys = 20000;
constexpr size_t kMaxAlmImprovedStatsKeys = 100000;
constexpr size_t kMaxSuffixLen = 24;

struct Candidate {
  std::string pattern;
  uint64_t count = 0;
  double Score() const {
    return static_cast<double>(pattern.size()) * static_cast<double>(count);
  }
};

// Resolves prefix-property violations: every candidate that is a strict
// prefix of another candidate donates its count to its *longest* selected
// extension and is removed. Candidates must be sorted; the result stays
// sorted and is prefix-free.
std::vector<Candidate> Blend(std::vector<Candidate> cands) {
  // Sorted order puts every extension of cands[i] in a contiguous range
  // right after it. Process from the end so donations cascade.
  for (size_t i = cands.size(); i-- > 0;) {
    if (i + 1 >= cands.size()) continue;
    const std::string& s = cands[i].pattern;
    if (cands[i + 1].pattern.compare(0, s.size(), s) != 0) continue;
    // s is a prefix of at least one later candidate: find its longest
    // extension within [s, PrefixUpperBound(s)).
    size_t best = i + 1;
    for (size_t j = i + 1; j < cands.size() &&
                           cands[j].pattern.compare(0, s.size(), s) == 0;
         j++) {
      if (cands[j].pattern.size() > cands[best].pattern.size()) best = j;
    }
    cands[best].count += cands[i].count;
    cands[i].count = 0;  // mark for removal
  }
  std::vector<Candidate> out;
  out.reserve(cands.size());
  for (auto& c : cands)
    if (c.count > 0) out.push_back(std::move(c));
  return out;
}

// Shared interval construction from a sorted prefix-free pattern set.
std::vector<IntervalSpec> BuildIntervals(const std::vector<Candidate>& sel) {
  std::vector<IntervalSpec> intervals;
  intervals.reserve(sel.size() * 2 + 260);
  std::string cur;  // "" = -infinity
  bool covered_to_inf = false;
  for (const Candidate& c : sel) {
    AddGapIntervals(cur, c.pattern, &intervals);
    intervals.push_back({c.pattern, c.pattern, 0});
    cur = PrefixUpperBound(c.pattern);
    if (cur.empty()) {
      covered_to_inf = true;
      break;
    }
  }
  if (!covered_to_inf) AddGapIntervals(cur, std::string(), &intervals);
  return intervals;
}

std::vector<IntervalSpec> SelectFromCounts(
    std::unordered_map<std::string, uint64_t> counts, size_t dict_limit) {
  std::vector<Candidate> cands;
  cands.reserve(counts.size());
  for (auto& [pattern, cnt] : counts)
    cands.push_back({pattern, cnt});
  counts.clear();

  // Top-k by score (== the paper's threshold W found by binary search);
  // take some slack because blending removes prefix patterns.
  size_t target = std::max<size_t>(1, dict_limit / 2);
  size_t take = std::min(cands.size(), target + target / 4);
  std::nth_element(cands.begin(), cands.begin() + take, cands.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.Score() > b.Score();
                   });
  cands.resize(take);
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.pattern < b.pattern;
            });
  cands = Blend(std::move(cands));
  if (cands.size() > target) {
    // Trim the lowest-scoring survivors to the target size.
    std::vector<Candidate> ranked = cands;
    std::nth_element(ranked.begin(), ranked.begin() + target, ranked.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.Score() > b.Score();
                     });
    double cutoff = ranked[target - 1].Score();
    std::vector<Candidate> trimmed;
    trimmed.reserve(target);
    for (auto& c : cands) {
      if (c.Score() >= cutoff && trimmed.size() < target)
        trimmed.push_back(std::move(c));
    }
    cands = std::move(trimmed);
  }
  return BuildIntervals(cands);
}

class AlmSelector : public SymbolSelector {
 public:
  std::vector<IntervalSpec> Select(const std::vector<std::string>& samples,
                                   size_t dict_limit) override {
    std::unordered_map<std::string, uint64_t> counts;
    counts.reserve(1 << 20);
    size_t nkeys = std::min(samples.size(), kMaxAlmStatsKeys);
    for (size_t k = 0; k < nkeys; k++) {
      const std::string& key = samples[k];
      for (size_t i = 0; i < key.size(); i++) {
        size_t max_len = std::min(kMaxAlmSubstring, key.size() - i);
        for (size_t len = 1; len <= max_len; len++)
          counts[key.substr(i, len)]++;
      }
    }
    return SelectFromCounts(std::move(counts), dict_limit);
  }
};

class AlmImprovedSelector : public SymbolSelector {
 public:
  std::vector<IntervalSpec> Select(const std::vector<std::string>& samples,
                                   size_t dict_limit) override {
    // Count only suffixes of the sample strings (§3.3: "we simplify this
    // by only collecting statistics for substrings that are suffixes of
    // the sample source strings"). A pattern's frequency is the number of
    // suffixes it prefixes, so short prefixes of each suffix are counted
    // too (up to kMaxShortPrefix bytes — beyond that, only the full
    // capped suffix remains a candidate, which keeps the map linear in
    // the sample size unlike ALM's all-substrings pass).
    constexpr size_t kMaxShortPrefix = 8;
    std::unordered_map<std::string, uint64_t> counts;
    counts.reserve(1 << 20);
    size_t nkeys = std::min(samples.size(), kMaxAlmImprovedStatsKeys);
    for (size_t k = 0; k < nkeys; k++) {
      const std::string& key = samples[k];
      for (size_t i = 0; i < key.size(); i++) {
        size_t remaining = key.size() - i;
        size_t max_short = std::min(kMaxShortPrefix, remaining);
        for (size_t len = 1; len <= max_short; len++)
          counts[key.substr(i, len)]++;
        if (remaining > kMaxShortPrefix)
          counts[key.substr(i, std::min(kMaxSuffixLen, remaining))]++;
      }
    }
    return SelectFromCounts(std::move(counts), dict_limit);
  }
};

}  // namespace

std::unique_ptr<SymbolSelector> MakeAlmSelector() {
  return std::make_unique<AlmSelector>();
}

std::unique_ptr<SymbolSelector> MakeAlmImprovedSelector() {
  return std::make_unique<AlmImprovedSelector>();
}

}  // namespace hope
