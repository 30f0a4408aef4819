// Symbol selection (§3.3 / §4.2): divides the string axis into connected,
// disjoint intervals with non-empty common prefixes, using the heuristics
// of each compression scheme, and computes interval access weights with a
// test-encode pass over the sample keys.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hope/interval.h"

namespace hope {

/// Base class of the per-scheme interval-division heuristics.
class SymbolSelector {
 public:
  virtual ~SymbolSelector() = default;

  /// Divides the string axis into intervals given sampled keys and a
  /// target dictionary size. The result is sorted by left bound, complete
  /// (first bound is ""), and each interval has a non-empty symbol.
  /// Weights are *not* yet filled (see TestEncodeWeights).
  virtual std::vector<IntervalSpec> Select(
      const std::vector<std::string>& samples, size_t dict_limit) = 0;
};

/// Appends connected intervals covering the gap [lo, hi) (hi == "" means
/// +infinity), splitting at first-byte boundaries whenever the whole gap
/// has no common prefix, so that every emitted interval has a non-empty
/// symbol.
void AddGapIntervals(const std::string& lo, const std::string& hi,
                     std::vector<IntervalSpec>* out);

/// Runs a test encode of the samples against the intervals and fills each
/// interval's access weight (§4.2: "it performs a test encoding of the
/// sample keys ... to obtain the probability that a source string falls
/// into each interval"). Each lookup binary-searches only the intervals
/// whose left bounds share the source's first byte (plus the one before
/// them), found through a 257-entry first-byte table built once per call;
/// the weights equal those of a search over all intervals.
void TestEncodeWeights(const std::vector<std::string>& samples,
                       std::vector<IntervalSpec>* intervals);

/// Checks the string-axis invariants (§3.1): sorted connected boundaries
/// starting at "", non-empty symbols, and each symbol being the prefix of
/// every string in its interval. Returns an error description or "" if OK.
std::string ValidateIntervals(const std::vector<IntervalSpec>& intervals);

/// Factory helpers for the six schemes' selectors.
std::unique_ptr<SymbolSelector> MakeSingleCharSelector();
std::unique_ptr<SymbolSelector> MakeDoubleCharSelector();
std::unique_ptr<SymbolSelector> MakeNGramSelector(int n);  // n = 3 or 4
std::unique_ptr<SymbolSelector> MakeAlmSelector();
std::unique_ptr<SymbolSelector> MakeAlmImprovedSelector();

}  // namespace hope
