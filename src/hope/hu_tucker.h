// Optimal order-preserving (alphabetic) prefix codes.
//
// The paper assigns Hu-Tucker codes to dictionary intervals (§4.2). We
// compute the same optimal alphabetic binary tree with the Garsia-Wachs
// algorithm, which is provably cost-equivalent to Hu-Tucker and has a
// simpler combination phase.
//
// Cost: the work list is kept as [stack | gap | unread input], so a merge
// never shifts the unread tail. A merge memmoves only the stack items
// between its insertion point and the stack top, and the scan rereads
// them, so its cost is proportional to how far the merged item moves
// left; each item the scan pulls from the input costs one step. Real
// dictionary weights keep those moves short: Double-Char's 65,792
// intervals take ~5 ms, every 3-/4-Grams and ALM-Improved dictionary a
// few ms. Only adversarial shapes make the moves long and the phase
// quadratic (2^16 sorted or uniform random weights: 0.5-3 s).
//
// Codes are emitted in alphabetic order, so c_0 < c_1 < ... < c_{n-1} as
// bit strings, and the code set is prefix-free — exactly the properties
// §3.1 requires for an order-preserving dictionary.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bits.h"

namespace hope {

/// Computes optimal alphabetic (order-preserving) prefix codes for the
/// given non-negative weights. Weights are access frequencies/probabilities
/// of the dictionary intervals in lexicographic order.
///
/// Guarantees:
///  - codes are monotonically increasing bit strings,
///  - the code set is prefix-free,
///  - expected code length Σ w_i · len(c_i) is minimal among all
///    alphabetic prefix codes,
///  - every code is at most 64 bits (tiny weights are floored to keep the
///    tree depth bounded; this can only affect entries whose weight is
///    below total / 2^40).
///
/// n == 0 returns {}; n == 1 returns a single 1-bit code "0".
std::vector<Code> HuTuckerCodes(const std::vector<double>& weights);

/// Returns the optimal leaf depths (code lengths) without materializing
/// codes. Exposed for tests and the build-time benchmark.
std::vector<int> HuTuckerDepths(const std::vector<double>& weights);

/// Exhaustive O(n^3) dynamic program for the optimal alphabetic tree cost
/// (Knuth). Used by tests to validate optimality on small inputs.
double OptimalAlphabeticCostBruteForce(const std::vector<double>& weights);

}  // namespace hope
