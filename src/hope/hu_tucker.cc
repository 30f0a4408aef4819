#include "hope/hu_tucker.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/check.h"

namespace hope {

namespace {

struct MergeNode {
  int32_t left = -1;   // -1 for leaves
  int32_t right = -1;
};

// Runs one Garsia-Wachs combination phase with the given weight floor and
// returns the depth of each leaf (leaf i corresponds to weights[i]).
std::vector<int> GarsiaWachsDepthsFloored(const std::vector<double>& weights,
                                          double floor_w) {
  const size_t n = weights.size();
  std::vector<int> depths(n, 0);
  if (n <= 1) {
    if (n == 1) depths[0] = 1;  // single symbol still needs one bit
    return depths;
  }

  // The merge tree: first n entries are leaves.
  std::vector<MergeNode> nodes(n);
  nodes.reserve(2 * n);

  // The Garsia-Wachs work list, bracketed by infinite sentinels, is kept
  // in two parallel arrays (weights and merge-tree node ids) laid out as
  // [stack | gap | unread input]: the logical list is positions [0, top)
  // followed by [next, n + 2). Merges and insertions only ever touch the
  // list left of the scan point, which is always on the stack, so no merge
  // shifts the unread tail; a lookahead step moves item `next` onto the
  // stack top. Each merge frees one slot, so the gap only grows.
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> weight(n + 2);
  std::vector<int32_t> node(n + 2);
  weight[0] = kInf;  // left sentinel
  node[0] = -1;
  for (size_t i = 0; i < n; i++) {
    weight[i + 1] = std::max(weights[i], floor_w);
    node[i + 1] = static_cast<int32_t>(i);
  }
  weight[n + 1] = kInf;  // right sentinel
  node[n + 1] = -1;
  size_t top = 2;  // the stack starts as [left sentinel, first item]
  size_t next = 2;
  auto push = [&] {
    weight[top] = weight[next];
    node[top++] = node[next++];
  };
  // Moves stack positions [first, last) to start at d_first.
  auto shift = [&](size_t first, size_t last, size_t d_first) {
    std::memmove(weight.data() + d_first, weight.data() + first,
                 (last - first) * sizeof(double));
    std::memmove(node.data() + d_first, node.data() + first,
                 (last - first) * sizeof(int32_t));
  };

  // Repeatedly find the leftmost i such that list[i-1] <= list[i+1],
  // merge (i-1, i), and move the merged node left past all smaller
  // weights. Scanning resumes near the insertion point: positions to its
  // left were already verified to have no local minimum and are unchanged.
  size_t i = 1;
  for (size_t merges = 0; merges < n - 1; merges++) {
    // Find the leftmost local-minimum pair: first among the positions
    // still on the stack, then by pulling lookahead items (list[i+1] is
    // weight[next] once i reaches the stack top). The right sentinel
    // always stops the scan.
    while (i + 1 < top && !(weight[i - 1] <= weight[i + 1])) i++;
    if (i + 1 == top) {
      while (!(weight[top - 2] <= weight[next])) push();
      i = top - 1;
    }
    // Merge list[i-1] and list[i] and remove both from the stack.
    double w = weight[i - 1] + weight[i];
    int32_t id = static_cast<int32_t>(nodes.size());
    nodes.push_back({node[i - 1], node[i]});
    shift(i + 1, top, i - 1);
    top -= 2;
    // Move left: insert after the rightmost element with weight >= w.
    size_t j = i - 1;
    while (weight[j - 1] < w) j--;
    shift(j, top, j + 1);
    weight[j] = w;
    node[j] = id;
    top++;
    i = j > 1 ? j - 1 : 1;
  }

  // Two sentinels + root remain.
  HOPE_DCHECK(top == 2 && next == n + 1);
  int32_t root = node[1];

  // Compute leaf depths by iterative DFS over the merge tree.
  std::vector<std::pair<int32_t, int>> stack;
  stack.emplace_back(root, 0);
  while (!stack.empty()) {
    auto [id, d] = stack.back();
    stack.pop_back();
    const MergeNode& nd = nodes[id];
    if (nd.left == -1 && nd.right == -1) {
      depths[id] = d;
      continue;
    }
    stack.emplace_back(nd.left, d + 1);
    stack.emplace_back(nd.right, d + 1);
  }
  return depths;
}

// Floors tiny weights so the optimal tree stays shallow enough for
// fixed-width code storage (the paper stores 32-bit codes in its
// dictionaries). A floor of total/2^20 bounds the depth near
// log_phi(2^20) ~ 29; the loop raises the floor in the (theoretical)
// case the bound is still exceeded. Only entries with probability below
// ~1e-6 are affected, which costs no measurable compression.
std::vector<int> GarsiaWachsDepths(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) total += w;
  if (total <= 0) total = 1;
  double floor_w = total / std::pow(2.0, 20);
  while (true) {
    std::vector<int> depths = GarsiaWachsDepthsFloored(weights, floor_w);
    int max_depth = 0;
    for (int d : depths) max_depth = std::max(max_depth, d);
    if (max_depth <= 32) return depths;
    floor_w *= 16;
  }
}

}  // namespace

std::vector<int> HuTuckerDepths(const std::vector<double>& weights) {
  return GarsiaWachsDepths(weights);
}

std::vector<Code> HuTuckerCodes(const std::vector<double>& weights) {
  const size_t n = weights.size();
  std::vector<Code> codes(n);
  if (n == 0) return codes;
  if (n == 1) {
    codes[0] = Code{0, 1};  // "0"
    return codes;
  }
  std::vector<int> depths = GarsiaWachsDepths(weights);

  // Phase 3: rebuild an alphabetic tree from the (valid) depth sequence
  // using the classic stack construction, then read codes off the tree.
  // Canonical direct assignment: maintain a left-aligned code value;
  // for each next leaf, increment at the previous depth then adjust to the
  // new depth. The Garsia-Wachs depth sequence always admits this.
  uint64_t code = 0;  // left-aligned in 64 bits
  int prev_len = depths[0];
  if (prev_len > 64) throw std::runtime_error("Hu-Tucker code exceeds 64 bits");
  codes[0] = Code{0, static_cast<uint8_t>(prev_len)};
  for (size_t i = 1; i < n; i++) {
    int len = depths[i];
    if (len > 64) throw std::runtime_error("Hu-Tucker code exceeds 64 bits");
    // Increment the previous code at its own length.
    uint64_t inc = uint64_t{1} << (64 - prev_len);
    code += inc;  // cannot overflow: last code at each length is all-ones
                  // only for the final leaf
    // Truncate or extend (with zeros) to the new length.
    if (len < 64)
      code &= ~(~uint64_t{0} >> len);
    codes[i] = Code{code, static_cast<uint8_t>(len)};
    prev_len = len;
  }
  return codes;
}

double OptimalAlphabeticCostBruteForce(const std::vector<double>& weights) {
  const size_t n = weights.size();
  if (n == 0) return 0;
  if (n == 1) return weights[0];
  // cost[i][j]: optimal total weighted depth for leaves i..j.
  // cost(i,j) = min_k cost(i,k) + cost(k+1,j) + sum(i..j), cost(i,i) = 0.
  std::vector<double> prefix(n + 1, 0);
  for (size_t i = 0; i < n; i++) prefix[i + 1] = prefix[i] + weights[i];
  std::vector<std::vector<double>> cost(n, std::vector<double>(n, 0));
  for (size_t len = 2; len <= n; len++) {
    for (size_t i = 0; i + len <= n; i++) {
      size_t j = i + len - 1;
      double best = std::numeric_limits<double>::infinity();
      for (size_t k = i; k < j; k++)
        best = std::min(best, cost[i][k] + cost[k + 1][j]);
      cost[i][j] = best + (prefix[j + 1] - prefix[i]);
    }
  }
  return cost[0][n - 1];
}

}  // namespace hope
