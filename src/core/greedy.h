#ifndef ROICL_CORE_GREEDY_H_
#define ROICL_CORE_GREEDY_H_

#include <vector>

namespace roicl::core {

/// Result of a budgeted allocation.
struct AllocationResult {
  std::vector<int> selected;  ///< chosen individual indices.
  double spent = 0.0;         ///< total cost of the selection.
};

/// Algorithm 1 of the paper: sort individuals by predicted ROI descending
/// and allocate the binary treatment until the budget is exhausted.
/// `costs[i]` is the (estimated or true) incremental cost tau_c(x_i) of
/// treating individual i.
///
/// Allocation order is the documented strict total order
/// **(roi descending, index ascending)**: duplicate ROI keys break by
/// stable individual index. This is a repo-wide contract — the streaming
/// allocator (`alloc::RankBefore`) and the dual mode's primal repair rank
/// by the same order, which is what makes bitwise equivalence between
/// the in-memory and streaming allocators well defined even on inputs
/// with thousands of duplicate keys.
///
/// `skip_unaffordable = false` reproduces the paper's "allocate until the
/// budget B is reached" (stop at the first individual that does not fit);
/// `true` keeps scanning for cheaper individuals further down the ranking
/// (a slightly stronger greedy; both satisfy the knapsack approximation
/// bound).
AllocationResult GreedyAllocate(const std::vector<double>& roi_scores,
                                const std::vector<double>& costs,
                                double budget,
                                bool skip_unaffordable = false);

/// Exact 0/1-knapsack optimum by exhaustive search — validation aid for
/// the greedy approximation-ratio property (usable up to ~20 items).
/// Returns the maximal total value subject to the cost budget.
double KnapsackBruteForce(const std::vector<double>& values,
                          const std::vector<double>& costs, double budget);

/// Total value of a selection.
double SelectionValue(const std::vector<int>& selected,
                      const std::vector<double>& values);

}  // namespace roicl::core

#endif  // ROICL_CORE_GREEDY_H_
