#ifndef ROICL_CAMPAIGN_KARM_ALLOCATE_H_
#define ROICL_CAMPAIGN_KARM_ALLOCATE_H_

#include <cstdint>
#include <vector>

/// \file
/// K-arm campaign knapsack: assign each user to exactly one treatment
/// arm (or control) under per-arm budgets plus a global cap.
///
/// The campaign contract extends Algorithm 1 (stop-at-first-overflow
/// greedy) to (user, arm) pairs under the documented total order
///   (roi descending, arm ascending, user ascending),
/// realized as (roi descending, pair-index ascending) with the pair
/// encoding index = (arm - 1) * n + user — the same strict order the
/// binary allocators share, so streaming equivalence (alloc/streaming.h)
/// is well defined. The scan skips pairs of already-assigned users
/// (skips spend nothing) and STOPS outright at the first pair that would
/// overflow either the global budget or its own arm's budget.
///
/// Collapse lemma (why per-user reduction is exact): a user's best pair
/// — max roi, ties to the smaller arm — ranks first among that user's
/// pairs. If the scan reaches pair p = (u, k) with u still unassigned,
/// then u's best pair p* ranks at or before p; when the scan visited p*,
/// u was unassigned, so the scan either charged p* (assigning u —
/// contradiction unless p == p*) or stopped at p* (contradiction with
/// reaching p). Hence every pair the scan charges *or stops at* is its
/// user's best pair, and the K·n-pair scan is exactly the binary
/// Algorithm-1 scan over the n best pairs. `KArmGreedyReference` runs
/// the full K·n-pair scan; the streaming allocator
/// (`alloc::ShardedGreedyScan`) runs the reduced form; the equivalence
/// tests pin them bitwise to each other.

namespace roicl::campaign {

/// Per-arm budgets b_k plus the global cap B. `per_arm` must have one
/// entry per arm; use an effectively-infinite entry for an unbounded
/// arm. All budgets must be finite-or-infinite and >= 0.
struct KArmBudgets {
  double global = 0.0;
  std::vector<double> per_arm;
};

/// Result of a K-arm allocation.
struct KArmAllocationResult {
  /// Per-user assignment: -1 control, else the 1-based arm.
  std::vector<int> assignment;
  /// Charged (user, arm) pairs in charge (rank) order, encoded as
  /// (arm - 1) * n + user — the unit the streaming allocator is
  /// bitwise-compared against.
  std::vector<int64_t> selection_order;
  double spent = 0.0;                ///< FP sum in charge order.
  std::vector<double> arm_spent;     ///< per-arm FP sums in charge order.
  double value = 0.0;                ///< sum of roi * cost in charge order.
};

/// The in-memory reference: materializes all K·n pairs, sorts by the
/// documented total order, and runs the skip-assigned /
/// stop-at-first-overflow scan described above. O(Kn log Kn) time,
/// O(Kn) memory — the streaming allocator exists because this dies at
/// campaign scale.
KArmAllocationResult KArmGreedyReference(
    const std::vector<std::vector<double>>& roi,
    const std::vector<std::vector<double>>& cost, const KArmBudgets& budgets);

/// Lagrangian dual-ascent mode (paper's "Free Lunch" threshold form
/// lifted to K constraints). With values v_uk = roi_uk * cost_uk, the
/// dual of the assignment LP is
///   L(lambda) = sum_u max(0, max_k (v_uk - (lambda_g + lambda_k) c_uk))
///             + lambda_g * B + sum_k lambda_k * b_k,
/// an upper bound on the optimal primal value for every lambda >= 0.
/// Projected subgradient ascent tightens the bound; the primal is
/// recovered by a feasibility guard: the selected pairs replay through
/// a greedy pass in the documented total order, skipping any pair that
/// would overflow a budget. `dual_gap = best bound - primal value >= 0`
/// is the optimality-gap certificate — gap 0 proves the repaired
/// allocation optimal.
struct KArmDualConfig {
  int max_iters = 200;
  /// Initial step scale for the normalized subgradient schedule
  /// step_t = step0 * max_roi / sqrt(t + 1).
  double step0 = 0.5;
};

struct KArmDualResult {
  KArmAllocationResult primal;   ///< feasible (repaired) allocation
  double dual_bound = 0.0;       ///< best L(lambda) seen — upper bound
  double dual_gap = 0.0;         ///< dual_bound - primal value, >= 0
  double lambda_global = 0.0;    ///< multiplier at the best bound
  std::vector<double> lambda_arm;
  int iterations = 0;
  /// Primal objective evaluated in ascending-user order (one term per
  /// assigned user). Matching evaluation order against L(lambda) is what
  /// makes an exactly-zero gap reachable in FP; `primal.value` keeps the
  /// charge-order sum shared with the greedy contract.
  double primal_value = 0.0;
};

KArmDualResult KArmDualAllocate(const std::vector<std::vector<double>>& roi,
                                const std::vector<std::vector<double>>& cost,
                                const KArmBudgets& budgets,
                                const KArmDualConfig& config = {});

}  // namespace roicl::campaign

#endif  // ROICL_CAMPAIGN_KARM_ALLOCATE_H_
