#ifndef ROICL_ALLOC_STREAMING_H_
#define ROICL_ALLOC_STREAMING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc/row_source.h"
#include "common/status.h"

/// \file
/// Streaming C-BTAP budget allocator: one sharded-frontier greedy over
/// (user, arm) pairs with exact reconciliation, plus a Lagrangian
/// dual-threshold mode for binary sources.
///
/// `core::GreedyAllocate` (Algorithm 1) sorts the whole population by
/// predicted ROI — O(n log n) time and O(n) resident memory, which dies
/// at Criteo scale (13.9M rows). `ShardedGreedyScan` consumes the
/// population in bounded chunks instead, keeping only a *budget-feasible
/// frontier* per shard, and merges the frontiers so that its selection is
/// **bitwise identical** to the in-memory reference: the same selected
/// pairs in the same order and the same floating-point spends. Binary
/// allocation is its K = 1 case (`StreamingAllocate`, reference
/// `core::GreedyAllocate` with the stop variant); a K-arm campaign under
/// a global budget B and per-arm budgets b_k is the general case
/// (`campaign::StreamingKArmAllocate`, reference
/// `campaign::KArmGreedyReference`).
///
/// Soundness sketch.
///  1. Collapse. By the collapse lemma (campaign/karm_allocate.h) every
///     pair the reference charges or stops at is its user's *best* pair
///     (max roi, ties to the smaller arm), so the reference is
///     Algorithm 1's stop-at-first-overflow scan over the n best pairs.
///     A chunk carries each user's K pairs together, so the scan
///     reduces every user to their best pair in O(K) with no extra
///     state; at K = 1 the reduction is the identity.
///  2. Frontier invariant (`ShardFrontier`). Users go to shards by
///     user % num_shards. Per shard, in rank order r_1, r_2, ... of the
///     best pairs seen so far, with floating-point prefix sums
///     C_j = fl(C_{j-1} + c_j), the frontier after `Compact` holds
///     exactly r_1..r_cut, where cut = min{ j : C_j > B } (every pair if
///     no prefix exceeds B). r_cut is kept as the *stop sentinel*.
///  3. Nothing the reference reaches is evicted. Let p be a pair the
///     reference charges or stops at, and S <= B its spend just before
///     p: the FP sum, in rank order, of every best pair ranked before p.
///     FP summation of non-negative terms is monotone under inserting
///     extra terms anywhere (fl(a + x) >= a for x >= 0, and fl is
///     monotone), so p's shard-local prefix sum before p is <= S <= B,
///     and p lies at or before its shard's cut. An arm-budget stop only
///     shortens the reached prefix.
///  4. Replay. The merged frontiers, sorted by the shared total order,
///     therefore start with exactly the pairs the reference reaches, in
///     the same order. The replay makes the same comparisons against B
///     and b_k and sums the same doubles in the same order, so the
///     selection, the spend, every per-arm spend and the value match
///     bit for bit.
///
/// Memory model. One `MemoryAccountant` cap covers the chunk buffer, the
/// shard objects themselves, every frontier's kept and pending capacity
/// (including the transient merge double-buffer), the merged candidate
/// list, the selection vector and, in dual mode, the bisection's
/// candidate grid. Working memory is
/// O(shards + shards x budget-feasible set + chunk), never O(population).
///
/// The dual mode replaces the global sort with a single scalar ROI
/// threshold bisected to budget feasibility (the "Free Lunch!" form of
/// ROI-constrained allocation): values v_i = roi_i * c_i make the
/// Lagrangian selection rule v_i > lambda * c_i collapse to
/// roi_i > lambda whenever c_i > 0, so one threshold replaces the
/// ranking. It reports the duality gap against the Lagrangian upper
/// bound; the gap is zero exactly when the threshold solution is
/// provably optimal.

namespace roicl::alloc {

/// Hard memory-cap accounting shared by the chunk buffer and every shard
/// frontier. Thread-safe: shards may accumulate concurrently. `TryCharge`
/// refuses charges that would exceed the cap — the allocator surfaces
/// that as kFailedPrecondition instead of quietly growing.
///
/// Concurrency contract: lock-free by design — a CAS loop over `current_`
/// plus a max-CAS on `peak_`; there is deliberately no Mutex here, so the
/// class carries no capability annotations (nothing for Thread Safety
/// Analysis to check; see DESIGN.md, "Concurrency contracts").
class MemoryAccountant {
 public:
  explicit MemoryAccountant(size_t cap_bytes) : cap_(cap_bytes) {}

  /// Attempts to account `bytes` more; false (and no state change) when
  /// the cap would be exceeded.
  bool TryCharge(size_t bytes);
  void Release(size_t bytes);

  size_t cap() const { return cap_; }
  size_t current() const { return current_.load(std::memory_order_relaxed); }
  /// High-water mark over the accountant's lifetime.
  size_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  size_t cap_;
  std::atomic<size_t> current_{0};
  std::atomic<size_t> peak_{0};
};

/// One candidate row retained by a shard frontier.
struct FrontierItem {
  double roi = 0.0;
  double cost = 0.0;
  int64_t index = 0;
};

/// The documented allocation total order — (roi descending, index
/// ascending), the index being the user at K = 1 and the pair index
/// (arm - 1) * n + user for K arms — shared with core::GreedyAllocate and
/// campaign::KArmGreedyReference. A strict total order: duplicate ROI
/// keys break by stable index, so every allocator in the repo ranks
/// identically and equivalence is well defined.
bool RankBefore(const FrontierItem& a, const FrontierItem& b);

/// Budget-feasible top-k frontier for one shard: after `Compact` it
/// holds exactly the rank-order prefix r_1..r_cut of the invariant in
/// the soundness sketch above, r_cut being the stop sentinel.
///
/// Between compactions arrivals buffer unsorted; rows ranked at or below
/// a known sentinel are discarded O(1). Amortized cost per row is
/// O(log f) for a frontier of size f; memory is O(f), charged against
/// the shared accountant *including* the transient merge buffer.
class ShardFrontier {
 public:
  ShardFrontier(double budget, MemoryAccountant* accountant);
  ~ShardFrontier();

  ShardFrontier(const ShardFrontier&) = delete;
  ShardFrontier& operator=(const ShardFrontier&) = delete;

  /// Adds one row. Returns false iff the frontier needed memory past the
  /// accountant's cap (the caller should abort the allocation).
  bool Add(int64_t index, double roi, double cost);

  /// Restores the exact invariant. Returns false on a cap violation.
  bool Compact();

  /// The frontier rows in rank order. Valid only directly after a
  /// successful Compact().
  const std::vector<FrontierItem>& items() const { return kept_; }

  /// Rows discarded as provably unselectable so far.
  int64_t evictions() const { return evictions_; }

 private:
  bool EnsureCharged(size_t target_bytes);

  double budget_;
  MemoryAccountant* accountant_;
  std::vector<FrontierItem> kept_;     ///< rank order; invariant holds
  std::vector<FrontierItem> pending_;  ///< unordered arrivals
  bool saturated_ = false;  ///< kept_'s full prefix sum exceeds budget
  int64_t evictions_ = 0;
  size_t charged_bytes_ = 0;
};

enum class AllocMode {
  kGreedy,  ///< exact Algorithm-1 semantics via sharded frontiers
  kDual,    ///< scalar ROI threshold bisected to budget feasibility
};

struct StreamingOptions {
  AllocMode mode = AllocMode::kGreedy;
  /// Rows are assigned to shards by index % num_shards; the result is
  /// independent of the shard count (it only bounds per-shard state).
  int num_shards = 1;
  /// Hard cap on accounted working memory: chunk buffer + shard objects
  /// + frontiers + merge scratch + the selection vector + the dual's
  /// candidate grid. Exceeding it fails the allocation with
  /// kFailedPrecondition rather than allocating.
  size_t memory_cap_bytes = size_t{256} << 20;
  /// Accumulate shard frontiers concurrently on the global thread pool.
  /// Greedy mode only. Results are bitwise identical either way: each
  /// shard's rows arrive in index order regardless of interleaving.
  bool parallel_shards = false;
  /// Dual mode: number of threshold-refinement streaming passes and the
  /// candidate-grid width per pass. Defaults resolve the threshold to
  /// ~(grid+1)^-passes of the initial ROI bracket.
  int dual_passes = 4;
  int dual_grid = 64;
  /// Dual mode: fill leftover budget with the best rejected rows,
  /// streamed through a slack-budget frontier (standard primal repair).
  bool dual_repair = true;
};

struct StreamingResult {
  /// Selected user indices. Greedy mode: allocation (rank) order —
  /// exactly the order core::GreedyAllocate returns. Dual mode:
  /// threshold picks in ascending index order, then repair picks in rank
  /// order.
  std::vector<int64_t> selected;
  /// Total cost of the selection. Greedy mode: bitwise equal to the
  /// reference greedy's spend. Always <= budget.
  double spent = 0.0;
  /// Sum of roi * cost (the tau_r estimate) over the selection.
  double value = 0.0;
  int64_t rows_streamed = 0;  ///< rows pulled across all passes
  size_t peak_memory_bytes = 0;
  int64_t frontier_evictions = 0;
  int64_t merge_candidates = 0;  ///< frontier rows surviving to the merge
  // Dual mode only:
  double dual_threshold = 0.0;    ///< final ROI threshold (lambda)
  double dual_upper_bound = 0.0;  ///< Lagrangian bound on the optimum
  double dual_gap = 0.0;          ///< upper_bound - value; ~0 => optimal
  /// Rows past the threshold skipped to preserve spend feasibility; only
  /// ever nonzero within FP rounding of the budget boundary.
  int64_t dual_threshold_overflow = 0;
};

/// Output of `ShardedGreedyScan`.
struct GreedyScan {
  /// Charged (user, arm) pairs in charge (rank) order, encoded as
  /// (arm - 1) * n + user — at K = 1 simply the user index.
  std::vector<int64_t> selected;
  double spent = 0.0;             ///< FP sum in charge order.
  std::vector<double> arm_spent;  ///< per-arm FP sums in charge order.
  double value = 0.0;             ///< sum of roi * cost in charge order.
  int64_t rows_streamed = 0;
  size_t peak_memory_bytes = 0;
  int64_t frontier_evictions = 0;
  int64_t merge_candidates = 0;  ///< frontier pairs surviving to the merge
};

/// The one streaming greedy: streams `source`, reduces each user to their
/// best arm, keeps a budget-feasible frontier per shard, merges the
/// frontiers, and replays the stop-at-first-overflow scan under `budget`
/// and `arm_budgets[k]` for arm k + 1 (+inf = unbounded), all inside
/// `memory_cap_bytes`. Pairs rank by (roi descending, pair index
/// ascending), i.e. (roi desc, arm asc, user asc); the soundness sketch
/// above makes the result bitwise equal to the in-memory references.
///
/// Requires `arm_budgets.size() == source->num_arms()`; budget values are
/// the caller's to validate. Errors: kInvalidArgument for a non-positive
/// shard count, a chunk of the wrong shape, a non-finite ROI score or a
/// negative or non-finite cost; kFailedPrecondition when the memory cap
/// cannot hold the working state.
StatusOr<GreedyScan> ShardedGreedyScan(RowSource* source, double budget,
                                       const std::vector<double>& arm_budgets,
                                       int num_shards, bool parallel_shards,
                                       size_t memory_cap_bytes);

/// Streams a binary `source` and allocates the treatment under `budget`.
///
/// Greedy mode is `ShardedGreedyScan` with one unbounded arm: a selection
/// bitwise identical to
/// `core::GreedyAllocate(roi, cost, budget, /*skip_unaffordable=*/false)`
/// — the paper's stop-at-first-overflow Algorithm 1 — while holding only
/// frontier state bounded by the budget-feasible set size (times the
/// shard count), never the population.
///
/// Errors: kInvalidArgument for a source with more than one arm, a
/// non-finite budget/ROI score, a negative or non-finite cost, or bad
/// options; kFailedPrecondition when the memory cap cannot hold the
/// working state.
StatusOr<StreamingResult> StreamingAllocate(RowSource* source, double budget,
                                            const StreamingOptions& options);

/// One O(1)-memory pass summing every cost of every arm — the CLI
/// computes budget = budget_frac * total cost this way for sources too
/// large to materialize. Rejects negative or non-finite costs.
StatusOr<double> StreamingTotalCost(RowSource* source);

}  // namespace roicl::alloc

#endif  // ROICL_ALLOC_STREAMING_H_
