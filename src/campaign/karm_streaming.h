#ifndef ROICL_CAMPAIGN_KARM_STREAMING_H_
#define ROICL_CAMPAIGN_KARM_STREAMING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "campaign/karm_allocate.h"
#include "campaign/karm_source.h"
#include "common/status.h"

/// \file
/// Streaming K-arm campaign allocator: `alloc::ShardedGreedyScan` under
/// the campaign's budgets, bitwise identical to `KArmGreedyReference` at
/// any shard count or chunk size while holding only frontier state under
/// a hard memory cap. The soundness sketch lives with that scan, in
/// alloc/streaming.h.

namespace roicl::campaign {

struct KArmStreamingOptions {
  /// Users are assigned to shards by user % num_shards; the result is
  /// independent of the shard count (it only bounds per-shard state).
  int num_shards = 1;
  /// Hard cap on accounted working memory: chunk buffer + shard objects
  /// + frontiers + merge scratch + the selection vector. Exceeding it
  /// fails with kFailedPrecondition.
  size_t memory_cap_bytes = size_t{256} << 20;
  /// Accumulate shard frontiers concurrently on the global thread pool.
  /// Bitwise identical either way: each shard sees its users in index
  /// order regardless of interleaving.
  bool parallel_shards = false;
};

struct KArmStreamingResult {
  /// Charged (user, arm) pairs in charge (rank) order, encoded as
  /// (arm - 1) * n + user — bitwise equal to the reference's
  /// `selection_order`.
  std::vector<int64_t> selected_pairs;
  double spent = 0.0;             ///< bitwise equal to the reference.
  std::vector<double> arm_spent;  ///< bitwise equal to the reference.
  double value = 0.0;
  int64_t users_streamed = 0;
  size_t peak_memory_bytes = 0;
  int64_t frontier_evictions = 0;
  int64_t merge_candidates = 0;
};

/// Streams `source` and allocates at most one arm per user under
/// `budgets`. Errors: kInvalidArgument for non-finite budgets/scores or
/// negative costs; kFailedPrecondition when the memory cap cannot hold
/// the working state.
StatusOr<KArmStreamingResult> StreamingKArmAllocate(
    KArmRowSource* source, const KArmBudgets& budgets,
    const KArmStreamingOptions& options);

}  // namespace roicl::campaign

#endif  // ROICL_CAMPAIGN_KARM_STREAMING_H_
