#include "campaign/karm_streaming.h"

#include <cmath>
#include <utility>

#include "alloc/streaming.h"
#include "common/macros.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace roicl::campaign {
namespace {

void RecordMetrics(const KArmStreamingOptions& options, int num_arms,
                   const KArmStreamingResult& result) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("campaign.streaming_calls")->Increment();
  registry.GetCounter("campaign.users_streamed")
      ->Increment(static_cast<uint64_t>(result.users_streamed));
  registry.GetCounter("campaign.frontier_evictions")
      ->Increment(static_cast<uint64_t>(result.frontier_evictions));
  registry.GetGauge("campaign.arms")->Set(static_cast<double>(num_arms));
  registry.GetGauge("campaign.shards")
      ->Set(static_cast<double>(options.num_shards));
  registry.GetGauge("campaign.assigned")
      ->Set(static_cast<double>(result.selected_pairs.size()));
  registry.GetGauge("campaign.spent")->Set(result.spent);
  registry.GetGauge("campaign.merge_candidates")
      ->Set(static_cast<double>(result.merge_candidates));
  registry.GetGauge("campaign.peak_memory_bytes")
      ->Set(static_cast<double>(result.peak_memory_bytes));
  obs::Debug("streaming campaign allocation",
             {{"arms", num_arms},
              {"shards", options.num_shards},
              {"users_streamed", result.users_streamed},
              {"assigned", result.selected_pairs.size()},
              {"spent", result.spent},
              {"evictions", result.frontier_evictions},
              {"peak_memory_bytes", result.peak_memory_bytes}});
}

}  // namespace

StatusOr<KArmStreamingResult> StreamingKArmAllocate(
    KArmRowSource* source, const KArmBudgets& budgets,
    const KArmStreamingOptions& options) {
  ROICL_CHECK(source != nullptr);
  obs::ScopedSpan span("campaign.allocate");
  const int num_arms = source->num_arms();
  if (!std::isfinite(budgets.global) || budgets.global < 0.0) {
    return Status::InvalidArgument("global budget must be finite and >= 0");
  }
  if (static_cast<int>(budgets.per_arm.size()) != num_arms) {
    return Status::InvalidArgument(
        "budgets.per_arm must have one entry per arm");
  }
  for (double b : budgets.per_arm) {
    if (std::isnan(b) || b < 0.0) {
      return Status::InvalidArgument("per-arm budgets must be >= 0");
    }
  }

  StatusOr<alloc::GreedyScan> greedy = alloc::ShardedGreedyScan(
      source, budgets.global, budgets.per_arm, options.num_shards,
      options.parallel_shards, options.memory_cap_bytes);
  if (!greedy.ok()) return greedy.status();
  alloc::GreedyScan& scan = greedy.value();
  KArmStreamingResult result;
  result.selected_pairs = std::move(scan.selected);
  result.spent = scan.spent;
  result.arm_spent = std::move(scan.arm_spent);
  result.value = scan.value;
  result.users_streamed = scan.rows_streamed;
  result.peak_memory_bytes = scan.peak_memory_bytes;
  result.frontier_evictions = scan.frontier_evictions;
  result.merge_candidates = scan.merge_candidates;
  RecordMetrics(options, num_arms, result);
  return result;
}

}  // namespace roicl::campaign
