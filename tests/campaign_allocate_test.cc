#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/karm_allocate.h"
#include "campaign/karm_source.h"
#include "campaign/karm_streaming.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "core/greedy.h"
#include "obs/metrics.h"

/// \file
/// Acceptance mechanism for the K-arm campaign allocator: the streaming
/// sharded-frontier path must be *bitwise identical* to the in-memory
/// K·n-pair reference scan (same selection order, same floating-point
/// global and per-arm spends) across shard counts and chunk sizes — the
/// empirical validation of the collapse lemma in karm_allocate.h — and
/// the Lagrangian dual mode must produce a sound optimality-gap
/// certificate that closes to exactly 0.0 on a provably-optimal case.

namespace roicl::campaign {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

KArmStreamingResult MustAllocate(KArmRowSource* source,
                                 const KArmBudgets& budgets,
                                 const KArmStreamingOptions& options) {
  StatusOr<KArmStreamingResult> result =
      StreamingKArmAllocate(source, budgets, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : KArmStreamingResult{};
}

/// Bitwise equivalence: identical encoded pair sequence and identical
/// floating-point spends (EXPECT_EQ on doubles is exact equality).
void ExpectBitwiseEqual(const KArmStreamingResult& streaming,
                        const KArmAllocationResult& reference) {
  ASSERT_EQ(streaming.selected_pairs.size(),
            reference.selection_order.size());
  for (size_t i = 0; i < reference.selection_order.size(); ++i) {
    EXPECT_EQ(streaming.selected_pairs[i], reference.selection_order[i])
        << "position " << i;
  }
  EXPECT_EQ(streaming.spent, reference.spent);
  ASSERT_EQ(streaming.arm_spent.size(), reference.arm_spent.size());
  for (size_t k = 0; k < reference.arm_spent.size(); ++k) {
    EXPECT_EQ(streaming.arm_spent[k], reference.arm_spent[k]) << "arm " << k;
  }
  EXPECT_EQ(streaming.value, reference.value);
}

/// Random K-arm instance with deliberately duplicated ROI keys (12-value
/// grid) so the documented (roi, arm, user) total order is what the
/// equivalence actually exercises.
void MakeInstance(uint64_t seed, int n, int num_arms,
                  std::vector<std::vector<double>>* roi,
                  std::vector<std::vector<double>>* cost) {
  Rng rng(seed);
  roi->assign(AsSize(num_arms), std::vector<double>(AsSize(n)));
  cost->assign(AsSize(num_arms), std::vector<double>(AsSize(n)));
  for (int k = 0; k < num_arms; ++k) {
    for (int i = 0; i < n; ++i) {
      (*roi)[AsSize(k)][AsSize(i)] =
          0.05 + 0.075 * static_cast<double>(rng.UniformInt(12));
      (*cost)[AsSize(k)][AsSize(i)] = rng.Uniform(0.2, 2.0);
    }
  }
}

// ---------------------------------------------------------------------
// CampaignSmoke.*: the build-matrix smoke subset (check_build_matrix.sh
// runs exactly this suite in every compiler/profile config).
// ---------------------------------------------------------------------

TEST(CampaignSmoke, StreamingMatchesReferenceOnFixedInstance) {
  // Duplicate ROI keys across arms AND users: rank order is decided by
  // the (arm asc, user asc) tie-break everywhere.
  std::vector<std::vector<double>> roi = {{0.5, 0.9, 0.5, 0.3},
                                          {0.5, 0.9, 0.7, 0.1},
                                          {0.2, 0.5, 0.5, 0.9}};
  std::vector<std::vector<double>> cost = {{1.0, 0.5, 1.5, 2.0},
                                           {0.5, 1.0, 0.3, 0.7},
                                           {0.8, 0.6, 1.1, 0.4}};
  KArmBudgets budgets;
  budgets.global = 2.0;
  budgets.per_arm = {1.5, 1.0, 1.0};
  KArmAllocationResult reference = KArmGreedyReference(roi, cost, budgets);
  KArmStreamingOptions options;
  options.num_shards = 2;
  VectorKArmRowSource source(roi, cost, /*chunk_rows=*/2);
  KArmStreamingResult streaming = MustAllocate(&source, budgets, options);
  ExpectBitwiseEqual(streaming, reference);
}

TEST(CampaignSmoke, DualModeCertificateIsSound) {
  std::vector<std::vector<double>> roi;
  std::vector<std::vector<double>> cost;
  MakeInstance(7, 48, 3, &roi, &cost);
  KArmBudgets budgets;
  budgets.global = 10.0;
  budgets.per_arm = {4.0, 4.0, 4.0};
  KArmDualResult dual = KArmDualAllocate(roi, cost, budgets);
  EXPECT_LE(dual.primal.spent, budgets.global);
  for (int k = 0; k < 3; ++k) {
    EXPECT_LE(dual.primal.arm_spent[AsSize(k)], budgets.per_arm[AsSize(k)]);
  }
  EXPECT_GE(dual.dual_gap, -1e-9);
  EXPECT_LE(dual.primal_value, dual.dual_bound + 1e-9);
}

/// Every registered counter and gauge whose name starts with `prefix`.
std::map<std::string, double> MetricFamily(const std::string& prefix) {
  std::map<std::string, double> family;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.ForEachCounter([&](const std::string& name, uint64_t value) {
    if (name.rfind(prefix, 0) == 0) family[name] = static_cast<double>(value);
  });
  registry.ForEachGauge([&](const std::string& name, double value) {
    if (name.rfind(prefix, 0) == 0) family[name] = value;
  });
  return family;
}

// The campaign.* streaming family reports each call. This binary never
// preregisters and runs no scenario (campaign.runs and the scenario
// gauges are checked in campaign_pipeline_test), so an instrument is
// present only if StreamingKArmAllocate writes it.
TEST(CampaignMetrics, StreamingFamilyReportsTheResult) {
  std::vector<std::vector<double>> roi;
  std::vector<std::vector<double>> cost;
  MakeInstance(7, 48, 3, &roi, &cost);
  KArmBudgets budgets;
  budgets.global = 10.0;
  budgets.per_arm = {4.0, 4.0, 4.0};
  KArmStreamingOptions options;
  options.num_shards = 2;
  obs::MetricsRegistry::Global().Reset();
  VectorKArmRowSource source(roi, cost, /*chunk_rows=*/16);
  KArmStreamingResult result = MustAllocate(&source, budgets, options);
  const std::map<std::string, double> expected = {
      {"campaign.streaming_calls", 1.0},
      {"campaign.users_streamed", static_cast<double>(result.users_streamed)},
      {"campaign.frontier_evictions",
       static_cast<double>(result.frontier_evictions)},
      {"campaign.arms", 3.0},
      {"campaign.shards", 2.0},
      {"campaign.assigned", static_cast<double>(result.selected_pairs.size())},
      {"campaign.spent", result.spent},
      {"campaign.merge_candidates",
       static_cast<double>(result.merge_candidates)},
      {"campaign.peak_memory_bytes",
       static_cast<double>(result.peak_memory_bytes)}};
  EXPECT_EQ(MetricFamily("campaign."), expected);
}

// ---------------------------------------------------------------------
// Property battery: bitwise equivalence across shards/chunks/instances,
// under the asserted memory cap.
// ---------------------------------------------------------------------

class CampaignEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CampaignEquivalence, BitwiseMatchesReference) {
  Rng rng(GetParam() * 7919 + 1);
  int n = 1 + static_cast<int>(rng.UniformInt(150));
  int num_arms = 1 + static_cast<int>(rng.UniformInt(5));
  std::vector<std::vector<double>> roi;
  std::vector<std::vector<double>> cost;
  MakeInstance(GetParam(), n, num_arms, &roi, &cost);
  KArmBudgets budgets;
  budgets.global = rng.Uniform(0.0, 0.4 * static_cast<double>(n) + 1.0);
  budgets.per_arm.assign(AsSize(num_arms), kInf);
  // Half the instances get binding per-arm budgets so arm-overflow stops
  // are exercised as heavily as global stops.
  if (GetParam() % 2 == 0) {
    for (int k = 0; k < num_arms; ++k) {
      budgets.per_arm[AsSize(k)] =
          rng.Uniform(0.0, 0.2 * static_cast<double>(n) + 0.5);
    }
  }
  KArmAllocationResult reference = KArmGreedyReference(roi, cost, budgets);
  for (int shards : {1, 2, 8}) {
    for (int chunk_rows : {1, 7, 64}) {
      KArmStreamingOptions options;
      options.num_shards = shards;
      VectorKArmRowSource source(roi, cost, chunk_rows);
      KArmStreamingResult streaming =
          MustAllocate(&source, budgets, options);
      ExpectBitwiseEqual(streaming, reference);
      EXPECT_LE(streaming.peak_memory_bytes, options.memory_cap_bytes)
          << "shards=" << shards << " chunk_rows=" << chunk_rows;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CampaignEquivalence,
                         ::testing::Range<uint64_t>(1, 41));

TEST(CampaignEquivalence, SyntheticSourceMatchesMaterializedVectors) {
  const int64_t n = 20000;
  const int num_arms = 4;
  const uint64_t seed = 20240819;
  std::vector<std::vector<double>> roi(AsSize(num_arms),
                                       std::vector<double>(AsSize64(n)));
  std::vector<std::vector<double>> cost(AsSize(num_arms),
                                        std::vector<double>(AsSize64(n)));
  for (int k = 0; k < num_arms; ++k) {
    for (int64_t i = 0; i < n; ++i) {
      // PairAt takes the 1-based arm id, matching the streamed chunks.
      SyntheticKArmRowSource::PairAt(seed, i, k + 1,
                                     &roi[AsSize(k)][AsSize64(i)],
                                     &cost[AsSize(k)][AsSize64(i)]);
    }
  }
  double total = 0.0;
  for (const std::vector<double>& arm : cost) {
    for (double c : arm) total += c;
  }
  KArmBudgets budgets;
  budgets.global = 0.01 * total;
  budgets.per_arm = {kInf, 0.004 * total, kInf, 0.002 * total};
  KArmAllocationResult reference = KArmGreedyReference(roi, cost, budgets);
  KArmStreamingOptions options;
  options.num_shards = 8;
  options.memory_cap_bytes = size_t{32} << 20;
  SyntheticKArmRowSource source(n, num_arms, seed, /*chunk_rows=*/1024);
  KArmStreamingResult streaming = MustAllocate(&source, budgets, options);
  ExpectBitwiseEqual(streaming, reference);
  EXPECT_EQ(streaming.users_streamed, n);
  EXPECT_LE(streaming.peak_memory_bytes, options.memory_cap_bytes);
}

TEST(CampaignEquivalence, ParallelShardsMatchSequential) {
  std::vector<std::vector<double>> roi;
  std::vector<std::vector<double>> cost;
  MakeInstance(1234, 500, 3, &roi, &cost);
  KArmBudgets budgets;
  budgets.global = 40.0;
  budgets.per_arm = {20.0, 15.0, kInf};
  KArmStreamingOptions sequential;
  sequential.num_shards = 8;
  VectorKArmRowSource source_a(roi, cost, /*chunk_rows=*/64);
  KArmStreamingResult a = MustAllocate(&source_a, budgets, sequential);
  KArmStreamingOptions parallel = sequential;
  parallel.parallel_shards = true;
  VectorKArmRowSource source_b(roi, cost, /*chunk_rows=*/64);
  KArmStreamingResult b = MustAllocate(&source_b, budgets, parallel);
  EXPECT_EQ(a.selected_pairs, b.selected_pairs);
  EXPECT_EQ(a.spent, b.spent);
  EXPECT_EQ(a.arm_spent, b.arm_spent);
}

TEST(CampaignEquivalence, SingleArmReducesToBinaryGreedy) {
  // K = 1 must degenerate to the binary Algorithm-1 stop scan: same
  // users in the same order, same spend.
  std::vector<std::vector<double>> roi;
  std::vector<std::vector<double>> cost;
  MakeInstance(55, 120, 1, &roi, &cost);
  KArmBudgets budgets;
  budgets.global = 12.0;
  budgets.per_arm = {kInf};
  KArmAllocationResult karm = KArmGreedyReference(roi, cost, budgets);
  core::AllocationResult binary = core::GreedyAllocate(
      roi[0], cost[0], budgets.global, /*skip_unaffordable=*/false);
  ASSERT_EQ(karm.selection_order.size(), binary.selected.size());
  for (size_t i = 0; i < binary.selected.size(); ++i) {
    EXPECT_EQ(karm.selection_order[i],
              static_cast<int64_t>(binary.selected[i]));
  }
  EXPECT_EQ(karm.spent, binary.spent);
}

// ---------------------------------------------------------------------
// Dual mode: exact-zero-gap certificate and soundness battery.
// ---------------------------------------------------------------------

TEST(CampaignDual, GapIsExactlyZeroOnSeededAmpleBudgetCase) {
  // Per-user equal costs across arms make best-value == best-roi arm;
  // ample budgets keep every multiplier at zero. The dual bound and the
  // repaired primal then accumulate identical terms in identical
  // (ascending-user) order, so the certificate closes to EXACTLY 0.0 —
  // not merely within epsilon — and the allocation equals greedy's.
  Rng rng(20240819);
  const int n = 200;
  const int num_arms = 3;
  std::vector<std::vector<double>> roi(AsSize(num_arms),
                                       std::vector<double>(AsSize(n)));
  std::vector<std::vector<double>> cost(AsSize(num_arms),
                                        std::vector<double>(AsSize(n)));
  for (int i = 0; i < n; ++i) {
    double c = rng.Uniform(0.2, 2.0);
    for (int k = 0; k < num_arms; ++k) {
      roi[AsSize(k)][AsSize(i)] = rng.Uniform(0.1, 0.9);
      cost[AsSize(k)][AsSize(i)] = c;
    }
  }
  KArmBudgets budgets;
  double total = 0.0;
  for (const std::vector<double>& arm : cost) {
    for (double c : arm) total += c;
  }
  budgets.global = total + 10.0;  // ample: every user affordable
  budgets.per_arm = {kInf, kInf, kInf};

  KArmDualResult dual = KArmDualAllocate(roi, cost, budgets);
  EXPECT_EQ(dual.dual_gap, 0.0);
  EXPECT_EQ(dual.primal_value, dual.dual_bound);

  KArmAllocationResult greedy = KArmGreedyReference(roi, cost, budgets);
  EXPECT_EQ(dual.primal.assignment, greedy.assignment);
  EXPECT_EQ(dual.primal.spent, greedy.spent);
}

class CampaignDualSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CampaignDualSoundness, FeasibleAndBoundedByCertificate) {
  Rng rng(GetParam() * 104729 + 5);
  int n = 1 + static_cast<int>(rng.UniformInt(200));
  int num_arms = 1 + static_cast<int>(rng.UniformInt(4));
  std::vector<std::vector<double>> roi;
  std::vector<std::vector<double>> cost;
  MakeInstance(GetParam() + 1000, n, num_arms, &roi, &cost);
  KArmBudgets budgets;
  budgets.global = rng.Uniform(0.0, 0.3 * static_cast<double>(n) + 1.0);
  budgets.per_arm.assign(AsSize(num_arms), kInf);
  if (GetParam() % 2 == 0) {
    for (int k = 0; k < num_arms; ++k) {
      budgets.per_arm[AsSize(k)] =
          rng.Uniform(0.0, 0.2 * static_cast<double>(n) + 0.5);
    }
  }
  KArmDualResult dual = KArmDualAllocate(roi, cost, budgets);
  // Hard feasibility after repair: no budget exceeded, no epsilon.
  EXPECT_LE(dual.primal.spent, budgets.global);
  for (int k = 0; k < num_arms; ++k) {
    EXPECT_LE(dual.primal.arm_spent[AsSize(k)], budgets.per_arm[AsSize(k)]);
  }
  // At most one arm per user.
  for (int v : dual.primal.assignment) {
    EXPECT_GE(v, -1);
    EXPECT_LE(v, num_arms);
  }
  // The certificate bounds the repaired primal AND the greedy reference.
  EXPECT_GE(dual.dual_gap, -1e-9);
  EXPECT_LE(dual.primal_value, dual.dual_bound + 1e-9);
  KArmAllocationResult reference = KArmGreedyReference(roi, cost, budgets);
  double reference_value = 0.0;
  for (int64_t index : reference.selection_order) {
    const size_t a = AsSize64(index / n);
    const size_t u = AsSize64(index % n);
    reference_value += roi[a][u] * cost[a][u];
  }
  EXPECT_LE(reference_value, dual.dual_bound + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CampaignDualSoundness,
                         ::testing::Range<uint64_t>(1, 31));

// ---------------------------------------------------------------------
// Input validation and memory-cap behavior.
// ---------------------------------------------------------------------

TEST(CampaignValidation, StreamingRejectsBadBudgetsAndScores) {
  std::vector<std::vector<double>> roi = {{0.5, 0.4}};
  std::vector<std::vector<double>> cost = {{1.0, 1.0}};
  KArmStreamingOptions options;
  {
    KArmBudgets budgets;  // per_arm size mismatch (empty)
    budgets.global = 1.0;
    VectorKArmRowSource source(roi, cost, 2);
    EXPECT_FALSE(StreamingKArmAllocate(&source, budgets, options).ok());
  }
  {
    KArmBudgets budgets;
    budgets.global = std::numeric_limits<double>::quiet_NaN();
    budgets.per_arm = {kInf};
    VectorKArmRowSource source(roi, cost, 2);
    EXPECT_FALSE(StreamingKArmAllocate(&source, budgets, options).ok());
  }
  {
    std::vector<std::vector<double>> bad_roi = {
        {0.5, std::numeric_limits<double>::quiet_NaN()}};
    KArmBudgets budgets;
    budgets.global = 1.0;
    budgets.per_arm = {kInf};
    VectorKArmRowSource source(bad_roi, cost, 2);
    StatusOr<KArmStreamingResult> result =
        StreamingKArmAllocate(&source, budgets, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(CampaignValidation, TinyMemoryCapFailsLoudly) {
  std::vector<std::vector<double>> roi;
  std::vector<std::vector<double>> cost;
  MakeInstance(3, 64, 2, &roi, &cost);
  KArmBudgets budgets;
  budgets.global = 1000.0;
  budgets.per_arm = {kInf, kInf};
  KArmStreamingOptions options;
  options.memory_cap_bytes = 64;  // cannot hold even one chunk buffer
  VectorKArmRowSource source(roi, cost, /*chunk_rows=*/16);
  StatusOr<KArmStreamingResult> result =
      StreamingKArmAllocate(&source, budgets, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CampaignValidationDeathTest, ReferenceChecksRaggedInputs) {
  std::vector<std::vector<double>> roi = {{0.5, 0.4}, {0.3}};  // ragged
  std::vector<std::vector<double>> cost = {{1.0, 1.0}, {1.0}};
  KArmBudgets budgets;
  budgets.global = 1.0;
  budgets.per_arm = {kInf, kInf};
  EXPECT_DEATH(KArmGreedyReference(roi, cost, budgets), "");
}

}  // namespace
}  // namespace roicl::campaign
