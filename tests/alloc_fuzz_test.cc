#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/row_source.h"
#include "alloc/streaming.h"
#include "common/math_util.h"
#include "common/rng.h"

/// \file
/// Seeded fuzz battery for the streaming allocator's frontier merge.
/// Adversarial inputs — all-equal ROI keys, NaN/infinite values, zero
/// and over-subscribed budgets, empty and single-row shards, k = 0 caps
/// — must never violate budget feasibility or crash; this binary runs
/// under ASan, UBSan, and (for the concurrent-shard-accumulation case)
/// TSan via tools/run_{asan,ubsan,tsan}.sh.

namespace roicl::alloc {
namespace {

/// Invariants every successful allocation must satisfy, whatever the
/// input: spend inside the budget with no epsilon, selected indices
/// valid and unique, and the reported spend the exact sum of the
/// selected costs in selection order.
void CheckInvariants(const StreamingResult& result,
                     const std::vector<double>& roi,
                     const std::vector<double>& cost, double budget) {
  EXPECT_LE(result.spent, budget);
  std::vector<int64_t> seen;
  double replayed = 0.0;
  for (int64_t index : result.selected) {
    ASSERT_GE(index, 0);
    ASSERT_LT(index, static_cast<int64_t>(roi.size()));
    seen.push_back(index);
    replayed += cost[AsSize64(index)];
  }
  EXPECT_EQ(result.spent, replayed);
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end())
      << "duplicate selection";
}

class AllocFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocFuzz, AdversarialInstancesNeverViolateFeasibility) {
  Rng rng(GetParam() * 2654435761 + 3);
  int n = static_cast<int>(rng.UniformInt(120));
  std::vector<double> roi(AsSize(n));
  std::vector<double> cost(AsSize(n));
  uint64_t pattern = rng.UniformInt(4);
  for (int i = 0; i < n; ++i) {
    switch (pattern) {
      case 0:  // all-equal ROI: ranking decided purely by index
        roi[AsSize(i)] = 0.5;
        break;
      case 1:  // two-value ROI: dense duplicate collisions
        roi[AsSize(i)] = rng.UniformInt(2) == 0 ? 0.25 : 0.75;
        break;
      case 2:  // zero-cost rows mixed in
        roi[AsSize(i)] = rng.Uniform(0.05, 0.95);
        break;
      default:
        roi[AsSize(i)] = rng.Uniform(-0.5, 0.95);  // negative ROI too
        break;
    }
    cost[AsSize(i)] =
        (pattern == 2 && rng.UniformInt(4) == 0) ? 0.0
                                                 : rng.Uniform(0.0, 2.0);
  }
  // Budget regimes: zero, binding, and over-subscribed (nothing binds).
  double budget = 0.0;
  switch (rng.UniformInt(3)) {
    case 0:
      budget = 0.0;
      break;
    case 1:
      budget = rng.Uniform(0.0, 0.3 * static_cast<double>(n) + 0.5);
      break;
    default:
      budget = 1e6;  // over-subscribed: every affordable row fits
      break;
  }
  int shards = 1 + static_cast<int>(rng.UniformInt(9));  // often > n
  int chunk_rows = 1 + static_cast<int>(rng.UniformInt(40));
  for (AllocMode mode : {AllocMode::kGreedy, AllocMode::kDual}) {
    StreamingOptions options;
    options.mode = mode;
    options.num_shards = shards;
    VectorRowSource source(roi, cost, chunk_rows);
    StatusOr<StreamingResult> result =
        StreamingAllocate(&source, budget, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    CheckInvariants(result.value(), roi, cost, budget);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocFuzz, ::testing::Range<uint64_t>(1, 61));

TEST(AllocFuzzEdge, EmptyPopulation) {
  for (AllocMode mode : {AllocMode::kGreedy, AllocMode::kDual}) {
    StreamingOptions options;
    options.mode = mode;
    options.num_shards = 8;  // every shard empty
    VectorRowSource source(std::vector<double>{}, std::vector<double>{},
                           /*chunk_rows=*/16);
    StatusOr<StreamingResult> result =
        StreamingAllocate(&source, 10.0, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result.value().selected.empty());
    EXPECT_EQ(result.value().spent, 0.0);
  }
}

TEST(AllocFuzzEdge, SingleRowManyShards) {
  for (AllocMode mode : {AllocMode::kGreedy, AllocMode::kDual}) {
    StreamingOptions options;
    options.mode = mode;
    options.num_shards = 8;  // seven shards of size zero, one of size one
    VectorRowSource source(std::vector<double>{0.6},
                           std::vector<double>{1.0}, /*chunk_rows=*/16);
    StatusOr<StreamingResult> result =
        StreamingAllocate(&source, 2.0, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().selected, (std::vector<int64_t>{0}));
    EXPECT_EQ(result.value().spent, 1.0);
  }
}

TEST(AllocFuzzEdge, NanRoiIsRejectedNotPropagated) {
  std::vector<double> roi = {0.5, std::numeric_limits<double>::quiet_NaN()};
  std::vector<double> cost = {1.0, 1.0};
  VectorRowSource source(roi, cost, /*chunk_rows=*/16);
  StatusOr<StreamingResult> result =
      StreamingAllocate(&source, 2.0, StreamingOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(AllocFuzzEdge, NegativeAndInfiniteCostsAreRejected) {
  for (double bad : {-1.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    VectorRowSource source({0.5, 0.6}, {1.0, bad}, /*chunk_rows=*/16);
    StatusOr<StreamingResult> result =
        StreamingAllocate(&source, 2.0, StreamingOptions{});
    ASSERT_FALSE(result.ok()) << "cost=" << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(AllocFuzzEdge, BadBudgetAndOptionsAreRejected) {
  VectorRowSource source(std::vector<double>{0.5},
                         std::vector<double>{1.0}, /*chunk_rows=*/16);
  EXPECT_EQ(StreamingAllocate(&source, std::nan(""), StreamingOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StreamingAllocate(&source, -1.0, StreamingOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  StreamingOptions bad_shards;
  bad_shards.num_shards = 0;
  EXPECT_EQ(StreamingAllocate(&source, 1.0, bad_shards).status().code(),
            StatusCode::kInvalidArgument);
  StreamingOptions bad_grid;
  bad_grid.mode = AllocMode::kDual;
  bad_grid.dual_grid = 1;
  EXPECT_EQ(StreamingAllocate(&source, 1.0, bad_grid).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(AllocFuzzEdge, CapTooSmallForChunkBufferFailsCleanly) {
  VectorRowSource source({0.5, 0.6}, {1.0, 1.0}, /*chunk_rows=*/16);
  StreamingOptions options;
  options.memory_cap_bytes = 1;  // cannot even hold one chunk: k = 0
  StatusOr<StreamingResult> result =
      StreamingAllocate(&source, 2.0, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AllocFuzzEdge, CapTooSmallForFrontierFailsCleanly) {
  // The chunk buffer fits but the frontier's first growth does not.
  std::vector<double> roi(512, 0.5);
  std::vector<double> cost(512, 0.001);  // huge budget-feasible set
  VectorRowSource source(roi, cost, /*chunk_rows=*/1);
  StreamingOptions options;
  options.memory_cap_bytes = 64;  // chunk (16B) fits; 64 items do not
  StatusOr<StreamingResult> result =
      StreamingAllocate(&source, 1e9, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AllocFuzzEdge, ShardCountCannotBypassTheCap) {
  // 2^20 shard objects need ~96 MiB before the first row arrives; they
  // are working memory like any frontier, so a 10-row population cannot
  // carry them past a 64 KiB cap.
  SyntheticRowSource source(/*n=*/10, /*seed=*/7, /*chunk_rows=*/16);
  StreamingOptions options;
  options.num_shards = 1 << 20;
  options.memory_cap_bytes = size_t{64} << 10;
  StatusOr<StreamingResult> result =
      StreamingAllocate(&source, 5.0, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AllocFuzzEdge, DualGridCannotBypassTheCap) {
  // A 2^22-candidate grid is three 32 MiB arrays; they are working memory
  // for as long as the bisection runs, so a 10-row population cannot
  // carry them past a 1 MiB cap.
  SyntheticRowSource source(/*n=*/10, /*seed=*/7, /*chunk_rows=*/16);
  StreamingOptions options;
  options.mode = AllocMode::kDual;
  options.dual_grid = 1 << 22;
  options.memory_cap_bytes = size_t{1} << 20;
  StatusOr<StreamingResult> result =
      StreamingAllocate(&source, 5.0, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);

  options.dual_grid = StreamingOptions().dual_grid;
  result = StreamingAllocate(&source, 5.0, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().dual_threshold, 0.0);  // the bisection ran
}

/// The dual's threshold recomputed in memory: the same stats pass and
/// bisection as the streaming dual, but bucketing every row with
/// std::lower_bound over the candidates. Sets `*repeated` when some pass
/// had two equal candidates.
double LowerBoundDualThreshold(const std::vector<double>& roi,
                               const std::vector<double>& cost,
                               double budget, int passes, int grid,
                               bool* repeated) {
  double spend_at_zero = 0.0;
  double max_roi = 0.0;
  for (size_t i = 0; i < roi.size(); ++i) {
    if (roi[i] > 0.0) spend_at_zero += cost[i];
    max_roi = std::max(max_roi, roi[i]);
  }
  if (roi.empty() || !(spend_at_zero > budget)) return 0.0;
  double lo = 0.0;
  double hi = max_roi;
  std::vector<double> candidates(AsSize(grid));
  std::vector<double> bucket_cost(AsSize(grid) + 1);
  for (int pass = 0; pass < passes; ++pass) {
    double step = (hi - lo) / static_cast<double>(grid + 1);
    if (!(step > 0.0)) break;
    for (int g = 0; g < grid; ++g) {
      candidates[AsSize(g)] = lo + step * static_cast<double>(g + 1);
    }
    if (std::adjacent_find(candidates.begin(), candidates.end()) !=
        candidates.end()) {
      *repeated = true;
    }
    std::fill(bucket_cost.begin(), bucket_cost.end(), 0.0);
    for (size_t i = 0; i < roi.size(); ++i) {
      const auto it =
          std::lower_bound(candidates.begin(), candidates.end(), roi[i]);
      bucket_cost[static_cast<size_t>(it - candidates.begin())] += cost[i];
    }
    double suffix = 0.0;
    int feasible = -1;
    std::vector<double> spend(AsSize(grid));
    for (int g = grid - 1; g >= 0; --g) {
      suffix += bucket_cost[AsSize(g) + 1];
      spend[AsSize(g)] = suffix;
    }
    for (int g = 0; g < grid && feasible < 0; ++g) {
      if (spend[AsSize(g)] <= budget) feasible = g;
    }
    if (feasible < 0) {
      lo = candidates[AsSize(grid - 1)];
    } else {
      hi = candidates[AsSize(feasible)];
      if (feasible > 0) lo = candidates[AsSize(feasible - 1)];
    }
  }
  return hi;
}

TEST(AllocFuzzEdge, DualBisectionMatchesLowerBoundReference) {
  // The threshold is the only value the bucketing feeds: every spend,
  // selection and gap is a function of it. The inputs sit where an O(1)
  // bucket estimate could round the wrong way.
  struct Case {
    std::string name;
    std::vector<double> roi;
    int grid;
    int passes;
  };
  std::vector<Case> cases;
  Rng rng(20240817);
  for (int grid : {2, 3, 64}) {
    // Rows exactly on the first pass's candidates (lo = 0, hi = max roi)
    // and one ulp either side, plus rows at or below lo and at max roi.
    const double max_roi = 0.9;
    const double step = max_roi / static_cast<double>(grid + 1);
    std::vector<double> on_grid = {max_roi, 0.0, -0.25};
    for (int g = 0; g < grid; ++g) {
      const double c = 0.0 + step * static_cast<double>(g + 1);
      on_grid.push_back(c);
      on_grid.push_back(std::nextafter(c, -1.0));
      on_grid.push_back(std::nextafter(c, 2.0));
    }
    cases.push_back({"on_grid", on_grid, grid,
                     StreamingOptions().dual_passes});
  }
  // Twelve 65-way passes narrow the bracket to a few ulps, where the
  // candidates round onto each other; a cluster of rows one ulp apart
  // holds most of the cost, so the bracket closes inside it.
  std::vector<double> clustered(20);
  for (double& r : clustered) r = rng.Uniform(-0.2, 0.95);
  for (double r = 0.6; clustered.size() < 60; r = std::nextafter(r, 1.0)) {
    clustered.push_back(r);
  }
  cases.push_back({"few_ulp_bracket", clustered, 64, 12});
  // All-equal roi: the bracket closes on that one value from below.
  cases.push_back({"all_equal", std::vector<double>(50, 0.5), 64, 12});

  for (const Case& c : cases) {
    std::vector<double> cost(c.roi.size());
    double total = 0.0;
    for (double& x : cost) {
      x = rng.Uniform(0.0, 2.0);
      total += x;
    }
    bool repeated = false;
    for (double fraction : {0.05, 0.3, 0.7}) {
      const double budget = fraction * total;
      const double want = LowerBoundDualThreshold(c.roi, cost, budget,
                                                  c.passes, c.grid,
                                                  &repeated);
      for (int chunk_rows : {1, 7, 64}) {
        SCOPED_TRACE(c.name + " grid " + std::to_string(c.grid) +
                     " budget fraction " + std::to_string(fraction) +
                     " chunk " + std::to_string(chunk_rows));
        StreamingOptions options;
        options.mode = AllocMode::kDual;
        options.dual_grid = c.grid;
        options.dual_passes = c.passes;
        VectorRowSource source(c.roi, cost, chunk_rows);
        StatusOr<StreamingResult> result =
            StreamingAllocate(&source, budget, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(std::bit_cast<uint64_t>(result.value().dual_threshold),
                  std::bit_cast<uint64_t>(want))
            << result.value().dual_threshold << " vs " << want;
      }
    }
    // The narrow-bracket cases must really have reached repeated
    // candidates, or they test nothing the on-grid case does not.
    EXPECT_EQ(repeated, c.passes > StreamingOptions().dual_passes)
        << c.name;
  }
}

TEST(AllocFuzzEdge, MultiArmSourceIsRejected) {
  // Binary allocation is the one-arm stream; K arms go through the
  // campaign allocator, which knows the per-arm budgets.
  for (AllocMode mode : {AllocMode::kGreedy, AllocMode::kDual}) {
    SyntheticRowSource source(/*n=*/10, /*num_arms=*/2, /*seed=*/7,
                              /*chunk_rows=*/16);
    StreamingOptions options;
    options.mode = mode;
    StatusOr<StreamingResult> result =
        StreamingAllocate(&source, 5.0, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

/// Direct fuzz of the frontier data structure: after Compact, the kept
/// list must be rank-sorted and be exactly the prefix whose FP prefix
/// sum first exceeds the budget (the stop sentinel being the only row
/// past the budget).
TEST(FrontierFuzz, InvariantHoldsUnderRandomAddCompactInterleaving) {
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed * 31337);
    double budget = rng.Uniform(0.0, 20.0);
    MemoryAccountant accountant(size_t{16} << 20);
    ShardFrontier frontier(budget, &accountant);
    int n = 1 + static_cast<int>(rng.UniformInt(600));
    for (int i = 0; i < n; ++i) {
      double roi = rng.UniformInt(3) == 0 ? 0.5 : rng.Uniform(0.0, 1.0);
      ASSERT_TRUE(frontier.Add(i, roi, rng.Uniform(0.0, 2.0)));
      if (rng.UniformInt(50) == 0) {
        ASSERT_TRUE(frontier.Compact());
      }
    }
    ASSERT_TRUE(frontier.Compact());
    const std::vector<FrontierItem>& kept = frontier.items();
    EXPECT_TRUE(std::is_sorted(kept.begin(), kept.end(), RankBefore));
    double spent = 0.0;
    for (size_t j = 0; j < kept.size(); ++j) {
      spent += kept[j].cost;
      if (spent > budget) {
        // Only the sentinel may cross the budget, and it must be last.
        EXPECT_EQ(j, kept.size() - 1) << "non-sentinel row past budget";
      }
    }
  }
}

/// The TSan case: concurrent shard accumulation must be bitwise
/// identical to the sequential path — shards partition rows disjointly
/// and each shard sees its rows in index order at any interleaving.
TEST(ConcurrentShardAccumulation, ParallelMatchesSequentialBitwise) {
  Rng rng(4242);
  const int n = 20000;
  std::vector<double> roi(AsSize(n));
  std::vector<double> cost(AsSize(n));
  for (int i = 0; i < n; ++i) {
    roi[AsSize(i)] = 0.05 + 0.05 * static_cast<double>(rng.UniformInt(18));
    cost[AsSize(i)] = rng.Uniform(0.2, 2.0);
  }
  double budget = 300.0;
  StreamingOptions sequential;
  sequential.num_shards = 8;
  VectorRowSource source_a(roi, cost, /*chunk_rows=*/512);
  StatusOr<StreamingResult> a =
      StreamingAllocate(&source_a, budget, sequential);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  for (int repeat = 0; repeat < 3; ++repeat) {
    StreamingOptions parallel = sequential;
    parallel.parallel_shards = true;
    VectorRowSource source_b(roi, cost, /*chunk_rows=*/512);
    StatusOr<StreamingResult> b =
        StreamingAllocate(&source_b, budget, parallel);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a.value().selected, b.value().selected);
    EXPECT_EQ(a.value().spent, b.value().spent);
  }
}

}  // namespace
}  // namespace roicl::alloc
