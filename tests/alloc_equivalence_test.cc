#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/row_source.h"
#include "alloc/streaming.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "core/greedy.h"
#include "obs/metrics.h"

/// \file
/// The acceptance mechanism for the streaming allocator: property tests
/// proving the sharded streaming selection is *bitwise identical* to the
/// in-memory reference greedy (core::GreedyAllocate, stop variant) —
/// same selected indices in the same order, same floating-point spend —
/// across shard counts, chunk sizes, and duplicate-ROI-key inputs; and
/// that the dual-threshold mode matches greedy when its gap is zero and
/// reports a sound gap otherwise.

namespace roicl::alloc {
namespace {

StreamingResult MustAllocate(RowSource* source, double budget,
                             const StreamingOptions& options) {
  StatusOr<StreamingResult> result =
      StreamingAllocate(source, budget, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : StreamingResult{};
}

/// Bitwise equivalence: identical selection sequence and identical
/// floating-point spend (EXPECT_EQ on doubles is exact equality).
void ExpectBitwiseEqual(const StreamingResult& streaming,
                        const core::AllocationResult& reference) {
  ASSERT_EQ(streaming.selected.size(), reference.selected.size());
  for (size_t i = 0; i < reference.selected.size(); ++i) {
    EXPECT_EQ(streaming.selected[i],
              static_cast<int64_t>(reference.selected[i]))
        << "position " << i;
  }
  EXPECT_EQ(streaming.spent, reference.spent);
}

/// Random instance with deliberately duplicated ROI keys: scores come
/// from a 12-value grid, so collisions are dense and the documented
/// (roi, index) total order is what the equivalence actually exercises.
void MakeInstance(uint64_t seed, int n, std::vector<double>* roi,
                  std::vector<double>* cost) {
  Rng rng(seed);
  roi->resize(AsSize(n));
  cost->resize(AsSize(n));
  for (int i = 0; i < n; ++i) {
    (*roi)[AsSize(i)] = 0.05 + 0.075 * static_cast<double>(rng.UniformInt(12));
    (*cost)[AsSize(i)] = rng.Uniform(0.2, 2.0);
  }
}

// ---------------------------------------------------------------------
// StreamingSmoke.*: the build-matrix smoke subset (check_build_matrix.sh
// runs exactly this suite in every compiler/profile config).
// ---------------------------------------------------------------------

TEST(StreamingSmoke, GreedyMatchesReferenceOnFixedInstance) {
  // Duplicate ROI keys (0.5 three times) across shard boundaries.
  std::vector<double> roi = {0.5, 0.9, 0.5, 0.3, 0.5, 0.7, 0.1, 0.9};
  std::vector<double> cost = {1.0, 0.5, 1.5, 2.0, 0.5, 1.0, 0.3, 0.7};
  core::AllocationResult reference =
      core::GreedyAllocate(roi, cost, 3.0, /*skip_unaffordable=*/false);
  StreamingOptions options;
  options.num_shards = 3;
  VectorRowSource source(roi, cost, /*chunk_rows=*/4);
  StreamingResult streaming = MustAllocate(&source, 3.0, options);
  ExpectBitwiseEqual(streaming, reference);
}

TEST(StreamingSmoke, DualModeIsFeasibleAndReportsGap) {
  std::vector<double> roi;
  std::vector<double> cost;
  MakeInstance(7, 64, &roi, &cost);
  StreamingOptions options;
  options.mode = AllocMode::kDual;
  options.num_shards = 2;
  VectorRowSource source(roi, cost, /*chunk_rows=*/16);
  StreamingResult result = MustAllocate(&source, 8.0, options);
  EXPECT_LE(result.spent, 8.0);
  EXPECT_GE(result.dual_gap, -1e-9);
  EXPECT_LE(result.value, result.dual_upper_bound + 1e-9);
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

// The alloc.* family reports each call. This binary never preregisters,
// so an instrument is present only if StreamingAllocate writes it.
TEST(StreamingMetrics, AllocFamilyReportsTheResult) {
  std::vector<double> roi;
  std::vector<double> cost;
  MakeInstance(7, 64, &roi, &cost);
  StreamingOptions options;
  options.mode = AllocMode::kDual;
  options.num_shards = 2;
  obs::MetricsRegistry::Global().Reset();
  VectorRowSource source(roi, cost, /*chunk_rows=*/16);
  StreamingResult result = MustAllocate(&source, 8.0, options);
  const std::map<std::string, double> expected = {
      {"alloc.streaming_calls", 1.0},
      {"alloc.rows_streamed", static_cast<double>(result.rows_streamed)},
      {"alloc.frontier_evictions",
       static_cast<double>(result.frontier_evictions)},
      {"alloc.threshold_overflow",
       static_cast<double>(result.dual_threshold_overflow)},
      {"alloc.shards", 2.0},
      {"alloc.selected", static_cast<double>(result.selected.size())},
      {"alloc.merge_candidates",
       static_cast<double>(result.merge_candidates)},
      {"alloc.peak_memory_bytes",
       static_cast<double>(result.peak_memory_bytes)},
      {"alloc.dual_threshold", result.dual_threshold},
      {"alloc.dual_gap", result.dual_gap}};
  EXPECT_EQ(MetricFamily("alloc."), expected);
}

// ---------------------------------------------------------------------
// Property battery: bitwise equivalence across shards/chunks/instances.
// ---------------------------------------------------------------------

class StreamingEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingEquivalence, BitwiseMatchesInMemoryGreedy) {
  Rng rng(GetParam() * 7919 + 1);
  int n = static_cast<int>(rng.UniformInt(200));
  std::vector<double> roi;
  std::vector<double> cost;
  MakeInstance(GetParam(), n, &roi, &cost);
  double budget = rng.Uniform(0.0, 0.4 * static_cast<double>(n) + 1.0);
  core::AllocationResult reference =
      core::GreedyAllocate(roi, cost, budget, /*skip_unaffordable=*/false);
  for (int shards : {1, 2, 3, 8}) {
    for (int chunk_rows : {1, 7, 64}) {
      StreamingOptions options;
      options.num_shards = shards;
      VectorRowSource source(roi, cost, chunk_rows);
      StreamingResult streaming = MustAllocate(&source, budget, options);
      ExpectBitwiseEqual(streaming, reference);
      EXPECT_LE(streaming.peak_memory_bytes, options.memory_cap_bytes)
          << "shards=" << shards << " chunk_rows=" << chunk_rows;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, StreamingEquivalence,
                         ::testing::Range<uint64_t>(1, 41));

TEST(StreamingEquivalence, ThousandDuplicateKeysAcrossShards) {
  // 1000 rows sharing one ROI key: ranking is decided purely by the
  // documented index tie-break, the hardest case for reconciliation.
  std::vector<double> roi(1000, 0.5);
  std::vector<double> cost(1000);
  Rng rng(99);
  for (double& c : cost) c = rng.Uniform(0.2, 2.0);
  core::AllocationResult reference =
      core::GreedyAllocate(roi, cost, 100.0, /*skip_unaffordable=*/false);
  for (int shards : {1, 2, 3, 8}) {
    StreamingOptions options;
    options.num_shards = shards;
    VectorRowSource source(roi, cost, /*chunk_rows=*/37);
    StreamingResult streaming = MustAllocate(&source, 100.0, options);
    ExpectBitwiseEqual(streaming, reference);
  }
}

TEST(StreamingEquivalence, ParallelShardsMatchSequential) {
  std::vector<double> roi;
  std::vector<double> cost;
  MakeInstance(1234, 500, &roi, &cost);
  StreamingOptions sequential;
  sequential.num_shards = 8;
  VectorRowSource source_a(roi, cost, /*chunk_rows=*/64);
  StreamingResult a = MustAllocate(&source_a, 40.0, sequential);
  StreamingOptions parallel = sequential;
  parallel.parallel_shards = true;
  VectorRowSource source_b(roi, cost, /*chunk_rows=*/64);
  StreamingResult b = MustAllocate(&source_b, 40.0, parallel);
  ASSERT_EQ(a.selected.size(), b.selected.size());
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.spent, b.spent);
}

// ---------------------------------------------------------------------
// Dual-threshold mode.
// ---------------------------------------------------------------------

TEST(DualThreshold, MatchesGreedyWhenGapIsZero) {
  // Unit costs, well-separated ROI keys, budget exactly k: the threshold
  // solution IS the greedy top-k and the Lagrangian gap vanishes.
  std::vector<double> roi = {0.90, 0.82, 0.74, 0.66, 0.58,
                             0.50, 0.42, 0.34, 0.26, 0.18};
  std::vector<double> cost(roi.size(), 1.0);
  double budget = 4.0;
  core::AllocationResult reference =
      core::GreedyAllocate(roi, cost, budget, /*skip_unaffordable=*/false);
  StreamingOptions options;
  options.mode = AllocMode::kDual;
  options.num_shards = 2;
  VectorRowSource source(roi, cost, /*chunk_rows=*/3);
  StreamingResult dual = MustAllocate(&source, budget, options);
  EXPECT_NEAR(dual.dual_gap, 0.0, 1e-9);
  // Same selected set (dual emits in index order; compare as sets).
  std::vector<int64_t> got = dual.selected;
  std::sort(got.begin(), got.end());
  std::vector<int64_t> want(reference.selected.begin(),
                            reference.selected.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(dual.spent, reference.spent);
}

class DualSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DualSoundness, FeasibleAndBoundedByCertificate) {
  Rng rng(GetParam() * 104729 + 5);
  int n = 1 + static_cast<int>(rng.UniformInt(300));
  std::vector<double> roi;
  std::vector<double> cost;
  MakeInstance(GetParam() + 1000, n, &roi, &cost);
  double budget = rng.Uniform(0.0, 0.3 * static_cast<double>(n) + 1.0);
  StreamingOptions options;
  options.mode = AllocMode::kDual;
  options.num_shards = 3;
  VectorRowSource source(roi, cost, /*chunk_rows=*/32);
  StreamingResult dual = MustAllocate(&source, budget, options);
  // Hard feasibility: never spend past the budget, no epsilon.
  EXPECT_LE(dual.spent, budget);
  // The Lagrangian certificate really bounds the achieved value, so the
  // reported gap is a sound optimality bound.
  EXPECT_GE(dual.dual_gap, -1e-9);
  EXPECT_LE(dual.value, dual.dual_upper_bound + 1e-9);
  // The reference greedy value never beats the certificate either.
  core::AllocationResult reference =
      core::GreedyAllocate(roi, cost, budget, /*skip_unaffordable=*/false);
  double reference_value = 0.0;
  for (int i : reference.selected) {
    reference_value += roi[AsSize(i)] * cost[AsSize(i)];
  }
  EXPECT_LE(reference_value, dual.dual_upper_bound + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, DualSoundness,
                         ::testing::Range<uint64_t>(1, 31));

// ---------------------------------------------------------------------
// Scale: the acceptance runs — 1M rows proven bitwise-equivalent, 10M
// rows allocated inside a 64 MiB accounted cap.
// ---------------------------------------------------------------------

constexpr uint64_t kScaleSeed = 20240942;  // pinned; see EXPERIMENTS.md

TEST(StreamingScale, OneMillionRowsBitwiseMatchReference) {
  const int64_t n = 1'000'000;
  std::vector<double> roi(AsSize64(n));
  std::vector<double> cost(AsSize64(n));
  for (int64_t i = 0; i < n; ++i) {
    SyntheticRowSource::RowAt(kScaleSeed, i, &roi[AsSize64(i)],
                              &cost[AsSize64(i)]);
  }
  double total = 0.0;
  for (double c : cost) total += c;
  double budget = 0.002 * total;
  core::AllocationResult reference =
      core::GreedyAllocate(roi, cost, budget, /*skip_unaffordable=*/false);
  StreamingOptions options;
  options.num_shards = 8;
  options.memory_cap_bytes = size_t{64} << 20;
  SyntheticRowSource source(n, kScaleSeed, /*chunk_rows=*/65536);
  StreamingResult streaming = MustAllocate(&source, budget, options);
  ExpectBitwiseEqual(streaming, reference);
  EXPECT_LE(streaming.peak_memory_bytes, options.memory_cap_bytes);
}

TEST(StreamingScale, TenMillionRowsUnderSixtyFourMiBCap) {
  const int64_t n = 10'000'000;
  SyntheticRowSource source(n, kScaleSeed, /*chunk_rows=*/65536);
  StatusOr<double> total = StreamingTotalCost(&source);
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  double budget = 0.002 * total.value();
  StreamingOptions options;
  options.num_shards = 8;
  options.memory_cap_bytes = size_t{64} << 20;
  StreamingResult streaming = MustAllocate(&source, budget, options);
  EXPECT_EQ(streaming.rows_streamed, n);
  EXPECT_GT(streaming.selected.size(), 0u);
  EXPECT_LE(streaming.spent, budget);
  // The cap held: every byte of working state — chunk buffer, frontiers
  // (including transient merge scratch), merge candidates, selection —
  // went through the accountant and stayed under 64 MiB for a 10M-row
  // population that would need ~229 MiB just for (roi, cost) arrays.
  EXPECT_LE(streaming.peak_memory_bytes, options.memory_cap_bytes);
  EXPECT_GT(streaming.frontier_evictions, 0);
}

}  // namespace
}  // namespace roicl::alloc
