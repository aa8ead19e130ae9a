#include "core/incremental_quantile.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/conformal.h"

namespace roicl::core {
namespace {

/// The batch reference the treap must match bitwise: the most recent
/// `window` scores through the same rank expression the calibration path
/// uses.
double BatchQHat(const std::deque<double>& window, double alpha) {
  std::vector<double> scores(window.begin(), window.end());
  return WindowedConformalScoreQuantile(scores, scores.size(), alpha);
}

TEST(IncrementalQuantile, MatchesBatchOnSortedPrefixInserts) {
  IncrementalQuantile iq;
  std::deque<double> window;
  for (int i = 1; i <= 64; ++i) {
    double value = 0.25 * i;
    iq.Insert(value);
    window.push_back(value);
    for (double alpha : {0.05, 0.1, 0.2, 0.5}) {
      EXPECT_EQ(iq.QHat(alpha), BatchQHat(window, alpha))
          << "n=" << i << " alpha=" << alpha;
    }
  }
}

TEST(IncrementalQuantile, KthIsTheOrderStatistic) {
  IncrementalQuantile iq;
  std::vector<double> values = {5.0, 1.0, 3.0, 3.0, 2.0, 8.0, 3.0};
  for (double v : values) iq.Insert(v);
  std::sort(values.begin(), values.end());
  ASSERT_EQ(iq.size(), values.size());
  for (std::size_t k = 1; k <= values.size(); ++k) {
    EXPECT_EQ(iq.Kth(k), values[k - 1]) << "k=" << k;
  }
}

TEST(IncrementalQuantile, EraseRemovesOneInstanceAndReportsAbsent) {
  IncrementalQuantile iq;
  iq.Insert(1.0);
  iq.Insert(1.0);
  iq.Insert(2.0);
  EXPECT_FALSE(iq.Erase(3.0));
  EXPECT_TRUE(iq.Erase(1.0));
  EXPECT_EQ(iq.size(), 2u);
  EXPECT_EQ(iq.Kth(1), 1.0);  // one duplicate survives
  EXPECT_TRUE(iq.Erase(1.0));
  EXPECT_FALSE(iq.Erase(1.0));
  EXPECT_EQ(iq.size(), 1u);
  EXPECT_EQ(iq.Kth(1), 2.0);
}

TEST(IncrementalQuantile, StarvedWindowReturnsInfinityLikeBatch) {
  // ceil((1-alpha)(n+1)) > n for small n: both paths must agree on +inf
  // so the recalibrator's max-score fallback triggers identically.
  IncrementalQuantile iq;
  std::deque<double> window;
  for (int i = 0; i < 3; ++i) {
    iq.Insert(1.0 + i);
    window.push_back(1.0 + i);
    double got = iq.QHat(0.05);
    double want = BatchQHat(window, 0.05);
    EXPECT_EQ(std::isinf(got), std::isinf(want)) << "n=" << i + 1;
    if (!std::isinf(want)) {
      EXPECT_EQ(got, want);
    }
  }
  EXPECT_TRUE(std::isinf(iq.QHat(0.05)));
  EXPECT_EQ(iq.QHat(0.05), std::numeric_limits<double>::infinity());
}

TEST(IncrementalQuantile, ClearEmptiesAndAcceptsReinsertion) {
  IncrementalQuantile iq;
  for (int i = 0; i < 10; ++i) iq.Insert(0.5 * i);
  iq.Clear();
  EXPECT_TRUE(iq.empty());
  iq.Insert(7.0);
  EXPECT_EQ(iq.size(), 1u);
  EXPECT_EQ(iq.Kth(1), 7.0);
}

/// The invariant the rolling recalibrator's hot path relies on: under
/// arbitrary insert/evict interleavings — duplicate-heavy value grids,
/// window sizes from 1 to 257, churn with re-insertion — the treap's
/// QHat is bitwise-identical to the batch quantile of the surviving
/// window at every step. 40 seeds, deterministic (PCG32).
TEST(IncrementalQuantile, MatchesBatchAcrossSeedsWindowsAndChurn) {
  const std::size_t kWindowSizes[] = {1, 5, 16, 64, 257};
  const double kAlphas[] = {0.05, 0.1, 0.2, 0.5};
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed, /*stream=*/17);
    std::size_t max_window = kWindowSizes[seed % 5];
    IncrementalQuantile iq;
    std::deque<double> window;
    for (int step = 0; step < 400; ++step) {
      double value;
      if (rng.Bernoulli(0.4)) {
        // Coarse grid: forces duplicate nodes and exercises the
        // per-node count bookkeeping on both insert and erase.
        value = 0.5 * rng.UniformInt(8);
      } else {
        value = rng.Uniform(-10.0, 10.0);
      }
      iq.Insert(value);
      window.push_back(value);
      while (window.size() > max_window) {
        ASSERT_TRUE(iq.Erase(window.front()));
        window.pop_front();
      }
      ASSERT_EQ(iq.size(), window.size());
      if (step % 7 == 0 || window.size() == max_window) {
        double alpha = kAlphas[(seed + static_cast<std::uint64_t>(step)) % 4];
        double got = iq.QHat(alpha);
        double want = BatchQHat(window, alpha);
        // Bitwise: +inf == +inf and finite quantiles are the exact
        // double the batch rank selection produces.
        ASSERT_EQ(got, want) << "seed=" << seed << " step=" << step
                             << " window=" << max_window
                             << " alpha=" << alpha;
      }
    }
  }
}

TEST(IncrementalQuantile, MoveTransfersTheTree) {
  IncrementalQuantile a;
  for (int i = 0; i < 5; ++i) a.Insert(1.0 * i);
  IncrementalQuantile b(std::move(a));
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(b.Kth(3), 2.0);
  IncrementalQuantile c;
  c.Insert(99.0);
  c = std::move(b);
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c.Kth(5), 4.0);
}

}  // namespace
}  // namespace roicl::core
