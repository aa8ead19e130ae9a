#include "core/conformal.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"

namespace roicl::core {
namespace {

TEST(ConformalScoresTest, MatchesFormula) {
  std::vector<double> roi_hat = {0.5, 0.3};
  std::vector<double> r_hat = {0.1, 0.2};
  std::vector<double> scores = ConformalScores(0.4, roi_hat, r_hat);
  EXPECT_NEAR(scores[0], 1.0, 1e-12);   // |0.4-0.5|/0.1
  EXPECT_NEAR(scores[1], 0.5, 1e-12);   // |0.4-0.3|/0.2
}

TEST(ConformalScoresTest, FlooredStdAvoidsInfinity) {
  std::vector<double> scores =
      ConformalScores(0.4, {0.5}, {0.0}, /*std_floor=*/1e-6);
  EXPECT_TRUE(std::isfinite(scores[0]));
  EXPECT_NEAR(scores[0], 0.1 / 1e-6, 1.0);
}

TEST(ConformalIntervalsTest, SymmetricAroundPoint) {
  std::vector<metrics::Interval> intervals =
      ConformalIntervals({0.5, 0.2}, {0.1, 0.05}, /*q_hat=*/2.0);
  EXPECT_NEAR(intervals[0].lo, 0.3, 1e-12);
  EXPECT_NEAR(intervals[0].hi, 0.7, 1e-12);
  EXPECT_NEAR(intervals[1].width(), 0.2, 1e-12);
}

// The split-conformal coverage property (Eq. 4): calibrate on n draws,
// test on fresh exchangeable draws; empirical coverage of the target must
// be >= 1 - alpha (up to finite-sample fluctuation).
class ConformalCoverage
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(ConformalCoverage, CoversExchangeableTestPoints) {
  auto [n_calib, alpha] = GetParam();
  Rng rng(static_cast<uint64_t>(n_calib * 31 + alpha * 1000));
  const int kTest = 4000;
  const double kTarget = 0.5;  // the "true value" every sample shares

  // Heteroscedastic predictor: roi_hat_i = target + sigma_i * noise,
  // r_hat_i an imperfect but correlated uncertainty estimate.
  auto draw = [&](std::vector<double>* roi_hat, std::vector<double>* r_hat,
                  int count) {
    for (int i = 0; i < count; ++i) {
      double sigma = 0.02 + 0.1 * rng.Uniform();
      roi_hat->push_back(kTarget + rng.Normal(0.0, sigma));
      r_hat->push_back(sigma * (0.8 + 0.4 * rng.Uniform()));
    }
  };
  std::vector<double> calib_roi, calib_r;
  draw(&calib_roi, &calib_r, n_calib);
  std::vector<double> scores = ConformalScores(kTarget, calib_roi, calib_r);
  double q_hat = ConformalScoreQuantile(scores, alpha);
  ASSERT_TRUE(std::isfinite(q_hat));

  std::vector<double> test_roi, test_r;
  draw(&test_roi, &test_r, kTest);
  std::vector<metrics::Interval> intervals =
      ConformalIntervals(test_roi, test_r, q_hat);
  int covered = 0;
  for (const auto& interval : intervals) {
    covered += interval.Contains(kTarget);
  }
  double coverage = static_cast<double>(covered) / kTest;
  // Allow 3 standard errors of slack below the target.
  double slack = 3.0 * std::sqrt(alpha * (1 - alpha) / n_calib) + 0.01;
  EXPECT_GE(coverage, 1.0 - alpha - slack)
      << "n_calib=" << n_calib << " alpha=" << alpha;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConformalCoverage,
    ::testing::Combine(::testing::Values(50, 200, 1000),
                       ::testing::Values(0.05, 0.1, 0.2, 0.4)));

TEST(ConformalQuantileTest, MonotoneInAlpha) {
  Rng rng(5);
  std::vector<double> scores(500);
  for (double& s : scores) s = rng.Exponential(1.0);
  double prev = std::numeric_limits<double>::infinity();
  for (double alpha : {0.01, 0.05, 0.1, 0.3, 0.5, 0.9}) {
    double q = ConformalScoreQuantile(scores, alpha);
    EXPECT_LE(q, prev) << "alpha=" << alpha;
    prev = q;
  }
}

TEST(ConformalQuantileTest, StarvedCalibrationCountsAndReturnsInfinity) {
  // ceil((1 - 0.1) * (n + 1)) > n for n = 3, so the quantile degenerates
  // to +inf (trivially covering intervals). That must be observable: the
  // conformal.qhat_infinite counter advances once per occurrence.
  obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("conformal.qhat_infinite");
  counter->Reset();
  double q = ConformalScoreQuantile({1.0, 2.0, 3.0}, 0.1);
  EXPECT_TRUE(std::isinf(q));
  EXPECT_GT(q, 0.0);
  EXPECT_EQ(counter->value(), 1u);
  // A healthy set leaves the counter alone.
  std::vector<double> scores(100);
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = static_cast<double>(i);
  }
  EXPECT_TRUE(std::isfinite(ConformalScoreQuantile(scores, 0.1)));
  EXPECT_EQ(counter->value(), 1u);
}

}  // namespace
}  // namespace roicl::core
