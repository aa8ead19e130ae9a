#include "core/rdrp.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/roi_star.h"
#include "metrics/cost_curve.h"
#include "synth/synthetic_generator.h"

namespace roicl::core {
namespace {

class RdrpTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    generator_ = new synth::SyntheticGenerator(synth::CriteoSynthConfig());
    Rng rng(31);
    train_ = new RctDataset(generator_->Generate(5000, false, &rng));
    calib_ = new RctDataset(generator_->Generate(1500, true, &rng));
    test_ = new RctDataset(generator_->Generate(2500, true, &rng));
  }
  static void TearDownTestSuite() {
    delete generator_;
    delete train_;
    delete calib_;
    delete test_;
  }

  static RdrpConfig FastConfig() {
    RdrpConfig config;
    config.drp.train.epochs = 12;
    config.mc_passes = 20;
    return config;
  }

  static synth::SyntheticGenerator* generator_;
  static RctDataset* train_;
  static RctDataset* calib_;
  static RctDataset* test_;
};

synth::SyntheticGenerator* RdrpTest::generator_ = nullptr;
RctDataset* RdrpTest::train_ = nullptr;
RctDataset* RdrpTest::calib_ = nullptr;
RctDataset* RdrpTest::test_ = nullptr;

TEST_F(RdrpTest, PipelineProducesFiniteScores) {
  RdrpModel rdrp(FastConfig());
  rdrp.FitWithCalibration(*train_, *calib_);
  EXPECT_TRUE(rdrp.calibrated());
  EXPECT_GT(rdrp.q_hat(), 0.0);
  EXPECT_TRUE(std::isfinite(rdrp.q_hat()));
  EXPECT_GT(rdrp.roi_star(), 0.0);
  EXPECT_LT(rdrp.roi_star(), 1.0);
  std::vector<double> scores = rdrp.PredictRoi(test_->x);
  ASSERT_EQ(static_cast<int>(scores.size()), test_->n());
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST_F(RdrpTest, IntervalsCoverTestConvergencePoint) {
  RdrpModel rdrp(FastConfig());
  rdrp.FitWithCalibration(*train_, *calib_);
  std::vector<metrics::Interval> intervals =
      rdrp.PredictIntervals(test_->x);
  double roi_star_test = BinarySearchRoiStar(*test_);
  int covered = 0;
  for (const auto& interval : intervals) {
    covered += interval.Contains(roi_star_test);
  }
  double coverage =
      static_cast<double>(covered) / static_cast<double>(intervals.size());
  // Eq. 4 with alpha = 0.1, minus finite-sample slack: the calibration
  // roi* and the test roi* differ slightly, so allow a margin.
  EXPECT_GE(coverage, 0.82);
}

TEST_F(RdrpTest, WiderAlphaGivesNarrowerIntervals) {
  RdrpConfig config_tight = FastConfig();
  config_tight.alpha = 0.05;
  RdrpConfig config_loose = FastConfig();
  config_loose.alpha = 0.4;
  RdrpModel tight(config_tight), loose(config_loose);
  tight.FitWithCalibration(*train_, *calib_);
  loose.FitWithCalibration(*train_, *calib_);
  EXPECT_GT(tight.q_hat(), loose.q_hat());
  double width_tight = 0.0, width_loose = 0.0;
  for (const auto& iv : tight.PredictIntervals(test_->x)) {
    width_tight += iv.width();
  }
  for (const auto& iv : loose.PredictIntervals(test_->x)) {
    width_loose += iv.width();
  }
  EXPECT_GT(width_tight, width_loose);
}

TEST_F(RdrpTest, CalibrationSelectionAtLeastMatchesRawDrpOnCalibSet) {
  RdrpModel rdrp(FastConfig());
  rdrp.FitWithCalibration(*train_, *calib_);
  double raw = metrics::Aucc(rdrp.drp().PredictRoi(calib_->x), *calib_);
  double calibrated = metrics::Aucc(rdrp.PredictRoi(calib_->x), *calib_);
  EXPECT_GE(calibrated, raw - 0.02)
      << "selected form must not collapse on the selection set";
}

TEST_F(RdrpTest, PlainFitFallsBackToTrainCalibration) {
  RdrpModel rdrp(FastConfig());
  rdrp.Fit(*train_);
  EXPECT_TRUE(rdrp.calibrated());
  std::vector<double> scores = rdrp.PredictRoi(test_->x);
  EXPECT_EQ(static_cast<int>(scores.size()), test_->n());
}

TEST_F(RdrpTest, BinnedRoiStarVariantRuns) {
  RdrpConfig config = FastConfig();
  config.binned_roi_star = true;
  config.roi_star_bins = 5;
  RdrpModel rdrp(config);
  rdrp.FitWithCalibration(*train_, *calib_);
  std::vector<double> scores = rdrp.PredictRoi(test_->x);
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST_F(RdrpTest, TinyCalibrationSetStillFinite) {
  // n_calib = 5 with alpha = 0.1 forces the infinite-quantile fallback.
  RdrpModel rdrp(FastConfig());
  std::vector<int> few = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  RctDataset small = calib_->Subset(few);
  rdrp.FitWithCalibration(*train_, small);
  EXPECT_TRUE(std::isfinite(rdrp.q_hat()));
  for (double s : rdrp.PredictRoi(test_->x)) {
    EXPECT_TRUE(std::isfinite(s));
  }
}

}  // namespace
}  // namespace roicl::core
