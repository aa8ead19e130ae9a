// End-to-end integration tests: the full Algorithm-4 pipeline over each
// dataset preset, the ablation runner, and cross-module consistency.

#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "core/rdrp.h"
#include "core/roi_star.h"
#include "data/csv.h"
#include "exp/ablation.h"
#include "exp/datasets.h"
#include "exp/runner.h"
#include "metrics/cost_curve.h"
#include "metrics/qini.h"

namespace roicl {
namespace {

exp::SplitSizes SmallSizes() {
  exp::SplitSizes sizes;
  sizes.train_sufficient = 3000;
  sizes.calibration = 1000;
  sizes.test = 1500;
  return sizes;
}

exp::MethodHyperparams FastHp() {
  exp::MethodHyperparams hp;
  hp.neural_epochs = 10;
  hp.cate_epochs = 4;
  hp.forest_trees = 8;
  hp.causal_forest_trees = 8;
  hp.mc_passes = 10;
  return hp;
}

class PipelinePerDataset : public ::testing::TestWithParam<exp::DatasetId> {
};

TEST_P(PipelinePerDataset, RdrpPipelineEndToEnd) {
  synth::SyntheticGenerator generator = exp::MakeGenerator(GetParam());
  DatasetSplits splits = exp::BuildSplits(generator, exp::Setting::kInCo,
                                          SmallSizes(), /*seed=*/3);
  core::RdrpModel rdrp(exp::MakeRdrpConfig(FastHp()));
  rdrp.FitWithCalibration(splits.train, splits.calibration);

  std::vector<double> scores = rdrp.PredictRoi(splits.test.x);
  ASSERT_EQ(static_cast<int>(scores.size()), splits.test.n());
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
  double aucc = metrics::Aucc(scores, splits.test);
  // Loose bound: a tiny model on a tiny InCo test set is noisy.
  EXPECT_GT(aucc, 0.35);
  EXPECT_LT(aucc, 1.0);

  // Intervals exist and have positive width after the conformal scaling.
  std::vector<metrics::Interval> intervals =
      rdrp.PredictIntervals(splits.test.x);
  double total_width = 0.0;
  for (const auto& iv : intervals) {
    EXPECT_LE(iv.lo, iv.hi);
    total_width += iv.width();
  }
  EXPECT_GT(total_width, 0.0);
}

TEST_P(PipelinePerDataset, GeneratedDataSurvivesCsvRoundTrip) {
  synth::SyntheticGenerator generator = exp::MakeGenerator(GetParam());
  Rng rng(9);
  RctDataset data = generator.Generate(200, true, &rng);
  // Parameterized instances run as separate concurrent processes under
  // `ctest -j`; the path must be unique per instance or they race on it.
  std::string path = ::testing::TempDir() + "/roicl_integration_" +
                     exp::DatasetName(GetParam()) + ".csv";
  ASSERT_TRUE(WriteDatasetCsv(data, path).ok());
  StatusOr<RctDataset> loaded = ReadDatasetCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().n(), data.n());
  EXPECT_EQ(loaded.value().dim(), data.dim());
  EXPECT_NEAR(metrics::OracleAucc(loaded.value()),
              metrics::OracleAucc(data), 1e-9);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, PipelinePerDataset,
                         ::testing::ValuesIn(exp::AllDatasets()),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case exp::DatasetId::kCriteo:
                               return "Criteo";
                             case exp::DatasetId::kMeituan:
                               return "Meituan";
                             case exp::DatasetId::kAlibaba:
                               return "Alibaba";
                           }
                           return "?";
                         });

TEST(AblationRunnerTest, VariantsShareTheBaseModel) {
  // The ablation evaluates DRP / w MC / w MC w CP from ONE trained net, so
  // every variant's AUCC must be within heuristic-calibration reach of the
  // base: identical when the "none" form is selected.
  exp::AblationRow row =
      exp::RunAblationSetting(exp::DatasetId::kCriteo, exp::Setting::kSuNo,
                              FastHp(), SmallSizes(), /*seed=*/4);
  EXPECT_GT(row.dr, 0.3);
  EXPECT_GT(row.drp, 0.3);
  for (double v : {row.dr, row.dr_mc, row.drp, row.drp_mc, row.drp_mc_cp}) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(ConsistencyTest, RdrpIntervalsCenterOnDrpPoints) {
  synth::SyntheticGenerator generator =
      exp::MakeGenerator(exp::DatasetId::kCriteo);
  DatasetSplits splits = exp::BuildSplits(generator, exp::Setting::kSuNo,
                                          SmallSizes(), /*seed=*/5);
  // Disable the [0, 1] clipping so the raw Algorithm-3 symmetry is
  // observable; clipped intervals are tested separately below.
  core::RdrpConfig config = exp::MakeRdrpConfig(FastHp());
  config.clip_to_unit = false;
  core::RdrpModel rdrp(config);
  rdrp.FitWithCalibration(splits.train, splits.calibration);
  std::vector<double> point = rdrp.drp().PredictRoi(splits.test.x);
  std::vector<metrics::Interval> intervals =
      rdrp.PredictIntervals(splits.test.x);
  for (size_t i = 0; i < intervals.size(); ++i) {
    EXPECT_NEAR((intervals[i].lo + intervals[i].hi) / 2.0, point[i], 1e-9);
  }
}

TEST(ConsistencyTest, ClippedIntervalsStayInUnitRangeAndContainPoint) {
  synth::SyntheticGenerator generator =
      exp::MakeGenerator(exp::DatasetId::kCriteo);
  DatasetSplits splits = exp::BuildSplits(generator, exp::Setting::kSuNo,
                                          SmallSizes(), /*seed=*/5);
  core::RdrpModel rdrp(exp::MakeRdrpConfig(FastHp()));  // clipping on
  rdrp.FitWithCalibration(splits.train, splits.calibration);
  std::vector<double> point = rdrp.drp().PredictRoi(splits.test.x);
  std::vector<metrics::Interval> intervals =
      rdrp.PredictIntervals(splits.test.x);
  for (size_t i = 0; i < intervals.size(); ++i) {
    EXPECT_GE(intervals[i].lo, 0.0);
    EXPECT_LE(intervals[i].hi, 1.0);
    // The DRP point is a valid ROI, so it survives the clip.
    EXPECT_TRUE(intervals[i].Contains(point[i])) << i;
  }
}

TEST(ConsistencyTest, OracleDominatesLearnedModelsOnAucc) {
  synth::SyntheticGenerator generator =
      exp::MakeGenerator(exp::DatasetId::kCriteo);
  DatasetSplits splits = exp::BuildSplits(generator, exp::Setting::kSuNo,
                                          SmallSizes(), /*seed=*/6);
  core::DrpModel drp(exp::MakeDrpConfig(FastHp()));
  drp.Fit(splits.train);
  double drp_aucc = metrics::Aucc(drp.PredictRoi(splits.test.x),
                                  splits.test);
  // Allow slack: AUCC is a noisy finite-sample estimate, and a learned
  // model can edge past the oracle on one draw.
  EXPECT_LT(drp_aucc, metrics::OracleAucc(splits.test) + 0.05);
}

TEST(ConsistencyTest, QiniAndAuccAgreeOnOracleVsRandom) {
  synth::SyntheticGenerator generator =
      exp::MakeGenerator(exp::DatasetId::kCriteo);
  Rng rng(7);
  RctDataset data = generator.Generate(8000, false, &rng);
  std::vector<double> oracle(AsSize(data.n())), random_scores(AsSize(data.n()));
  for (int i = 0; i < data.n(); ++i) {
    oracle[AsSize(i)] = data.true_tau_r[AsSize(i)];
    random_scores[AsSize(i)] = rng.Uniform();
  }
  EXPECT_GT(metrics::Aucc(oracle, data), metrics::Aucc(random_scores, data));
  EXPECT_GT(metrics::QiniCoefficient(oracle, data),
            metrics::QiniCoefficient(random_scores, data));
}

TEST(RunnerIntegrationTest, FullSweepOverTwoMethods) {
  exp::MethodHyperparams hp = FastHp();
  std::vector<exp::MethodSpec> methods = {exp::DrpMethod(hp),
                                          exp::RdrpMethod(hp)};
  exp::SplitSizes sizes;
  sizes.train_sufficient = 1200;
  sizes.calibration = 400;
  sizes.test = 600;
  std::vector<exp::OfflineCell> cells =
      exp::RunOfflineSweep(methods, sizes, /*seed=*/8);
  // 3 datasets x 4 settings x 2 methods.
  EXPECT_EQ(cells.size(), 24u);
  for (const auto& cell : cells) {
    EXPECT_TRUE(std::isfinite(cell.aucc));
  }
}

}  // namespace
}  // namespace roicl
