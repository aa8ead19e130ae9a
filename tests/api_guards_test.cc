// API-contract tests: misuse aborts loudly, documented edge behaviours
// hold, and configuration corner cases work.

#include <cmath>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "abtest/simulator.h"
#include "core/calibration.h"
#include "core/rdrp.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "nn/trainer.h"
#include "pipeline/pipeline.h"
#include "trees/causal_forest.h"
#include "trees/regression_tree.h"
#include "uplift/neural_cate.h"
#include "uplift/regressor.h"

namespace roicl {
namespace {

// ---------- nn ----------

TEST(NnGuardsTest, DenseRejectsBadDimensions) {
  Rng rng(1);
  EXPECT_DEATH(nn::Dense(0, 4, nn::Init::kXavier, &rng), "");
  EXPECT_DEATH(nn::Dense(4, 0, nn::Init::kXavier, &rng), "");
}

TEST(NnGuardsTest, DropoutRejectsBadRate) {
  EXPECT_DEATH(nn::Dropout(-0.1), "");
  EXPECT_DEATH(nn::Dropout(1.0), "");
}

TEST(NnGuardsTest, OptimizerRejectsChangedParamList) {
  Matrix a(2, 2), b(3, 3), ga(2, 2), gb(3, 3);
  nn::Adam adam(0.01);
  adam.Step({&a}, {&ga});
  EXPECT_DEATH(adam.Step({&a, &b}, {&ga, &gb}), "different parameter");
  adam.Reset();
  adam.Step({&a, &b}, {&ga, &gb});  // OK after Reset
}

TEST(NnGuardsTest, MakeMlpWithNoHiddenIsLinear) {
  Rng rng(2);
  nn::Mlp net = nn::Mlp::MakeMlp(3, {}, 2, nn::ActivationKind::kRelu, 0.5,
                                 &rng);
  EXPECT_EQ(net.num_layers(), 1u);  // single Dense, no activation/dropout
  Matrix out = net.Forward(Matrix(4, 3), nn::Mode::kInfer, nullptr);
  EXPECT_EQ(out.cols(), 2);
}

TEST(NnGuardsTest, BatchLargerThanDataStillTrains) {
  Rng rng(3);
  Matrix x(10, 1);
  std::vector<double> y(10, 1.0);
  for (int i = 0; i < 10; ++i) x(i, 0) = rng.Normal();
  nn::Mlp net = nn::Mlp::MakeMlp(1, {4}, 1, nn::ActivationKind::kTanh, 0.0,
                                 &rng);
  nn::MseLoss loss(&y);
  nn::TrainConfig config;
  config.epochs = 5;
  config.batch_size = 1000;  // > n
  std::vector<int> index = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  nn::TrainResult result = nn::TrainNetwork(&net, x, index, {}, loss,
                                            config);
  EXPECT_EQ(result.epochs_run, 5);
  EXPECT_TRUE(std::isfinite(result.final_train_loss));
}

// ---------- trees ----------

TEST(TreeGuardsTest, PredictBeforeFitAborts) {
  trees::RegressionTree tree;
  double row[1] = {0.0};
  EXPECT_DEATH(tree.Predict(row), "before Fit");
  trees::RandomForestRegressor forest((trees::ForestConfig()));
  EXPECT_DEATH(forest.Predict(row), "before Fit");
  trees::CausalForest causal((trees::CausalForestConfig()));
  EXPECT_DEATH(causal.PredictCate(row), "before Fit");
}

TEST(TreeGuardsTest, SingleLeafTreePredictsMean) {
  Matrix x(5, 1);
  std::vector<double> y = {1, 2, 3, 4, 5};
  std::vector<int> index = {0, 1, 2, 3, 4};
  trees::RegressionTree tree;
  trees::TreeConfig config;
  config.min_samples_leaf = 100;  // unsplittable
  tree.Fit(x, y, index, config, nullptr);
  EXPECT_DOUBLE_EQ(tree.Predict(x.RowPtr(0)), 3.0);
}

// ---------- uplift ----------

TEST(UpliftGuardsTest, NeuralCatePredictBeforeFitAborts) {
  uplift::NeuralCate model(uplift::NeuralCateKind::kTarnet,
                           uplift::NeuralCateConfig());
  EXPECT_DEATH(model.PredictCate(Matrix(1, 2)), "before Fit");
}

TEST(UpliftGuardsTest, RidgePredictDimensionMismatchAborts) {
  uplift::RidgeRegressor ridge(1.0);
  Matrix x(10, 2);
  std::vector<double> y(10, 1.0);
  ridge.Fit(x, y);
  EXPECT_DEATH(ridge.Predict(Matrix(1, 3)), "");
}

// ---------- core ----------

TEST(CoreGuardsTest, RdrpPredictBeforeCalibrationAborts) {
  core::RdrpModel rdrp((core::RdrpConfig()));
  EXPECT_DEATH(rdrp.PredictRoi(Matrix(1, 2)), "before FitWithCalibration");
  EXPECT_DEATH(rdrp.PredictIntervals(Matrix(1, 2)),
               "before FitWithCalibration");
}

TEST(CoreGuardsTest, CalibrationFormSizesMustMatch) {
  std::vector<double> roi = {0.5, 0.6};
  std::vector<double> rq = {0.1};
  EXPECT_DEATH(
      core::ApplyCalibrationForm(core::CalibrationForm::kUpper, roi, rq),
      "");
}

TEST(CoreGuardsTest, ZeroMarginRestoresPaperArgmax) {
  // With margin = 0 and clean synthetic signal, the selector must be able
  // to pick a non-none form (the paper's unguarded rule). Construct data
  // where 5c is unambiguously best: roi_hat is anti-informative on its
  // own, rq adds the missing signal.
  Rng rng(4);
  int n = 4000;
  RctDataset calib;
  calib.x = Matrix(n, 1);
  std::vector<double> roi_hat(AsSize(n)), rq(AsSize(n));
  for (int i = 0; i < n; ++i) {
    double true_roi = rng.Uniform(0.1, 0.9);
    roi_hat[AsSize(i)] = 0.5;                  // useless point estimate
    rq[AsSize(i)] = true_roi;                  // all signal in the "interval" term
    int t = rng.Bernoulli(0.5) ? 1 : 0;
    calib.treatment.push_back(t);
    calib.y_cost.push_back(rng.Bernoulli(0.2 + t * 0.3) ? 1.0 : 0.0);
    calib.y_revenue.push_back(
        rng.Bernoulli(0.05 + t * true_roi * 0.3) ? 1.0 : 0.0);
  }
  core::CalibrationForm form =
      core::SelectCalibrationForm(roi_hat, rq, calib, /*margin=*/0.0);
  EXPECT_NE(form, core::CalibrationForm::kNone);
}

// ---------- abtest ----------

TEST(AbTestGuardsTest, RejectsBadConfig) {
  synth::SyntheticGenerator generator(synth::CriteoSynthConfig());
  class Dummy : public uplift::RoiModel {
   public:
    void Fit(const RctDataset&) override {}
    std::vector<double> PredictRoi(const Matrix& x) const override {
      return std::vector<double>(AsSize(x.rows()), 0.5);
    }
    std::string name() const override { return "dummy"; }
  };
  Dummy model;
  abtest::AbTestConfig config;
  config.budget_fraction = 0.0;
  EXPECT_DEATH(abtest::RunAbTest(generator, false, model, model, config),
               "");
  config.budget_fraction = 0.1;
  config.num_days = 0;
  EXPECT_DEATH(abtest::RunAbTest(generator, false, model, model, config),
               "");
}

// ---------- pipeline ----------

// A knob outside the range its consumer CHECKs must fail the artifact
// load with a Status, not abort the first score (mc_passes < 2 reaches
// RunMcDropout, drp_dropout = 1 the Dropout layer).
TEST(PipelineGuards, LoadRejectsOutOfRangeHyperparams) {
  synth::SyntheticGenerator generator(synth::CriteoSynthConfig());
  Rng rng(31);
  RctDataset train = generator.Generate(400, /*shifted=*/false, &rng);
  RctDataset calibration = generator.Generate(200, /*shifted=*/true, &rng);
  pipeline::Hyperparams hp;
  hp.neural_epochs = 2;
  hp.restarts = 1;
  hp.mc_passes = 5;
  StatusOr<pipeline::Pipeline> trained = pipeline::Pipeline::Train(
      "rDRP", hp, train, &calibration, pipeline::Provenance());
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  std::ostringstream saved;
  ASSERT_TRUE(trained.value().Save(saved).ok());
  const std::string artifact = saved.str();

  // Replaces the value of `key` in the manifest's hyperparams line.
  auto with_value = [&](const std::string& key, const std::string& value) {
    const size_t start = artifact.find(" " + key + "=") + key.size() + 2;
    const size_t end = artifact.find_first_of(" \n", start);
    return artifact.substr(0, start) + value + artifact.substr(end);
  };
  {
    std::istringstream in(artifact);
    ASSERT_TRUE(pipeline::Pipeline::Load(in).ok());
  }
  const struct {
    const char* key;
    const char* value;
  } kBad[] = {{"mc_passes", "1"}, {"mc_passes", "0"}, {"drp_dropout", "1"}};
  for (const auto& bad : kBad) {
    SCOPED_TRACE(std::string(bad.key) + "=" + bad.value);
    std::istringstream in(with_value(bad.key, bad.value));
    StatusOr<pipeline::Pipeline> loaded = pipeline::Pipeline::Load(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(bad.key), std::string::npos)
        << loaded.status().ToString();
  }
}

}  // namespace
}  // namespace roicl
