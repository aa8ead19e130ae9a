#include "core/multi_treatment.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "campaign/karm_allocate.h"
#include "common/math_util.h"
#include "metrics/cost_curve.h"
#include "synth/multi_treatment.h"

namespace roicl {
namespace {

synth::MultiTreatmentGenerator MakeGenerator() {
  // Arm 1: small coupon. Arm 2: big coupon — costs 1.8x, slightly lower
  // ROI (diminishing returns). The base effect range is shrunk so the
  // scaled arm keeps outcome probabilities valid (see the generator's
  // saturation check).
  synth::SyntheticConfig base = synth::CriteoSynthConfig();
  base.tau_c_lo = 0.05;
  base.tau_c_hi = 0.30;
  return synth::MultiTreatmentGenerator(
      base, {{.cost_scale = 1.0, .roi_shift = 0.0},
             {.cost_scale = 1.8, .roi_shift = -0.08}});
}

TEST(MultiTreatmentGeneratorTest, GeneratesAllArms) {
  synth::MultiTreatmentGenerator generator = MakeGenerator();
  Rng rng(1);
  synth::MultiTreatmentDataset data = generator.Generate(3000, false, &rng);
  EXPECT_EQ(data.num_arms(), 2);
  std::vector<int> counts(3, 0);
  for (int t : data.treatment) {
    ASSERT_GE(t, 0);
    ASSERT_LE(t, 2);
    counts[AsSize(t)]++;
  }
  for (int c : counts) EXPECT_NEAR(c / 3000.0, 1.0 / 3.0, 0.05);
}

TEST(MultiTreatmentGeneratorTest, ArmEffectsScaleAsConfigured) {
  synth::MultiTreatmentGenerator generator = MakeGenerator();
  Rng rng(2);
  synth::MultiTreatmentDataset data = generator.Generate(100, false, &rng);
  for (int i = 0; i < data.n(); ++i) {
    EXPECT_NEAR(data.true_tau_c[1][AsSize(i)], 1.8 * data.true_tau_c[0][AsSize(i)], 1e-12);
    // ROI of arm 2 is shifted down by 0.08 (up to the clamp).
    double roi1 = data.TrueRoi(i, 1);
    double roi2 = data.TrueRoi(i, 2);
    EXPECT_LE(roi2, roi1 + 1e-12);
  }
}

TEST(MultiTreatmentGeneratorTest, BinarySubproblemIsValidRct) {
  synth::MultiTreatmentGenerator generator = MakeGenerator();
  Rng rng(3);
  synth::MultiTreatmentDataset data = generator.Generate(2000, false, &rng);
  for (int arm = 1; arm <= 2; ++arm) {
    RctDataset sub = data.BinarySubproblem(arm);
    sub.Validate();
    EXPECT_GT(sub.NumTreated(), 0);
    EXPECT_GT(sub.NumControl(), 0);
    // Roughly 2/3 of the population lands in each sub-problem.
    EXPECT_NEAR(sub.n() / static_cast<double>(data.n()), 2.0 / 3.0, 0.05);
    // The sub-problem's RCT difference-in-means estimates the arm's
    // average effect.
    double mean_tau_c = 0.0;
    for (int i = 0; i < data.n(); ++i) {
      mean_tau_c += data.true_tau_c[AsSize(arm - 1)][AsSize(i)];
    }
    mean_tau_c /= data.n();
    EXPECT_NEAR(sub.AverageCostLift(), mean_tau_c, 0.08);
  }
}

TEST(MultiTreatmentGeneratorTest, ArmWithZeroTreatedRowsYieldsControlOnlySubproblem) {
  // Hand-built dataset where nobody ever received arm 2: its binary
  // sub-problem must still project cleanly (all-control), leaving the
  // caller to decide whether a scorer can be fit on it.
  synth::MultiTreatmentDataset data;
  const int n = 6;
  data.x = Matrix(n, 1);
  for (int i = 0; i < n; ++i) data.x(i, 0) = i;
  data.treatment = {0, 1, 0, 1, 0, 1};  // arm 2 never assigned
  data.y_revenue.assign(AsSize(n), 1.0);
  data.y_cost.assign(AsSize(n), 0.5);
  data.true_tau_r.assign(2, std::vector<double>(AsSize(n), 0.1));
  data.true_tau_c.assign(2, std::vector<double>(AsSize(n), 0.2));
  ASSERT_EQ(data.num_arms(), 2);

  RctDataset sub = data.BinarySubproblem(2);
  EXPECT_EQ(sub.n(), 3);  // only the control rows survive
  EXPECT_EQ(sub.NumTreated(), 0);
  EXPECT_EQ(sub.NumControl(), 3);

  RctDataset sub1 = data.BinarySubproblem(1);
  EXPECT_EQ(sub1.n(), n);
  EXPECT_EQ(sub1.NumTreated(), 3);
}

TEST(MultiTreatmentGeneratorTest, SingleArmDegeneratesToBinaryRct) {
  // K = 1 is the paper's binary setting: uniform assignment over
  // {control, arm 1} and a sub-problem that keeps every row.
  synth::MultiTreatmentGenerator generator(
      synth::CriteoSynthConfig(), {{.cost_scale = 1.0, .roi_shift = 0.0}});
  ASSERT_EQ(generator.num_arms(), 1);
  Rng rng(7);
  synth::MultiTreatmentDataset data = generator.Generate(3000, false, &rng);
  EXPECT_EQ(data.num_arms(), 1);
  int treated = 0;
  for (int t : data.treatment) {
    ASSERT_GE(t, 0);
    ASSERT_LE(t, 1);
    treated += t;
  }
  EXPECT_NEAR(treated / 3000.0, 0.5, 0.05);

  RctDataset sub = data.BinarySubproblem(1);
  EXPECT_EQ(sub.n(), data.n());
  sub.Validate();
  // Unscaled, unshifted arm: oracle columns match the base mechanism, so
  // every true ROI sits inside the base generator's clamp range.
  for (int i = 0; i < data.n(); ++i) {
    double roi = data.TrueRoi(i, 1);
    EXPECT_GT(roi, 0.0);
    EXPECT_LT(roi, 1.0);
  }
}

TEST(MultiTreatmentDeathTest, TrueRoiChecksNonPositiveCostEffect) {
  synth::MultiTreatmentDataset data;
  data.x = Matrix(1, 1);
  data.x(0, 0) = 0.0;
  data.treatment = {1};
  data.y_revenue = {1.0};
  data.y_cost = {0.5};
  data.true_tau_r.assign(1, {0.1});
  data.true_tau_c.assign(1, {0.0});  // violates Assumption 4
  EXPECT_DEATH(data.TrueRoi(0, 1), "tau_c > 0");
  data.true_tau_c[0][0] = -0.2;
  EXPECT_DEATH(data.TrueRoi(0, 1), "tau_c > 0");
  // Out-of-range arm/sample indices are also CHECKed.
  data.true_tau_c[0][0] = 0.2;
  EXPECT_DEATH(data.TrueRoi(0, 0), "arm");
  EXPECT_DEATH(data.TrueRoi(1, 1), "");
}

TEST(DivideAndConquerRdrpTest, EndToEndBeatsRandomAllocation) {
  synth::MultiTreatmentGenerator generator = MakeGenerator();
  Rng rng(4);
  synth::MultiTreatmentDataset train = generator.Generate(6000, false, &rng);
  synth::MultiTreatmentDataset calib = generator.Generate(2400, false, &rng);
  synth::MultiTreatmentDataset test = generator.Generate(3000, false, &rng);

  core::RdrpConfig config;
  config.drp.train.epochs = 12;
  config.mc_passes = 10;
  core::DivideAndConquerRdrp model(config);
  model.FitWithCalibration(train, calib);
  EXPECT_EQ(model.num_arms(), 2);

  std::vector<std::vector<double>> scores = model.PredictRoiPerArm(test.x);
  ASSERT_EQ(scores.size(), 2u);
  for (const auto& arm_scores : scores) {
    ASSERT_EQ(static_cast<int>(arm_scores.size()), test.n());
    for (double s : arm_scores) EXPECT_TRUE(std::isfinite(s));
  }

  // Allocate a budget using true per-arm costs; compare realized revenue
  // against a random (user, arm) ranking under the same budget.
  std::vector<std::vector<double>> costs = {test.true_tau_c[0],
                                            test.true_tau_c[1]};
  double all_in = 0.0;
  for (double c : costs[0]) all_in += c;
  double budget = 0.15 * all_in;

  campaign::KArmBudgets budgets;
  budgets.global = budget;
  budgets.per_arm.assign(2, std::numeric_limits<double>::infinity());
  auto realize = [&](const campaign::KArmAllocationResult& alloc) {
    double revenue = 0.0;
    for (int i = 0; i < test.n(); ++i) {
      int arm = alloc.assignment[AsSize(i)];
      if (arm > 0) revenue += test.true_tau_r[AsSize(arm - 1)][AsSize(i)];
    }
    return revenue;
  };

  campaign::KArmAllocationResult model_alloc =
      campaign::KArmGreedyReference(scores, costs, budgets);

  Rng noise(5);
  std::vector<std::vector<double>> random_scores(
      2, std::vector<double>(AsSize(test.n())));
  for (auto& arm_scores : random_scores) {
    for (double& s : arm_scores) s = noise.Uniform();
  }
  campaign::KArmAllocationResult random_alloc =
      campaign::KArmGreedyReference(random_scores, costs, budgets);

  EXPECT_GT(realize(model_alloc), realize(random_alloc));
}

TEST(DivideAndConquerRdrpTest, PerArmModelsAreCalibrated) {
  synth::MultiTreatmentGenerator generator = MakeGenerator();
  Rng rng(6);
  synth::MultiTreatmentDataset train = generator.Generate(4000, false, &rng);
  synth::MultiTreatmentDataset calib = generator.Generate(2000, false, &rng);
  core::RdrpConfig config;
  config.drp.train.epochs = 8;
  config.mc_passes = 8;
  core::DivideAndConquerRdrp model(config);
  model.FitWithCalibration(train, calib);
  for (int arm = 1; arm <= 2; ++arm) {
    EXPECT_TRUE(model.arm_model(arm).calibrated());
    EXPECT_GT(model.arm_model(arm).roi_star(), 0.0);
    EXPECT_LT(model.arm_model(arm).roi_star(), 1.0);
  }
  // Arm 2 (shifted-down ROI, scaled-up cost) should have a lower
  // convergence point than arm 1.
  EXPECT_LT(model.arm_model(2).roi_star(), model.arm_model(1).roi_star());
}

}  // namespace
}  // namespace roicl
