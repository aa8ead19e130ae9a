#include "synth/synthetic_generator.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/stats.h"
#include "synth/shift.h"

namespace roicl::synth {
namespace {

SyntheticConfig PresetByName(const std::string& name) {
  if (name == "meituan") return MeituanSynthConfig();
  if (name == "alibaba") return AlibabaSynthConfig();
  return CriteoSynthConfig();
}

// The parameter is the dataset key, not the SyntheticConfig itself: gtest
// prints a struct it has no printer for as its raw bytes, heap pointers
// included, and that text is part of every discovered ctest name.
class PresetTest : public ::testing::TestWithParam<std::string> {
 protected:
  SyntheticConfig config() const { return PresetByName(GetParam()); }
};

TEST_P(PresetTest, GeneratesValidRct) {
  SyntheticGenerator generator(config());
  Rng rng(1);
  RctDataset dataset = generator.Generate(2000, /*shifted=*/false, &rng);
  dataset.Validate();
  EXPECT_EQ(dataset.n(), 2000);
  EXPECT_EQ(dataset.dim(), config().num_features);
  EXPECT_TRUE(dataset.has_ground_truth());
  // RCT: roughly half treated.
  EXPECT_NEAR(dataset.NumTreated() / 2000.0, 0.5, 0.05);
}

TEST_P(PresetTest, GroundTruthRespectsAssumptions) {
  SyntheticGenerator generator(config());
  Rng rng(2);
  RctDataset dataset = generator.Generate(1000, false, &rng);
  for (int i = 0; i < dataset.n(); ++i) {
    // Assumption 4: positive effects; Assumption 3: ROI in (0, 1).
    EXPECT_GT(dataset.true_tau_c[AsSize(i)], 0.0);
    EXPECT_GT(dataset.true_tau_r[AsSize(i)], 0.0);
    double roi = dataset.TrueRoi(i);
    EXPECT_GT(roi, 0.0);
    EXPECT_LT(roi, 1.0);
  }
}

TEST_P(PresetTest, OutcomesAreBinary) {
  SyntheticGenerator generator(config());
  Rng rng(3);
  RctDataset dataset = generator.Generate(500, false, &rng);
  for (int i = 0; i < dataset.n(); ++i) {
    EXPECT_TRUE(dataset.y_cost[AsSize(i)] == 0.0 || dataset.y_cost[AsSize(i)] == 1.0);
    EXPECT_TRUE(dataset.y_revenue[AsSize(i)] == 0.0 || dataset.y_revenue[AsSize(i)] == 1.0);
  }
}

TEST_P(PresetTest, AverageLiftsMatchGroundTruth) {
  // The realized RCT difference-in-means should estimate the mean of the
  // ground-truth tau columns.
  SyntheticGenerator generator(config());
  Rng rng(4);
  RctDataset dataset = generator.Generate(60000, false, &rng);
  EXPECT_NEAR(dataset.AverageCostLift(), Mean(dataset.true_tau_c), 0.02);
  EXPECT_NEAR(dataset.AverageRevenueLift(), Mean(dataset.true_tau_r), 0.02);
}

TEST_P(PresetTest, ShiftChangesSegmentMixOnly) {
  SyntheticGenerator generator(config());
  Rng rng(5);
  RctDataset plain = generator.Generate(20000, false, &rng);
  RctDataset shifted = generator.Generate(20000, true, &rng);
  // Segment histograms differ...
  int k = generator.config().num_segments;
  std::vector<double> h0(AsSize(k), 0.0), h1(AsSize(k), 0.0);
  for (int s : plain.segment) h0[AsSize(s)] += 1.0 / plain.n();
  for (int s : shifted.segment) h1[AsSize(s)] += 1.0 / shifted.n();
  double tv = 0.0;
  for (int s = 0; s < k; ++s) tv += std::fabs(h0[AsSize(s)] - h1[AsSize(s)]);
  EXPECT_GT(tv / 2.0, 0.2) << "shift should move substantial mass";
  // ...but P(Y|X) is the same mechanism: the oracles agree on any row.
  for (int i = 0; i < 50; ++i) {
    const double* row = shifted.x.RowPtr(i);
    EXPECT_NEAR(shifted.true_tau_c[AsSize(i)], generator.TauC(row), 1e-12);
    EXPECT_NEAR(shifted.true_tau_r[AsSize(i)], generator.TauR(row), 1e-12);
  }
}

TEST_P(PresetTest, DeterministicGivenSeed) {
  SyntheticGenerator g1(config());
  SyntheticGenerator g2(config());
  Rng rng1(42), rng2(42);
  RctDataset a = g1.Generate(100, false, &rng1);
  RctDataset b = g2.Generate(100, false, &rng2);
  EXPECT_EQ(a.treatment, b.treatment);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.x(i, 0), b.x(i, 0));
    EXPECT_DOUBLE_EQ(a.y_revenue[AsSize(i)], b.y_revenue[AsSize(i)]);
  }
}

TEST_P(PresetTest, RoiIsHeterogeneous) {
  SyntheticGenerator generator(config());
  Rng rng(6);
  RctDataset dataset = generator.Generate(5000, false, &rng);
  std::vector<double> rois(AsSize(dataset.n()));
  for (int i = 0; i < dataset.n(); ++i) rois[AsSize(i)] = dataset.TrueRoi(i);
  EXPECT_GT(StdDev(rois), 0.05) << "degenerate ROI would make C-BTAP moot";
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetTest,
                         ::testing::Values("criteo", "meituan", "alibaba"),
                         [](const auto& param_info) {
                           std::string name =
                               PresetByName(param_info.param).name;
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(AlibabaPresetTest, FeaturesAreDiscrete) {
  SyntheticGenerator generator(AlibabaSynthConfig());
  Rng rng(7);
  RctDataset dataset = generator.Generate(200, false, &rng);
  for (int i = 0; i < dataset.n(); ++i) {
    for (int c = 0; c < dataset.dim(); ++c) {
      double v = dataset.x(i, c);
      EXPECT_DOUBLE_EQ(v, std::round(v));
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 9.0);
    }
  }
}

TEST(ResampleWithCovariateShiftTest, ShiftsTargetFeatureMean) {
  SyntheticGenerator generator(CriteoSynthConfig());
  Rng rng(8);
  RctDataset dataset = generator.Generate(5000, false, &rng);
  RctDataset shifted =
      ResampleWithCovariateShift(dataset, /*feature=*/0, /*gamma=*/1.5,
                                 /*n_out=*/5000, &rng);
  EXPECT_EQ(shifted.n(), 5000);
  double mean_before = Mean(dataset.x.Col(0));
  double mean_after = Mean(shifted.x.Col(0));
  EXPECT_GT(mean_after, mean_before + 0.2);
  // Rows are copied whole, so ground truth stays consistent.
  for (int i = 0; i < 20; ++i) {
    EXPECT_NEAR(shifted.true_tau_c[AsSize(i)],
                generator.TauC(shifted.x.RowPtr(i)), 1e-12);
  }
}

TEST(ResampleWithCovariateShiftTest, ZeroGammaKeepsDistribution) {
  SyntheticGenerator generator(CriteoSynthConfig());
  Rng rng(9);
  RctDataset dataset = generator.Generate(3000, false, &rng);
  RctDataset same =
      ResampleWithCovariateShift(dataset, 0, 0.0, 3000, &rng);
  EXPECT_NEAR(Mean(same.x.Col(0)), Mean(dataset.x.Col(0)), 0.1);
}

}  // namespace
}  // namespace roicl::synth
