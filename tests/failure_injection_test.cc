// Failure-injection and robustness tests: malformed inputs must either be
// rejected with a Status (recoverable I/O) or abort loudly via
// ROICL_CHECK (programmer errors) — never produce silent garbage.

#include <cmath>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "common/math_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/conformal.h"
#include "core/drp_model.h"
#include "core/greedy.h"
#include "data/csv.h"
#include "data/split.h"
#include "exp/table.h"
#include "metrics/cost_curve.h"
#include "synth/synthetic_generator.h"

namespace roicl {
namespace {

// ---------- CSV / Status error paths ----------

std::string WriteTempFile(const std::string& name,
                          const std::string& contents) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(CsvFailureTest, RaggedRowRejected) {
  std::string path = WriteTempFile(
      "ragged.csv", "f0,treatment,y_revenue,y_cost\n1.0,1,0.5\n");
  StatusOr<RctDataset> result = ReadDatasetCsv(path);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CsvFailureTest, NonBinaryTreatmentRejected) {
  std::string path = WriteTempFile(
      "treatment.csv",
      "f0,treatment,y_revenue,y_cost\n1.0,1,0.5,0.2\n2.0,2,0.5,0.2\n");
  StatusOr<RctDataset> result = ReadDatasetCsv(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("line 3"), std::string::npos)
      << result.status().ToString();
  std::remove(path.c_str());
}

// Loads a one-row CSV (header f0,treatment,y_revenue,y_cost) whose row is
// `row`, and expects InvalidArgument naming line 2 and `column`.
void ExpectRowRejected(const std::string& name, const std::string& row,
                       const std::string& column) {
  std::string path = WriteTempFile(
      name, "f0,treatment,y_revenue,y_cost\n" + row + "\n");
  StatusOr<RctDataset> result = ReadDatasetCsv(path);
  ASSERT_FALSE(result.ok()) << "row '" << row << "' loaded";
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  const std::string& message = result.status().message();
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find(column), std::string::npos) << message;
  std::remove(path.c_str());
}

TEST(CsvFailureTest, NonNumericFeatureRejected) {
  ExpectRowRejected("abc_feature.csv", "abc,1,0.5,0.2", "column 1 (f0)");
}

TEST(CsvFailureTest, EmptyFeatureRejected) {
  ExpectRowRejected("empty_feature.csv", ",1,0.5,0.2", "column 1 (f0)");
}

TEST(CsvFailureTest, TrailingGarbageInFeatureRejected) {
  ExpectRowRejected("trailing.csv", "0.5x,1,0.5,0.2", "column 1 (f0)");
}

TEST(CsvFailureTest, NonNumericTreatmentRejected) {
  ExpectRowRejected("yes_treatment.csv", "0.5,yes,0.5,0.2",
                    "column 2 (treatment)");
}

TEST(CsvFailureTest, FractionalTreatmentRejected) {
  ExpectRowRejected("fractional_treatment.csv", "0.5,1.7,0.5,0.2",
                    "column 2 (treatment)");
}

TEST(CsvFailureTest, InfiniteOutcomeRejected) {
  ExpectRowRejected("inf_revenue.csv", "0.5,1,inf,0.2",
                    "column 3 (y_revenue)");
}

TEST(CsvFailureTest, NanFeatureRejected) {
  ExpectRowRejected("nan_feature.csv", "nan,1,0.5,0.2", "column 1 (f0)");
}

TEST(CsvFailureTest, EmptyFileRejected) {
  std::string path = WriteTempFile("empty.csv", "");
  EXPECT_FALSE(ReadDatasetCsv(path).ok());
  std::remove(path.c_str());
}

TEST(CsvFailureTest, WriteToUnwritablePathFails) {
  RctDataset data;
  data.x = Matrix(1, 1);
  data.treatment = {1};
  data.y_revenue = {1.0};
  data.y_cost = {1.0};
  Status status = WriteDatasetCsv(data, "/nonexistent_dir/out.csv");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

// ---------- ROICL_CHECK death paths (programmer errors) ----------

TEST(CheckDeathTest, NonBinaryTreatmentAborts) {
  RctDataset data;
  data.x = Matrix(1, 1);
  data.treatment = {2};
  data.y_revenue = {1.0};
  data.y_cost = {1.0};
  EXPECT_DEATH(data.Validate(), "binary");
}

TEST(CheckDeathTest, MismatchedColumnsAbort) {
  RctDataset data;
  data.x = Matrix(2, 1);
  data.treatment = {0, 1};
  data.y_revenue = {1.0};  // wrong length
  data.y_cost = {1.0, 0.0};
  EXPECT_DEATH(data.Validate(), "length mismatch");
}

TEST(CheckDeathTest, DrpRequiresBothArms) {
  RctDataset data;
  data.x = Matrix(4, 2);
  data.treatment = {1, 1, 1, 1};  // control arm missing
  data.y_revenue = {1, 0, 1, 0};
  data.y_cost = {1, 1, 0, 0};
  core::DrpModel drp((core::DrpConfig()));
  EXPECT_DEATH(drp.Fit(data), "both RCT arms");
}

TEST(CheckDeathTest, GreedyRejectsNegativeCost) {
  EXPECT_DEATH(core::GreedyAllocate({0.5}, {-1.0}, 1.0), "negative cost");
}

TEST(CheckDeathTest, TableRowWidthMismatchAborts) {
  exp::TextTable table({"a", "b"});
  EXPECT_DEATH(table.AddRow({"only-one"}), "row width");
}

TEST(CheckDeathTest, ConformalRejectsInvalidAlpha) {
  std::vector<double> scores = {1.0, 2.0};
  EXPECT_DEATH(core::ConformalScoreQuantile(scores, 0.0), "alpha");
  EXPECT_DEATH(core::ConformalScoreQuantile(scores, 1.0), "alpha");
}

// ---------- Numerical robustness under degenerate data ----------

TEST(DegenerateDataTest, DrpSurvivesAllZeroOutcomes) {
  // No signal at all: training must not NaN out.
  RctDataset data;
  int n = 400;
  data.x = Matrix(n, 3);
  Rng rng(1);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < 3; ++c) data.x(i, c) = rng.Normal();
    data.treatment.push_back(rng.Bernoulli(0.5) ? 1 : 0);
    data.y_revenue.push_back(0.0);
    data.y_cost.push_back(0.0);
  }
  core::DrpConfig config;
  config.train.epochs = 3;
  core::DrpModel drp(config);
  drp.Fit(data);
  for (double roi : drp.PredictRoi(data.x)) {
    EXPECT_TRUE(std::isfinite(roi));
  }
}

TEST(DegenerateDataTest, DrpSurvivesConstantFeatures) {
  RctDataset data;
  int n = 300;
  data.x = Matrix(n, 2, 3.0);  // all columns constant
  Rng rng(2);
  for (int i = 0; i < n; ++i) {
    data.treatment.push_back(i % 2);
    data.y_revenue.push_back(rng.Bernoulli(0.2) ? 1.0 : 0.0);
    data.y_cost.push_back(rng.Bernoulli(0.5) ? 1.0 : 0.0);
  }
  core::DrpConfig config;
  config.train.epochs = 3;
  core::DrpModel drp(config);
  drp.Fit(data);
  for (double roi : drp.PredictRoi(data.x)) {
    EXPECT_TRUE(std::isfinite(roi));
  }
}

TEST(DegenerateDataTest, AuccWithSingleArmPrefixes) {
  // The first half of the ranking is all-treated: prefixes with one arm
  // must contribute zeros, not NaNs.
  RctDataset data;
  int n = 100;
  data.x = Matrix(n, 1);
  std::vector<double> scores(AsSize(n));
  for (int i = 0; i < n; ++i) {
    data.treatment.push_back(i < 50 ? 1 : 0);
    data.y_revenue.push_back(i % 3 == 0 ? 1.0 : 0.0);
    data.y_cost.push_back(i % 2 == 0 ? 1.0 : 0.0);
    scores[AsSize(i)] = n - i;  // rank exactly in index order
  }
  double aucc = metrics::Aucc(scores, data);
  EXPECT_TRUE(std::isfinite(aucc));
}

TEST(DegenerateDataTest, SubsampleAtFullRateKeepsEverything) {
  synth::SyntheticGenerator generator(synth::CriteoSynthConfig());
  Rng rng(3);
  RctDataset data = generator.Generate(500, false, &rng);
  RctDataset same = Subsample(data, 1.0, &rng);
  EXPECT_EQ(same.n(), data.n());
}

// ---------- Metric invariances (properties) ----------

TEST(MetricPropertyTest, AuccInvariantToScoreShiftAndScale) {
  synth::SyntheticGenerator generator(synth::CriteoSynthConfig());
  Rng rng(4);
  RctDataset data = generator.Generate(3000, false, &rng);
  std::vector<double> scores(AsSize(data.n()));
  for (int i = 0; i < data.n(); ++i) scores[AsSize(i)] = data.TrueRoi(i);
  std::vector<double> affine(scores);
  for (double& s : affine) s = 7.0 * s - 3.0;
  EXPECT_DOUBLE_EQ(metrics::Aucc(scores, data),
                   metrics::Aucc(affine, data));
}

TEST(MetricPropertyTest, AuccInvariantToRowPermutation) {
  synth::SyntheticGenerator generator(synth::CriteoSynthConfig());
  Rng rng(5);
  RctDataset data = generator.Generate(2000, false, &rng);
  std::vector<double> scores(AsSize(data.n()));
  for (int i = 0; i < data.n(); ++i) scores[AsSize(i)] = data.TrueRoi(i);

  std::vector<int> perm = rng.Permutation(data.n());
  RctDataset shuffled = data.Subset(perm);
  std::vector<double> shuffled_scores(AsSize(data.n()));
  for (int i = 0; i < data.n(); ++i) shuffled_scores[AsSize(i)] = scores[AsSize(perm[AsSize(i)])];
  EXPECT_NEAR(metrics::Aucc(scores, data),
              metrics::Aucc(shuffled_scores, shuffled), 1e-9);
}

TEST(MetricPropertyTest, ConformalQuantileAlphaLimits) {
  std::vector<double> scores = {5.0, 1.0, 3.0, 2.0, 4.0};
  // alpha -> 0: rank exceeds n, +inf.
  EXPECT_TRUE(std::isinf(ConformalQuantile(scores, 0.01)));
  // alpha close to 1: the smallest score.
  EXPECT_DOUBLE_EQ(ConformalQuantile(scores, 0.99), 1.0);
}

}  // namespace
}  // namespace roicl
