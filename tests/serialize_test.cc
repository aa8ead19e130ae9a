#include "nn/serialize.h"

#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/drp_model.h"
#include "core/rdrp.h"
#include "synth/synthetic_generator.h"

namespace roicl {
namespace {

TEST(MlpSerializeTest, RoundTripIsBitExact) {
  Rng rng(1);
  nn::Mlp net = nn::Mlp::MakeMlp(4, {8, 5}, 2, nn::ActivationKind::kElu,
                                 /*dropout_rate=*/0.3, &rng);
  std::stringstream stream;
  ASSERT_TRUE(nn::SaveMlp(net, stream).ok());
  StatusOr<nn::Mlp> loaded = nn::LoadMlp(stream);
  ASSERT_TRUE(loaded.ok());

  Matrix input(3, 4);
  Rng data_rng(2);
  for (double& v : input.data()) v = data_rng.Normal();
  Matrix a = net.Forward(input, nn::Mode::kInfer, nullptr);
  Matrix b = loaded.value().Forward(input, nn::Mode::kInfer, nullptr);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
  }
  // Layer structure survives too (dense + act + dropout twice + head).
  EXPECT_EQ(loaded.value().num_layers(), net.num_layers());
}

TEST(MlpSerializeTest, RejectsGarbage) {
  std::stringstream bad("not-a-model at all");
  EXPECT_FALSE(nn::LoadMlp(bad).ok());
  std::stringstream truncated("roicl-mlp-v1\n2\ndense 3 2\n1 1 0.5\n");
  EXPECT_FALSE(nn::LoadMlp(truncated).ok());
}

TEST(MlpSerializeTest, FileRoundTrip) {
  Rng rng(3);
  nn::Mlp net = nn::Mlp::MakeMlp(2, {4}, 1, nn::ActivationKind::kTanh, 0.0,
                                 &rng);
  std::string path = ::testing::TempDir() + "/roicl_mlp.txt";
  ASSERT_TRUE(nn::SaveMlpToFile(net, path).ok());
  StatusOr<nn::Mlp> loaded = nn::LoadMlpFromFile(path);
  ASSERT_TRUE(loaded.ok());
  std::remove(path.c_str());
  EXPECT_FALSE(nn::LoadMlpFromFile(path).ok());  // deleted -> IO error
}

class ModelSerializeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    generator_ = new synth::SyntheticGenerator(synth::CriteoSynthConfig());
    Rng rng(4);
    train_ = new RctDataset(generator_->Generate(3000, false, &rng));
    calib_ = new RctDataset(generator_->Generate(1000, false, &rng));
    test_ = new RctDataset(generator_->Generate(500, false, &rng));
  }
  static void TearDownTestSuite() {
    delete generator_;
    delete train_;
    delete calib_;
    delete test_;
  }
  static synth::SyntheticGenerator* generator_;
  static RctDataset* train_;
  static RctDataset* calib_;
  static RctDataset* test_;
};

synth::SyntheticGenerator* ModelSerializeTest::generator_ = nullptr;
RctDataset* ModelSerializeTest::train_ = nullptr;
RctDataset* ModelSerializeTest::calib_ = nullptr;
RctDataset* ModelSerializeTest::test_ = nullptr;

TEST_F(ModelSerializeTest, DrpRoundTripPredictionsIdentical) {
  core::DrpConfig config;
  config.train.epochs = 8;
  config.restarts = 1;
  core::DrpModel model(config);
  model.Fit(*train_);

  std::stringstream stream;
  ASSERT_TRUE(model.Save(stream).ok());
  StatusOr<core::DrpModel> loaded = core::DrpModel::Load(stream, config);
  ASSERT_TRUE(loaded.ok());

  std::vector<double> a = model.PredictRoi(test_->x);
  std::vector<double> b = loaded.value().PredictRoi(test_->x);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);

  // MC dropout is seed-deterministic, so it round-trips as well.
  core::McDropoutStats mc_a = model.PredictMcRoi(test_->x, 10, 9);
  core::McDropoutStats mc_b = loaded.value().PredictMcRoi(test_->x, 10, 9);
  EXPECT_EQ(mc_a.mean, mc_b.mean);
  EXPECT_EQ(mc_a.stddev, mc_b.stddev);
}

TEST_F(ModelSerializeTest, DrpSaveRequiresFit) {
  core::DrpModel model((core::DrpConfig()));
  std::stringstream stream;
  EXPECT_EQ(model.Save(stream).code(), StatusCode::kFailedPrecondition);
}

TEST_F(ModelSerializeTest, RdrpRoundTripKeepsCalibration) {
  core::RdrpConfig config;
  config.drp.train.epochs = 8;
  config.drp.restarts = 1;
  config.mc_passes = 10;
  core::RdrpModel model(config);
  model.FitWithCalibration(*train_, *calib_);

  std::stringstream stream;
  ASSERT_TRUE(model.Save(stream).ok());
  StatusOr<core::RdrpModel> loaded = core::RdrpModel::Load(stream, config);
  ASSERT_TRUE(loaded.ok());

  EXPECT_DOUBLE_EQ(loaded.value().q_hat(), model.q_hat());
  EXPECT_DOUBLE_EQ(loaded.value().roi_star(), model.roi_star());
  EXPECT_EQ(loaded.value().selected_form(), model.selected_form());

  std::vector<double> a = model.PredictRoi(test_->x);
  std::vector<double> b = loaded.value().PredictRoi(test_->x);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);

  std::vector<metrics::Interval> ia = model.PredictIntervals(test_->x);
  std::vector<metrics::Interval> ib =
      loaded.value().PredictIntervals(test_->x);
  for (size_t i = 0; i < ia.size(); ++i) {
    EXPECT_DOUBLE_EQ(ia[i].lo, ib[i].lo);
    EXPECT_DOUBLE_EQ(ia[i].hi, ib[i].hi);
  }
}

TEST_F(ModelSerializeTest, RdrpLoadRejectsDrpBlob) {
  core::DrpConfig config;
  config.train.epochs = 3;
  config.restarts = 1;
  core::DrpModel drp(config);
  drp.Fit(*train_);
  std::stringstream stream;
  ASSERT_TRUE(drp.Save(stream).ok());
  EXPECT_FALSE(core::RdrpModel::Load(stream).ok());
}

// ---- Corrupt-fixture matrix: one test per loader per failure class. ----
// Every loader must return a descriptive InvalidArgument — never crash,
// never return a half-initialized model.

void ExpectLoadMlpError(const std::string& blob,
                        const std::string& needle) {
  std::stringstream in(blob);
  StatusOr<nn::Mlp> loaded = nn::LoadMlp(in);
  ASSERT_FALSE(loaded.ok()) << "accepted: " << blob;
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(needle), std::string::npos)
      << loaded.status().ToString();
}

TEST(MlpCorruptFixtures, EmptyStream) {
  ExpectLoadMlpError("", "empty or truncated");
}

TEST(MlpCorruptFixtures, VersionBumpIsCalledOut) {
  // A future writer's blob must fail with a version message, not a
  // confusing parse error halfway through.
  ExpectLoadMlpError("roicl-mlp-v2\n1\ndense 2 1\n",
                     "unsupported mlp format version");
}

TEST(MlpCorruptFixtures, ForeignMagic) {
  ExpectLoadMlpError("onnx-ir\n", "bad magic");
}

TEST(MlpCorruptFixtures, AbsurdLayerCount) {
  ExpectLoadMlpError("roicl-mlp-v1\n-3\n", "bad layer count");
}

TEST(MlpCorruptFixtures, TruncatedDenseParameters) {
  ExpectLoadMlpError("roicl-mlp-v1\n1\ndense 3 2\n2 3 0.5 0.5",
                     "truncated");
}

TEST(MlpCorruptFixtures, UnknownLayerKind) {
  ExpectLoadMlpError("roicl-mlp-v1\n1\nconv2d 3 3\n", "unknown layer kind");
}

/// Renders a fitted DRP model to text and hands the lines to `mutate`
/// so each test can corrupt exactly one aspect of a real blob.
std::string MutatedDrpBlob(
    const RctDataset& train,
    const std::function<std::string(const std::string&)>& mutate) {
  core::DrpConfig config;
  config.train.epochs = 2;
  config.restarts = 1;
  core::DrpModel model(config);
  model.Fit(train);
  std::stringstream stream;
  EXPECT_TRUE(model.Save(stream).ok());
  return mutate(stream.str());
}

void ExpectDrpLoadError(const std::string& blob,
                        const std::string& needle) {
  std::stringstream in(blob);
  StatusOr<core::DrpModel> loaded = core::DrpModel::Load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(needle), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(ModelSerializeTest, DrpCorruptFixtures) {
  ExpectDrpLoadError("", "empty or truncated drp model stream");
  ExpectDrpLoadError("roicl-drp-v7\n3 0 0 0 1 1 1\n",
                     "unsupported drp format version");
  ExpectDrpLoadError("roicl-mlp-v1\n0\n", "bad magic");
  ExpectDrpLoadError("roicl-drp-v1\n0\n", "bad feature dimension");
  ExpectDrpLoadError("roicl-drp-v1\n3 0.5 0.5\n", "truncated means");
  ExpectDrpLoadError("roicl-drp-v1\n2 0.5 0.5 1.0 0.0\n",
                     "non-positive stddev");
  // Truncation after a valid scaler line: the MLP header never arrives.
  ExpectDrpLoadError("roicl-drp-v1\n2 0.5 0.5 1.0 1.0\n",
                     "empty or truncated stream");
}

TEST_F(ModelSerializeTest, DrpLoadRejectsScalerNetworkWidthMismatch) {
  // Splice one extra (mean, std) pair into a real blob's scaler line:
  // the scaler then claims dim+1 features while the network's first
  // dense layer still consumes dim.
  std::string blob =
      MutatedDrpBlob(*train_, [](const std::string& text) {
        size_t magic_end = text.find('\n');
        size_t scaler_end = text.find('\n', magic_end + 1);
        std::string scaler =
            text.substr(magic_end + 1, scaler_end - magic_end - 1);
        std::istringstream fields(scaler);
        size_t dim = 0;
        fields >> dim;
        std::vector<std::string> moments;
        std::string token;
        while (fields >> token) moments.push_back(token);
        std::ostringstream rebuilt;
        rebuilt << dim + 1;
        // means, then an extra mean; stds, then an extra std.
        for (size_t i = 0; i < dim; ++i) rebuilt << ' ' << moments[i];
        rebuilt << " 0.0";
        for (size_t i = dim; i < 2 * dim; ++i) {
          rebuilt << ' ' << moments[i];
        }
        rebuilt << " 1.0";
        return text.substr(0, magic_end + 1) + rebuilt.str() +
               text.substr(scaler_end);
      });
  ExpectDrpLoadError(blob, "feature dimension mismatch");
}

TEST_F(ModelSerializeTest, RdrpCorruptFixtures) {
  auto expect_rdrp_error = [](const std::string& blob,
                              const std::string& needle) {
    std::stringstream in(blob);
    StatusOr<core::RdrpModel> loaded = core::RdrpModel::Load(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find(needle), std::string::npos)
        << loaded.status().ToString();
  };
  expect_rdrp_error("", "empty or truncated rdrp model stream");
  expect_rdrp_error("roicl-rdrp-v9\n1.0 0.2 0\n",
                    "unsupported rdrp format version");
  expect_rdrp_error("roicl-drp-v1\n2 0 0 1 1\n", "bad magic");
  expect_rdrp_error("roicl-rdrp-v1\n1.0 0.2",  // truncated header line
                    "bad rDRP calibration header");
  expect_rdrp_error("roicl-rdrp-v1\n1.0 0.2 9\n",  // form out of range
                    "bad rDRP calibration header");
}

}  // namespace
}  // namespace roicl
