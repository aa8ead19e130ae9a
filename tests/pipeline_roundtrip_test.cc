// Round-trip contract for the pipeline layer: for EVERY registered
// scorer, train -> Save -> Load -> predict must be bitwise identical to
// the in-process predictions, at multiple prediction-engine thread
// counts. Also pins the registry's completeness (every Table-I method
// resolves) and its unknown-name diagnostics.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/interval_backend.h"
#include "exp/methods.h"
#include "pipeline/hyperparams.h"
#include "pipeline/pipeline.h"
#include "pipeline/registry.h"
#include "synth/synthetic_generator.h"

namespace {

using namespace roicl;

RctDataset Gen(int n, uint64_t seed) {
  synth::SyntheticGenerator generator(synth::CriteoSynthConfig());
  Rng rng(seed);
  return generator.Generate(n, /*shifted=*/false, &rng);
}

/// Small budgets so all ten scorers train in seconds; the round-trip
/// contract is independent of model quality.
pipeline::Hyperparams SmallHp() {
  pipeline::Hyperparams hp;
  hp.neural_epochs = 4;
  hp.restarts = 1;
  hp.cate_epochs = 2;
  hp.forest_trees = 5;
  hp.causal_forest_trees = 5;
  hp.mc_passes = 5;
  return hp;
}

TEST(ScorerRegistry, NamesMatchTable1RowOrder) {
  std::vector<std::string> names =
      pipeline::ScorerRegistry::Global().Names();
  ASSERT_EQ(names.size(), exp::kTable1MethodNames.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(names[i], exp::kTable1MethodNames[i]);
  }
}

TEST(ScorerRegistry, EveryTable1MethodResolvesAndConstructs) {
  pipeline::ScorerRegistry& registry = pipeline::ScorerRegistry::Global();
  pipeline::Hyperparams hp = SmallHp();
  for (const char* name : exp::kTable1MethodNames) {
    SCOPED_TRACE(name);
    StatusOr<std::string> resolved = registry.Resolve(name);
    ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
    EXPECT_EQ(resolved.value(), name);
    StatusOr<std::unique_ptr<pipeline::RoiScorer>> scorer =
        registry.Create(name, hp);
    ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
    EXPECT_EQ(scorer.value()->name(), name);
  }
}

TEST(ScorerRegistry, ResolveIsCaseInsensitive) {
  pipeline::ScorerRegistry& registry = pipeline::ScorerRegistry::Global();
  EXPECT_EQ(registry.Resolve("rdrp").value(), "rDRP");
  EXPECT_EQ(registry.Resolve("drp").value(), "DRP");
  EXPECT_EQ(registry.Resolve("tpm-sl").value(), "TPM-SL");
}

TEST(ScorerRegistry, UnknownNameListsEveryRegisteredMethod) {
  StatusOr<std::string> resolved =
      pipeline::ScorerRegistry::Global().Resolve("nonsense");
  ASSERT_FALSE(resolved.ok());
  EXPECT_EQ(resolved.status().code(), StatusCode::kNotFound);
  const std::string& message = resolved.status().message();
  EXPECT_NE(message.find("unknown method 'nonsense'"), std::string::npos)
      << message;
  for (const char* name : exp::kTable1MethodNames) {
    EXPECT_NE(message.find(name), std::string::npos)
        << "missing " << name << " in: " << message;
  }
}

TEST(PipelineRoundTrip, EveryScorerBitExactAtThreadCounts1And8) {
  RctDataset train = Gen(300, 11);
  RctDataset calib = Gen(120, 12);
  RctDataset test = Gen(80, 13);
  pipeline::Hyperparams hp = SmallHp();

  for (const std::string& name :
       pipeline::ScorerRegistry::Global().Names()) {
    SCOPED_TRACE(name);
    pipeline::Provenance provenance;
    provenance.seed = hp.seed;
    provenance.dataset = "synth:criteo-roundtrip";
    provenance.tool = "pipeline_roundtrip_test";
    StatusOr<pipeline::Pipeline> trained =
        pipeline::Pipeline::Train(name, hp, train, &calib, provenance);
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    pipeline::Pipeline pipeline = std::move(trained).value();

    StatusOr<std::vector<double>> direct = pipeline.Score(test.x);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    const std::vector<double>& expected = direct.value();
    ASSERT_EQ(expected.size(), static_cast<size_t>(test.n()));

    std::ostringstream blob;
    ASSERT_TRUE(pipeline.Save(blob).ok());

    for (int threads : {1, 8}) {
      SCOPED_TRACE(threads);
      std::istringstream in(blob.str());
      StatusOr<pipeline::Pipeline> loaded_or = pipeline::Pipeline::Load(in);
      ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
      pipeline::Pipeline loaded = std::move(loaded_or).value();
      EXPECT_EQ(loaded.scorer_name(), name);
      EXPECT_EQ(loaded.feature_dim(), train.x.cols());

      nn::BatchOptions opts;
      opts.batch_size = 32;  // force several row blocks
      opts.num_threads = threads;
      loaded.set_batch_options(opts);

      StatusOr<std::vector<double>> scored = loaded.Score(test.x);
      ASSERT_TRUE(scored.ok()) << scored.status().ToString();
      ASSERT_EQ(scored.value().size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        // EXPECT_EQ, not NEAR: the round-trip contract is bitwise.
        ASSERT_EQ(scored.value()[i], expected[i])
            << "row " << i << " of " << name << " at " << threads
            << " threads";
      }
    }
  }
}

TEST(PipelineRoundTrip, RdrpIntervalsAndMcStatsSurviveReload) {
  RctDataset train = Gen(300, 21);
  RctDataset calib = Gen(120, 22);
  RctDataset test = Gen(60, 23);
  pipeline::Hyperparams hp = SmallHp();

  StatusOr<pipeline::Pipeline> trained =
      pipeline::Pipeline::Train("rDRP", hp, train, &calib, {});
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  pipeline::Pipeline pipeline = std::move(trained).value();
  ASSERT_TRUE(pipeline.scorer().has_intervals());
  ASSERT_TRUE(pipeline.scorer().has_mc_uncertainty());

  std::vector<metrics::Interval> expected =
      pipeline.ScoreIntervals(test.x).value();
  core::McDropoutStats expected_mc =
      pipeline.ScoreMc(test.x, hp.mc_passes, 99).value();

  std::ostringstream blob;
  ASSERT_TRUE(pipeline.Save(blob).ok());
  std::istringstream in(blob.str());
  pipeline::Pipeline loaded =
      std::move(pipeline::Pipeline::Load(in)).value();

  std::vector<metrics::Interval> got =
      loaded.ScoreIntervals(test.x).value();
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].lo, expected[i].lo);
    EXPECT_EQ(got[i].hi, expected[i].hi);
  }
  core::McDropoutStats got_mc = loaded.ScoreMc(test.x, hp.mc_passes, 99).value();
  ASSERT_EQ(got_mc.mean.size(), expected_mc.mean.size());
  for (size_t i = 0; i < got_mc.mean.size(); ++i) {
    EXPECT_EQ(got_mc.mean[i], expected_mc.mean[i]);
    EXPECT_EQ(got_mc.stddev[i], expected_mc.stddev[i]);
  }
}

TEST(PipelineRoundTrip, HyperparamsAndProvenanceSurviveReload) {
  RctDataset train = Gen(200, 31);
  pipeline::Hyperparams hp = SmallHp();
  hp.alpha = 0.2;
  hp.seed = 4321;

  pipeline::Provenance provenance;
  provenance.seed = hp.seed;
  provenance.dataset = "synth:criteo n=200 seed=31";
  provenance.git_describe = "test-build";
  provenance.tool = "pipeline_roundtrip_test";

  pipeline::Pipeline pipeline = std::move(pipeline::Pipeline::Train(
                                              "DRP", hp, train,
                                              /*calibration=*/nullptr,
                                              provenance))
                                    .value();
  std::ostringstream blob;
  ASSERT_TRUE(pipeline.Save(blob).ok());
  std::istringstream in(blob.str());
  pipeline::Pipeline loaded =
      std::move(pipeline::Pipeline::Load(in)).value();

  EXPECT_EQ(loaded.hyperparams().alpha, 0.2);
  EXPECT_EQ(loaded.hyperparams().seed, 4321u);
  EXPECT_EQ(loaded.hyperparams().neural_epochs, hp.neural_epochs);
  EXPECT_EQ(loaded.provenance().seed, 4321u);
  EXPECT_EQ(loaded.provenance().dataset, "synth:criteo n=200 seed=31");
  EXPECT_EQ(loaded.provenance().git_describe, "test-build");
  EXPECT_EQ(loaded.provenance().tool, "pipeline_roundtrip_test");
}

TEST(PipelineGuards, ScoreRejectsWrongFeatureDimension) {
  RctDataset train = Gen(200, 41);
  pipeline::Pipeline pipeline =
      std::move(pipeline::Pipeline::Train("DRP", SmallHp(), train, nullptr,
                                          {}))
          .value();
  Matrix wrong(4, train.x.cols() + 2, 0.5);
  StatusOr<std::vector<double>> scored = pipeline.Score(wrong);
  ASSERT_FALSE(scored.ok());
  EXPECT_NE(scored.status().message().find("feature dimension mismatch"),
            std::string::npos)
      << scored.status().ToString();
}

TEST(PipelineGuards, ScoreRejectsNonFiniteFeatures) {
  RctDataset train = Gen(200, 51);
  RctDataset calib = Gen(100, 52);
  RctDataset test = Gen(6, 53);
  pipeline::Hyperparams hp = SmallHp();
  StatusOr<pipeline::Pipeline> trained =
      pipeline::Pipeline::Train("rDRP", hp, train, &calib, {});
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  const pipeline::Pipeline& pipeline = trained.value();
  ASSERT_TRUE(pipeline.Score(test.x).ok());

  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  for (double bad : bad_values) {
    SCOPED_TRACE(bad);
    Matrix x = test.x;
    x(4, 1) = bad;
    x(5, 0) = bad;  // a later bad row: the first one is named
    const std::vector<Status> statuses = {
        pipeline.Score(x).status(),
        pipeline.ScoreMc(x, hp.mc_passes, 7).status(),
        pipeline.ScoreIntervals(x).status(),
        pipeline.ConformalScoreInputs(x).status()};
    for (const Status& status : statuses) {
      ASSERT_FALSE(status.ok());
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(status.message().find("non-finite feature at row 4 column 1"),
                std::string::npos)
          << status.ToString();
    }
  }
}

TEST(PipelineGuards, LoadRejectsVersionBumpAndGarbage) {
  {
    std::istringstream in("");
    StatusOr<pipeline::Pipeline> loaded = pipeline::Pipeline::Load(in);
    ASSERT_FALSE(loaded.ok());
  }
  {
    std::istringstream in("roicl-pipeline-v99\nscorer DRP\n");
    StatusOr<pipeline::Pipeline> loaded = pipeline::Pipeline::Load(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("unsupported"),
              std::string::npos)
        << loaded.status().ToString();
  }
  {
    std::istringstream in("not-a-pipeline\n");
    StatusOr<pipeline::Pipeline> loaded = pipeline::Pipeline::Load(in);
    ASSERT_FALSE(loaded.ok());
  }
  {
    // v1 (pre-interval-backend) artifacts are a hard version bump, not a
    // silent downgrade.
    std::istringstream in("roicl-pipeline-v1\nscorer DRP\n");
    StatusOr<pipeline::Pipeline> loaded = pipeline::Pipeline::Load(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("unsupported"),
              std::string::npos)
        << loaded.status().ToString();
  }
  {
    // Unknown scorer name in an otherwise well-formed manifest.
    std::istringstream in(
        "roicl-pipeline-v2\nscorer NoSuchMethod\nfeature_dim 3\n"
        "provenance.seed 1\nprovenance.dataset d\nprovenance.git g\n"
        "provenance.tool t\nhyperparams seed=1\ninterval_backend none\n"
        "model\n");
    StatusOr<pipeline::Pipeline> loaded = pipeline::Pipeline::Load(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("unknown method"),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(PipelineGuards, LoadRejectsBadIntervalBackendSections) {
  const std::string head =
      "roicl-pipeline-v2\nscorer DRP\nfeature_dim 3\n"
      "provenance.seed 1\nprovenance.dataset d\nprovenance.git g\n"
      "provenance.tool t\nhyperparams seed=1\n";
  {
    // A v2 manifest without the interval_backend section is truncated.
    std::istringstream in(head + "model\n");
    StatusOr<pipeline::Pipeline> loaded = pipeline::Pipeline::Load(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("interval_backend"),
              std::string::npos)
        << loaded.status().ToString();
  }
  {
    // Backend names must come from the registry.
    std::istringstream in(head + "interval_backend jackknife\nmodel\n");
    StatusOr<pipeline::Pipeline> loaded = pipeline::Pipeline::Load(in);
    ASSERT_FALSE(loaded.ok());
  }
  {
    // Hyperparams and the persisted interval section must agree: a blob
    // stitched together from mismatched halves dies at load, not at
    // prediction time. (hyperparams default interval_backend=split; the
    // section carries a minimal but valid weighted payload.)
    std::istringstream in(head +
                          "interval_backend weighted\n"
                          "roicl-ivb-weighted-v1\n"
                          "0.1 0.0001 1 1 0\n0.5\nmodel\n");
    StatusOr<pipeline::Pipeline> loaded = pipeline::Pipeline::Load(in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("interval_backend"),
              std::string::npos)
        << loaded.status().ToString();
  }
  {
    // A corrupt backend payload inside an otherwise valid manifest.
    std::istringstream in(head +
                          "interval_backend split\n"
                          "roicl-ivb-split-v1\n"
                          "0.1 0.0001 1 99999999999 0\nmodel\n");
    StatusOr<pipeline::Pipeline> loaded = pipeline::Pipeline::Load(in);
    ASSERT_FALSE(loaded.ok());
  }
}

TEST(PipelineRoundTrip, EveryIntervalBackendSurvivesReloadBitwise) {
  RctDataset train = Gen(300, 61);
  RctDataset calib = Gen(120, 62);
  RctDataset test = Gen(60, 63);
  for (const char* backend_name : core::kIntervalBackendNames) {
    SCOPED_TRACE(backend_name);
    pipeline::Hyperparams hp = SmallHp();
    hp.interval_backend = backend_name;
    StatusOr<pipeline::Pipeline> trained =
        pipeline::Pipeline::Train("rDRP", hp, train, &calib, {});
    ASSERT_TRUE(trained.ok()) << trained.status().ToString();
    pipeline::Pipeline pipeline = std::move(trained).value();
    ASSERT_NE(pipeline.interval_backend(), nullptr);
    ASSERT_EQ(pipeline.interval_backend()->name(), backend_name);

    std::vector<metrics::Interval> expected =
        pipeline.ScoreIntervals(test.x).value();
    std::ostringstream blob;
    ASSERT_TRUE(pipeline.Save(blob).ok());
    std::istringstream in(blob.str());
    StatusOr<pipeline::Pipeline> loaded_or = pipeline::Pipeline::Load(in);
    ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
    pipeline::Pipeline loaded = std::move(loaded_or).value();
    ASSERT_NE(loaded.interval_backend(), nullptr);
    EXPECT_EQ(loaded.interval_backend()->name(), backend_name);
    EXPECT_EQ(loaded.interval_backend()->q_hat(),
              pipeline.interval_backend()->q_hat());

    std::vector<metrics::Interval> got =
        loaded.ScoreIntervals(test.x).value();
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].lo, expected[i].lo) << "row " << i;
      ASSERT_EQ(got[i].hi, expected[i].hi) << "row " << i;
    }
  }
}

TEST(PipelineGuards, TrainRejectsUnknownScorer) {
  RctDataset train = Gen(50, 51);
  StatusOr<pipeline::Pipeline> trained = pipeline::Pipeline::Train(
      "not-a-method", SmallHp(), train, nullptr, {});
  ASSERT_FALSE(trained.ok());
  EXPECT_EQ(trained.status().code(), StatusCode::kNotFound);
}

}  // namespace
