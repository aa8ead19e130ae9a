#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/karm_rank_net.h"
#include "campaign/scenario.h"
#include "campaign/scorer.h"
#include "common/rng.h"
#include "core/interval_backend.h"
#include "core/roi_star.h"
#include "metrics/coverage.h"
#include "obs/metrics.h"
#include "synth/multi_treatment.h"
#include "synth/synthetic_generator.h"

/// \file
/// End-to-end guarantees of the multi-treatment campaign pipeline:
/// per-arm conformal coverage >= 1 - alpha (within property-test slack)
/// on every arm, across the three synthetic dataset presets, for all
/// three interval backends; bitwise save -> load -> predict roundtrips
/// for every registered campaign scorer; and the scenario driver's
/// invariants in both allocation modes.

namespace roicl::campaign {
namespace {

synth::SyntheticConfig PresetByName(const std::string& name) {
  if (name == "meituan") return synth::MeituanSynthConfig();
  if (name == "alibaba") return synth::AlibabaSynthConfig();
  return synth::CriteoSynthConfig();
}

/// Two-arm grid: arm 2 costs 1.4x and converts at slightly lower ROI —
/// both binary sub-problems stay close to the regime the binary rDRP
/// coverage tests are calibrated for.
std::vector<synth::ArmEffect> TwoArms() {
  // Scales <= 1 clear the generator saturation guard on all presets
  // (alibaba's high base rate tolerates at most ~1.16).
  return {synth::ArmEffect{1.0, 0.0}, synth::ArmEffect{0.8, -0.04}};
}

CampaignScorerConfig FastConfig() {
  CampaignScorerConfig config;
  config.rdrp.drp.train.epochs = 12;
  config.rdrp.mc_passes = 20;
  config.ranknet.train.epochs = 10;
  return config;
}

struct Splits {
  synth::MultiTreatmentDataset train;
  synth::MultiTreatmentDataset calibration;
  synth::MultiTreatmentDataset test;
};

Splits MakeSplits(const std::string& dataset, int n_train, int n_calib,
                  int n_test) {
  synth::MultiTreatmentGenerator generator(PresetByName(dataset), TwoArms());
  Rng rng(31);
  Splits splits{generator.Generate(n_train, false, &rng),
                generator.Generate(n_calib, true, &rng),
                generator.Generate(n_test, true, &rng)};
  return splits;
}

// ---------------------------------------------------------------------
// Per-arm conformal coverage: every arm, every dataset preset, every
// interval backend. The target of arm k is the convergence point of the
// arm's own binary sub-problem on the test draw (Eq. 4 per sub-problem).
// ---------------------------------------------------------------------

class PerArmCoverage
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(PerArmCoverage, EveryArmCoversItsConvergencePoint) {
  const std::string& dataset = std::get<0>(GetParam());
  const std::string& backend = std::get<1>(GetParam());
  Splits splits = MakeSplits(dataset, 6000, 2250, 3000);

  CampaignScorerConfig config = FastConfig();
  config.rdrp.interval_backend = backend;
  StatusOr<std::unique_ptr<KArmScorer>> scorer =
      CampaignScorerRegistry::Global().Create("dnc-rdrp", config);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  scorer.value()->FitWithCalibration(splits.train, splits.calibration);
  ASSERT_TRUE(scorer.value()->supports_intervals());

  std::vector<std::vector<metrics::Interval>> intervals =
      scorer.value()->PredictIntervalsPerArm(splits.test.x);
  ASSERT_EQ(intervals.size(), 2u);
  for (int arm = 1; arm <= 2; ++arm) {
    const std::vector<metrics::Interval>& arm_intervals =
        intervals[static_cast<size_t>(arm - 1)];
    double target =
        core::BinarySearchRoiStar(splits.test.BinarySubproblem(arm));
    std::vector<double> targets(arm_intervals.size(), target);
    metrics::CoverageReport report =
        metrics::EvaluateCoverage(arm_intervals, targets);
    // 1 - alpha = 0.9 minus the finite-sample slack the binary coverage
    // tests use: calibration roi* and test roi* differ slightly.
    EXPECT_GE(report.coverage, 0.82)
        << "dataset=" << dataset << " backend=" << backend
        << " arm=" << arm;
    EXPECT_GT(report.mean_width, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatasetsByBackends, PerArmCoverage,
    ::testing::Combine(::testing::Values("criteo", "meituan", "alibaba"),
                       ::testing::Values("split", "weighted", "cqr")),
    [](const ::testing::TestParamInfo<PerArmCoverage::ParamType>& param) {
      return std::get<0>(param.param) + "_" + std::get<1>(param.param);
    });

// ---------------------------------------------------------------------
// Registry roster and bitwise persistence: one save -> load -> predict
// roundtrip per name in kCampaignScorerNames.
// ---------------------------------------------------------------------

TEST(CampaignRegistry, RosterMatchesCompileTimeNames) {
  std::vector<std::string> names = CampaignScorerRegistry::Global().Names();
  ASSERT_EQ(names.size(), kCampaignScorerNames.size());
  for (size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(names[i], kCampaignScorerNames[i]);
  }
  EXPECT_FALSE(
      CampaignScorerRegistry::Global().Create("nope", {}).ok());
}

class CampaignScorerRoundtrip
    : public ::testing::TestWithParam<const char*> {};

// A scorer with intervals round-trips under every interval backend: each
// arm's backend travels with it, and a reloaded cqr arm that fell back to
// split arithmetic would keep its scores but change every interval.
TEST_P(CampaignScorerRoundtrip, SaveLoadPredictIsBitwise) {
  const std::string name = GetParam();
  Splits splits = MakeSplits("criteo", 1500, 600, 400);
  CampaignScorerConfig config = FastConfig();
  config.rdrp.drp.train.epochs = 4;
  config.rdrp.drp.restarts = 1;
  config.ranknet.train.epochs = 4;
  StatusOr<std::unique_ptr<KArmScorer>> probe =
      CampaignScorerRegistry::Global().Create(name, config);
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  const bool intervals = probe.value()->supports_intervals();
  std::vector<std::string> backends = {config.rdrp.interval_backend};
  if (intervals) {
    backends.assign(core::kIntervalBackendNames.begin(),
                    core::kIntervalBackendNames.end());
  }
  for (const std::string& backend : backends) {
    SCOPED_TRACE(backend);
    config.rdrp.interval_backend = backend;
    StatusOr<std::unique_ptr<KArmScorer>> scorer =
        CampaignScorerRegistry::Global().Create(name, config);
    ASSERT_TRUE(scorer.ok());
    scorer.value()->FitWithCalibration(splits.train, splits.calibration);

    std::stringstream stream;
    ASSERT_TRUE(scorer.value()->Save(stream).ok());
    StatusOr<std::unique_ptr<KArmScorer>> loaded =
        CampaignScorerRegistry::Global().Load(name, stream, config);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->supports_intervals(), intervals);

    std::vector<std::vector<double>> want =
        scorer.value()->PredictRoiPerArm(splits.test.x);
    std::vector<std::vector<double>> got =
        loaded.value()->PredictRoiPerArm(splits.test.x);
    ASSERT_EQ(want.size(), got.size());
    for (size_t k = 0; k < want.size(); ++k) {
      ASSERT_EQ(want[k].size(), got[k].size());
      for (size_t i = 0; i < want[k].size(); ++i) {
        EXPECT_EQ(want[k][i], got[k][i]) << "arm " << k << " row " << i;
      }
    }
    if (!intervals) continue;
    std::vector<std::vector<metrics::Interval>> want_iv =
        scorer.value()->PredictIntervalsPerArm(splits.test.x);
    std::vector<std::vector<metrics::Interval>> got_iv =
        loaded.value()->PredictIntervalsPerArm(splits.test.x);
    ASSERT_EQ(want_iv.size(), got_iv.size());
    for (size_t k = 0; k < want_iv.size(); ++k) {
      ASSERT_EQ(want_iv[k].size(), got_iv[k].size());
      for (size_t i = 0; i < want_iv[k].size(); ++i) {
        EXPECT_EQ(want_iv[k][i].lo, got_iv[k][i].lo);
        EXPECT_EQ(want_iv[k][i].hi, got_iv[k][i].hi);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, CampaignScorerRoundtrip,
    ::testing::ValuesIn(kCampaignScorerNames),
    [](const ::testing::TestParamInfo<const char*>& param) {
      std::string name = param.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(CampaignRoundtrip, LoadRejectsCorruptStreams) {
  std::stringstream empty;
  EXPECT_FALSE(
      CampaignScorerRegistry::Global().Load("dnc-rdrp", empty, {}).ok());
  std::stringstream bad_magic("roicl-karm-ranknet-v9\n");
  EXPECT_FALSE(CampaignScorerRegistry::Global()
                   .Load("dnc-ranknet", bad_magic, {})
                   .ok());
  // v1 blobs carry no interval backends, so their arms cannot serve the
  // intervals they were calibrated for: a version error, not a fallback.
  std::stringstream v1("roicl-dnc-rdrp-v1\n1\nroicl-rdrp-v1\n");
  StatusOr<std::unique_ptr<KArmScorer>> old_version =
      CampaignScorerRegistry::Global().Load("dnc-rdrp", v1, {});
  ASSERT_FALSE(old_version.ok());
  EXPECT_NE(old_version.status().message().find("version"),
            std::string::npos)
      << old_version.status().ToString();
  // An arm's backend section cut off after its header.
  std::stringstream truncated(
      "roicl-dnc-rdrp-v2\n2\nsplit\nroicl-ivb-split-v1\n0.1 0.0001 1 3 0\n"
      "0.5\n");
  EXPECT_FALSE(CampaignScorerRegistry::Global()
                   .Load("dnc-rdrp", truncated, {})
                   .ok());
  std::stringstream unknown_backend("roicl-dnc-rdrp-v2\n1\njackknife\n");
  EXPECT_FALSE(CampaignScorerRegistry::Global()
                   .Load("dnc-rdrp", unknown_backend, {})
                   .ok());
}

// ---------------------------------------------------------------------
// K-arm RankNet learning sanity and engine invariance.
// ---------------------------------------------------------------------

TEST(KArmRankNetTest, PredictionsAreEngineInvariant) {
  Splits splits = MakeSplits("criteo", 1200, 400, 300);
  KArmRankNetConfig config;
  config.train.epochs = 6;
  KArmRankNet model(config);
  model.Fit(splits.train);
  std::vector<std::vector<double>> base =
      model.PredictRoiPerArm(splits.test.x);
  nn::BatchOptions other;
  other.batch_size = 17;
  other.num_threads = 4;
  model.set_predict_options(other);
  std::vector<std::vector<double>> alt =
      model.PredictRoiPerArm(splits.test.x);
  ASSERT_EQ(base.size(), alt.size());
  for (size_t k = 0; k < base.size(); ++k) {
    for (size_t i = 0; i < base[k].size(); ++i) {
      EXPECT_EQ(base[k][i], alt[k][i]);
    }
  }
  for (const std::vector<double>& arm : base) {
    for (double v : arm) {
      EXPECT_GT(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
  }
}

// ---------------------------------------------------------------------
// Scenario driver invariants.
// ---------------------------------------------------------------------

CampaignScenarioConfig SmallScenario() {
  CampaignScenarioConfig config;
  config.num_arms = 2;
  config.n_train = 1500;
  config.n_calibration = 600;
  config.n_test = 500;
  config.scorer_config = FastConfig();
  config.scorer_config.rdrp.drp.train.epochs = 4;
  config.scorer_config.rdrp.drp.restarts = 1;
  return config;
}

TEST(CampaignScenario, GreedyModeAllocatesWithinBudgets) {
  CampaignScenarioConfig config = SmallScenario();
  config.arm_budget_fractions = {0.2, 0.1};
  // The scenario's own metrics: NaN sentinels expose a gauge it no longer
  // sets.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t runs_before = registry.GetCounter("campaign.runs")->value();
  registry.GetGauge("campaign.coverage_min")->Set(std::nan(""));
  registry.GetGauge("campaign.dual_gap")->Set(std::nan(""));
  StatusOr<CampaignScenarioResult> result = RunCampaignScenario(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(registry.GetCounter("campaign.runs")->value() - runs_before, 1u);
  double min_coverage = std::numeric_limits<double>::infinity();
  for (const CampaignArmReport& arm : result.value().arms) {
    min_coverage = std::min(min_coverage, arm.coverage.coverage);
  }
  EXPECT_EQ(registry.GetGauge("campaign.coverage_min")->value(), min_coverage);
  EXPECT_EQ(registry.GetGauge("campaign.dual_gap")->value(),
            result.value().dual_gap);
  EXPECT_TRUE(result.value().has_intervals);
  EXPECT_GT(result.value().assigned, 0);
  EXPECT_LE(result.value().spent, result.value().global_budget);
  ASSERT_EQ(result.value().arms.size(), 2u);
  int64_t assigned = 0;
  for (const CampaignArmReport& arm : result.value().arms) {
    EXPECT_LE(arm.spent, arm.budget);
    EXPECT_TRUE(std::isfinite(arm.aucc));
    assigned += arm.assigned;
  }
  EXPECT_EQ(assigned, result.value().assigned);
}

TEST(CampaignScenario, DualModeReportsCertificate) {
  CampaignScenarioConfig config = SmallScenario();
  config.mode = "dual";
  config.scorer = "dnc-ranknet";
  config.scorer_config.ranknet.train.epochs = 4;
  StatusOr<CampaignScenarioResult> result = RunCampaignScenario(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().has_intervals);
  EXPECT_GT(result.value().dual_iterations, 0);
  EXPECT_GE(result.value().dual_gap, -1e-9);
  EXPECT_LE(result.value().spent, result.value().global_budget);
}

TEST(CampaignScenario, RejectsBadConfigs) {
  CampaignScenarioConfig config = SmallScenario();
  config.dataset = "nope";
  EXPECT_FALSE(RunCampaignScenario(config).ok());
  config = SmallScenario();
  config.mode = "annealing";
  EXPECT_FALSE(RunCampaignScenario(config).ok());
  config = SmallScenario();
  config.arm_budget_fractions = {0.5};  // wrong arity for 2 arms
  EXPECT_FALSE(RunCampaignScenario(config).ok());
  config = SmallScenario();
  config.scorer = "unknown-scorer";
  EXPECT_FALSE(RunCampaignScenario(config).ok());
}

}  // namespace
}  // namespace roicl::campaign
