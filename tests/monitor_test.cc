// roicl_monitor contract tests: drift statistics and their mergeable
// counter state, the shadow coverage ring, the ACI fallback state, the
// rolling recalibrator, and the ServingMonitor glued to a live pipeline
// and ScoringService. The concurrency tests run under ThreadSanitizer
// (tools/run_sanitizer.sh thread) as the data-race gate for the
// monitoring layer — in particular the atomic q_hat swap racing
// concurrent scoring.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/math_util.h"
#include "common/stats.h"
#include "core/calibration.h"
#include "core/conformal.h"
#include "core/interval_backend.h"
#include "core/rdrp.h"
#include "core/roi_star.h"
#include "monitor/coverage_tracker.h"
#include "monitor/drift.h"
#include "monitor/monitor.h"
#include "monitor/recalibrate.h"
#include "monitor/replay.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "pipeline/service.h"
#include "synth/shift.h"
#include "synth/synthetic_generator.h"

namespace {

using namespace roicl;
using namespace roicl::monitor;

RctDataset Gen(int n, uint64_t seed, bool shifted = false) {
  synth::SyntheticGenerator generator(synth::CriteoSynthConfig());
  Rng rng(seed);
  return generator.Generate(n, shifted, &rng);
}

/// A calibrated backend over a tiny synthetic calibration set — the
/// streaming-score source for direct recalibrator tests, no pipeline
/// needed.
std::unique_ptr<core::IntervalBackend> CalibratedBackend(
    const std::string& name = "split") {
  auto backend = std::move(core::MakeIntervalBackend(name)).value();
  Matrix x;
  std::vector<double> roi_hat;
  std::vector<double> r_hat;
  std::vector<double> roi_star;
  for (int i = 0; i < 20; ++i) {
    x.AppendRow({0.1 * i, 1.0 - 0.05 * i});
    roi_hat.push_back(0.3 + 0.02 * i);
    r_hat.push_back(0.08 + 0.01 * (i % 4));
    roi_star.push_back(0.5);
  }
  ROICL_CHECK(backend
                  ->Calibrate(x, roi_hat, r_hat, roi_star, /*alpha=*/0.1,
                              core::kDefaultStdFloor)
                  .ok());
  // The served-score weight variable (what ServingMonitor's construction
  // wires in); gives the weighted backend its reference bins.
  backend->SetWeightReference(roi_hat);
  return backend;
}

/// Small-budget rDRP pipeline with a real conformal quantile.
pipeline::Pipeline TrainSmallRdrp(uint64_t seed = 21) {
  pipeline::Hyperparams hp;
  hp.neural_epochs = 4;
  hp.restarts = 1;
  hp.mc_passes = 5;
  hp.seed = seed;
  RctDataset train = Gen(300, seed);
  RctDataset calib = Gen(150, seed + 1);
  return std::move(
             pipeline::Pipeline::Train("rDRP", hp, train, &calib, {}))
      .value();
}

// ---------------------------------------------------------------------
// Drift statistics

TEST(ReferenceDistribution, QuantileBinsCoverTheLine) {
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(i * 0.01);
  ReferenceDistribution ref =
      ReferenceDistribution::FromSamples(samples, 10);
  ASSERT_EQ(ref.num_bins(), 10);
  ASSERT_EQ(ref.edges().size(), 9u);
  // Outliers on both sides land in the outermost bins.
  EXPECT_EQ(ref.BinOf(-1e9), 0);
  EXPECT_EQ(ref.BinOf(1e9), 9);
  // Reference mass is a floored, renormalized probability vector.
  double total = 0.0;
  for (double p : ref.probabilities()) {
    EXPECT_GT(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(DriftStatistics, NearZeroOnSameDistributionLargeOnShift) {
  std::vector<double> samples;
  Rng rng(3);
  for (int i = 0; i < 4000; ++i) samples.push_back(rng.Normal());
  ReferenceDistribution ref =
      ReferenceDistribution::FromSamples(samples, 10);

  WindowCounts same(ref.num_bins());
  WindowCounts shifted(ref.num_bins());
  for (int i = 0; i < 2000; ++i) {
    same.Add(ref.BinOf(rng.Normal()));
    shifted.Add(ref.BinOf(rng.Normal() + 3.0));
  }
  EXPECT_LT(PopulationStabilityIndex(ref, same), 0.1);
  EXPECT_LT(BinnedKsStatistic(ref, same), 0.1);
  EXPECT_GT(PopulationStabilityIndex(ref, shifted), 1.0);
  EXPECT_GT(BinnedKsStatistic(ref, shifted), 0.5);
  // Empty windows are defined (zero), not NaN.
  WindowCounts empty(ref.num_bins());
  EXPECT_EQ(PopulationStabilityIndex(ref, empty), 0.0);
  EXPECT_EQ(BinnedKsStatistic(ref, empty), 0.0);
}

TEST(WindowCounts, MergeIsOrderInvariantBitwise) {
  std::vector<double> samples;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) samples.push_back(rng.Normal());
  ReferenceDistribution ref =
      ReferenceDistribution::FromSamples(samples, 8);

  std::vector<double> stream;
  for (int i = 0; i < 999; ++i) stream.push_back(rng.Normal() + 0.5);

  // Serial accumulation vs three partials merged in reverse order.
  WindowCounts serial(ref.num_bins());
  for (double v : stream) serial.Add(ref.BinOf(v));
  WindowCounts parts[3] = {WindowCounts(ref.num_bins()),
                           WindowCounts(ref.num_bins()),
                           WindowCounts(ref.num_bins())};
  for (size_t i = 0; i < stream.size(); ++i) {
    parts[i % 3].Add(ref.BinOf(stream[i]));
  }
  WindowCounts merged(ref.num_bins());
  merged.Merge(parts[2]);
  merged.Merge(parts[0]);
  merged.Merge(parts[1]);

  EXPECT_EQ(merged.counts, serial.counts);
  EXPECT_EQ(merged.total, serial.total);
  EXPECT_EQ(PopulationStabilityIndex(ref, merged),
            PopulationStabilityIndex(ref, serial));
  EXPECT_EQ(BinnedKsStatistic(ref, merged),
            BinnedKsStatistic(ref, serial));
}

TEST(DriftDetector, TriggersAboveThresholdAndResetsTumblingWindows) {
  Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) samples.push_back(rng.Normal());
  DriftThresholds thresholds;
  thresholds.min_window = 100;
  DriftDetector detector(thresholds);
  int channel = detector.AddChannel(
      "x", ReferenceDistribution::FromSamples(samples, 10));

  // Tiny window: statistics reported but never triggered.
  WindowCounts tiny = detector.MakeCounts(channel);
  for (int i = 0; i < 20; ++i) {
    detector.Accumulate(channel, rng.Normal() + 5.0, &tiny);
  }
  detector.Commit(channel, tiny);
  std::vector<DriftReport> reports = detector.Evaluate(/*reset=*/true);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].triggered) << "below min_window";

  // Full shifted window triggers; reset=true empties it again.
  WindowCounts counts = detector.MakeCounts(channel);
  for (int i = 0; i < 500; ++i) {
    detector.Accumulate(channel, rng.Normal() + 5.0, &counts);
  }
  detector.Commit(channel, counts);
  reports = detector.Evaluate(/*reset=*/true);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_TRUE(reports[0].triggered);
  EXPECT_GT(reports[0].psi, reports[0].psi_threshold);
  EXPECT_EQ(reports[0].window_n, 500u);
  EXPECT_EQ(detector.min_window_n(), 0u) << "tumbling reset";
}

// ---------------------------------------------------------------------
// Coverage tracker + ACI state

TEST(CoverageTracker, EdgeTriggeredAlertAndRingEviction) {
  CoverageTrackerOptions options;
  options.window = 100;
  options.alpha = 0.1;
  options.slack = 0.05;
  options.min_count = 10;
  CoverageTracker tracker(options);
  EXPECT_EQ(tracker.coverage(), 1.0) << "defined before any observation";

  // Healthy stream: no alert.
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(tracker.Observe(true));
  EXPECT_EQ(tracker.coverage(), 1.0);

  // Miscoverage burst: exactly one alert edge for the excursion.
  int alerts = 0;
  for (int i = 0; i < 30; ++i) alerts += tracker.Observe(false);
  EXPECT_EQ(alerts, 1);
  EXPECT_TRUE(tracker.alerting());
  EXPECT_LT(tracker.coverage(), tracker.alert_threshold());

  // Recovery: the bad bits age out of the ring, the alert clears, and a
  // fresh excursion raises a fresh edge.
  for (int i = 0; i < 150; ++i) tracker.Observe(true);
  EXPECT_FALSE(tracker.alerting());
  EXPECT_EQ(tracker.coverage(), 1.0) << "ring fully evicted the misses";
  alerts = 0;
  for (int i = 0; i < 30; ++i) alerts += tracker.Observe(false);
  EXPECT_EQ(alerts, 1);
}

TEST(AdaptiveAlpha, WalksTowardCoverageAndStaysClamped) {
  AdaptiveAlpha aci(/*target_alpha=*/0.1, /*gamma=*/0.05);
  EXPECT_EQ(aci.value(), 0.1);
  // Persistent misses shrink alpha (wider intervals)...
  for (int i = 0; i < 1000; ++i) aci.Update(false);
  EXPECT_LT(aci.value(), 0.1);
  EXPECT_GT(aci.value(), 0.0) << "clamped away from 0";
  // ...and persistent coverage grows it (narrower intervals), bounded.
  for (int i = 0; i < 10000; ++i) aci.Update(true);
  EXPECT_GT(aci.value(), 0.1);
  EXPECT_LE(aci.value(), 0.5) << "clamped below 1";
  aci.Reset();
  EXPECT_EQ(aci.value(), 0.1);
}

// ---------------------------------------------------------------------
// Rolling recalibrator

TEST(RollingRecalibrator, WindowIsBoundedAndGatesTheLabeledPath) {
  auto backend = CalibratedBackend();
  RecalibratorOptions options;
  options.max_window = 100;
  options.min_labeled = 50;
  RollingRecalibrator recal(backend.get(), {1.0, 2.0, 3.0},
                            /*target_alpha=*/0.1, options);
  EXPECT_FALSE(recal.CanRecalibrateLabeled());

  // Treated-only feedback never supports Algorithm 2...
  RctDataset data = Gen(200, 31);
  for (int i = 0; i < data.n(); ++i) {
    FeedbackSample sample;
    sample.treatment = 1;
    sample.y_revenue = data.y_revenue[AsSize(i)];
    sample.y_cost = data.y_cost[AsSize(i)] + 1.0;  // positive cost
    sample.roi_hat = 0.4;
    sample.r_hat = 0.1;
    recal.AddOutcome(std::move(sample));
  }
  EXPECT_EQ(recal.window_n(), 100u) << "oldest outcomes evicted";
  EXPECT_FALSE(recal.CanRecalibrateLabeled()) << "control arm missing";

  // ...but a genuine two-arm window with positive cost lift does.
  for (int i = 0; i < data.n(); ++i) {
    FeedbackSample sample;
    sample.treatment = data.treatment[AsSize(i)];
    sample.y_revenue = data.y_revenue[AsSize(i)];
    sample.y_cost = data.treatment[AsSize(i)] == 1
                        ? data.y_cost[AsSize(i)] + 2.0
                        : data.y_cost[AsSize(i)];
    sample.roi_hat = 0.4;
    sample.r_hat = 0.1;
    recal.AddOutcome(std::move(sample));
  }
  EXPECT_TRUE(recal.CanRecalibrateLabeled());
  EXPECT_TRUE(std::isfinite(recal.WindowRoiStar()));
}

TEST(RollingRecalibrator, FallbackRequantilesCalibrationScoresViaAci) {
  auto backend = CalibratedBackend();
  std::vector<double> calibration_scores;
  for (int i = 1; i <= 100; ++i) calibration_scores.push_back(i * 0.1);
  RecalibratorOptions options;
  options.min_labeled = 50;  // empty window -> label-free path
  RollingRecalibrator recal(backend.get(), calibration_scores,
                            /*target_alpha=*/0.1, options);

  // Drive ACI downward with persistent misses: the fallback quantile
  // must widen (a smaller effective alpha picks a higher score rank).
  StatusOr<RecalibrationResult> before =
      recal.Recalibrate(/*q_hat_current=*/1.0, {});
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_TRUE(before.value().performed);
  EXPECT_FALSE(before.value().labeled);
  EXPECT_FALSE(before.value().weighted_fallback)
      << "split backend has no weight bins";
  for (int i = 0; i < 200; ++i) recal.ObserveCoverage(false);
  StatusOr<RecalibrationResult> after =
      recal.Recalibrate(/*q_hat_current=*/1.0, {});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after.value().labeled);
  EXPECT_LT(after.value().alpha_used, 0.1);
  EXPECT_GE(after.value().q_hat_after, before.value().q_hat_after);
}

TEST(RollingRecalibrator, WeightedFallbackRepairsUnderShiftedLiveMass) {
  auto backend = CalibratedBackend("weighted");
  ASSERT_GT(backend->WeightBins(), 0u);
  std::vector<double> calibration_scores(backend->calibration_scores());
  RecalibratorOptions options;
  options.min_labeled = 50;  // empty window -> label-free path
  RollingRecalibrator recal(backend.get(), calibration_scores,
                            /*target_alpha=*/0.2, options);

  // Uniform live mass: the weighted quantile must agree with the plain
  // unweighted rank over the same scores.
  std::vector<double> uniform(backend->WeightBins(), 5.0);
  StatusOr<RecalibrationResult> base =
      recal.Recalibrate(/*q_hat_current=*/1.0, uniform);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_TRUE(base.value().weighted_fallback);
  EXPECT_FALSE(base.value().labeled);
  EXPECT_EQ(base.value().alpha_used, 0.2);
  double unweighted =
      core::ConformalScoreQuantile(calibration_scores, 0.2);
  EXPECT_EQ(base.value().q_hat_after, unweighted);

  // Live mass piled into the top bin (the hard, high-score traffic):
  // the likelihood ratio upweights large calibration scores, so the
  // quantile must not shrink.
  std::vector<double> skewed(backend->WeightBins(), 0.0);
  skewed.back() = 50.0;
  StatusOr<RecalibrationResult> shifted =
      recal.Recalibrate(/*q_hat_current=*/1.0, skewed);
  ASSERT_TRUE(shifted.ok()) << shifted.status().ToString();
  EXPECT_TRUE(shifted.value().weighted_fallback);
  EXPECT_GE(shifted.value().q_hat_after, base.value().q_hat_after);
}

TEST(RollingRecalibrator, LabeledPathRecomputesRoiStarAndQuantile) {
  auto backend = CalibratedBackend();
  RecalibratorOptions options;
  options.min_labeled = 50;
  RollingRecalibrator recal(backend.get(), {0.5, 1.0, 1.5},
                            /*target_alpha=*/0.1, options);
  RctDataset feedback = Gen(300, 41);
  for (int i = 0; i < feedback.n(); ++i) {
    FeedbackSample sample;
    sample.treatment = feedback.treatment[AsSize(i)];
    sample.y_revenue = feedback.y_revenue[AsSize(i)];
    sample.y_cost = feedback.y_cost[AsSize(i)];
    sample.roi_hat = 0.3 + 0.001 * (i % 100);
    sample.r_hat = 0.05 + 0.01 * (i % 5);
    recal.AddOutcome(std::move(sample));
  }
  ASSERT_TRUE(recal.CanRecalibrateLabeled());
  StatusOr<RecalibrationResult> result =
      recal.Recalibrate(/*q_hat_current=*/2.0, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().performed);
  EXPECT_TRUE(result.value().labeled);
  EXPECT_EQ(result.value().q_hat_before, 2.0);
  EXPECT_EQ(result.value().alpha_used, 0.1);
  EXPECT_EQ(result.value().window_n, 300u);
  EXPECT_TRUE(std::isfinite(result.value().roi_star));
  EXPECT_TRUE(std::isfinite(result.value().q_hat_after));
  EXPECT_GE(result.value().q_hat_after, 0.0);

  // The window answer must be bitwise the batch Algorithm 3 recompute
  // over the same cached ingredients at the window roi*.
  std::vector<double> batch_scores;
  EXPECT_EQ(recal.WindowRoiStar(), result.value().roi_star);
  for (int i = 0; i < feedback.n(); ++i) {
    double score = backend->StreamScore(0.3 + 0.001 * (i % 100),
                                        0.05 + 0.01 * (i % 5),
                                        result.value().roi_star, 0.0, 0.0);
    batch_scores.push_back(score);
  }
  EXPECT_EQ(result.value().q_hat_after,
            core::ConformalScoreQuantile(batch_scores, 0.1));
}

// The window holds exactly the most recent max_window outcomes: across
// seeds and window sizes, with eviction under way, every labeled
// recalibration is bitwise Algorithms 2 + 3 over the newest max_window
// samples alone.
TEST(RollingRecalibrator, WindowQuantileMatchesBatchAcrossSeedsAndChurn) {
  auto backend = CalibratedBackend();
  RctDataset feedback = Gen(600, 43);
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (size_t max_window : {60u, 150u, 400u}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " window "
                                      << max_window);
      RecalibratorOptions options;
      options.max_window = max_window;
      options.min_labeled = 50;
      RollingRecalibrator recal(backend.get(), {1.0},
                                /*target_alpha=*/0.1, options);
      Rng rng(seed);
      std::vector<FeedbackSample> arrived;
      for (size_t i = 0; i < AsSize(feedback.n()); ++i) {
        FeedbackSample sample{.treatment = feedback.treatment[i],
                              .y_revenue = feedback.y_revenue[i],
                              .y_cost = feedback.y_cost[i],
                              .roi_hat = rng.Uniform(),
                              .r_hat = 0.05 + 0.1 * rng.Uniform()};
        arrived.push_back(sample);
        recal.AddOutcome(sample);
        if ((i + 1) % 97 != 0 || !recal.CanRecalibrateLabeled()) continue;

        size_t n = std::min(max_window, arrived.size());
        ASSERT_EQ(recal.window_n(), n);
        std::vector<int> treatment;
        std::vector<double> y_revenue;
        std::vector<double> y_cost;
        for (size_t k = arrived.size() - n; k < arrived.size(); ++k) {
          treatment.push_back(arrived[k].treatment);
          y_revenue.push_back(arrived[k].y_revenue);
          y_cost.push_back(arrived[k].y_cost);
        }
        double roi_star = core::BinarySearchRoiStar(
            treatment, y_revenue, y_cost, options.epsilon);
        std::vector<double> scores;
        for (size_t k = arrived.size() - n; k < arrived.size(); ++k) {
          scores.push_back(backend->StreamScore(arrived[k].roi_hat,
                                                arrived[k].r_hat, roi_star,
                                                0.0, 0.0));
        }
        StatusOr<RecalibrationResult> result =
            recal.Recalibrate(/*q_hat_current=*/1.0, {});
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ASSERT_TRUE(result.value().labeled);
        EXPECT_EQ(result.value().roi_star, roi_star);
        EXPECT_EQ(result.value().q_hat_after, ConformalQuantile(scores, 0.1));
      }
    }
  }
}

// A window too small for the target alpha (rank ceil((1-alpha)(n+1)) > n)
// takes its largest score, the most conservative finite quantile, and
// counts the infinite rank.
TEST(RollingRecalibrator, StarvedWindowFallsBackToItsMaxScore) {
  auto backend = CalibratedBackend();
  RecalibratorOptions options;
  options.min_labeled = 5;
  RollingRecalibrator recal(backend.get(), {1.0}, /*target_alpha=*/0.1,
                            options);
  for (int i = 0; i < 8; ++i) {
    int treated = i % 2;
    recal.AddOutcome({.treatment = treated,
                      .y_revenue = 0.5 * treated,
                      .y_cost = 1.0 * treated,
                      .roi_hat = 0.3 + 0.01 * i,
                      .r_hat = 0.1});
  }
  ASSERT_TRUE(recal.CanRecalibrateLabeled());
  obs::Counter* infinite =
      obs::MetricsRegistry::Global().GetCounter("conformal.qhat_infinite");
  infinite->Reset();
  StatusOr<RecalibrationResult> result =
      recal.Recalibrate(/*q_hat_current=*/1.0, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result.value().labeled);
  double max_score = 0.0;
  for (int i = 0; i < 8; ++i) {
    max_score = std::max(
        max_score, backend->StreamScore(0.3 + 0.01 * i, 0.1,
                                        result.value().roi_star, 0.0, 0.0));
  }
  EXPECT_EQ(result.value().q_hat_after, max_score);
  EXPECT_EQ(infinite->value(), 1u);
}

// ---------------------------------------------------------------------
// ServingMonitor

TEST(ServingMonitor, RequiresConformalScorerAndMatchingDimensions) {
  pipeline::Hyperparams hp;
  hp.neural_epochs = 3;
  hp.restarts = 1;
  RctDataset train = Gen(200, 51);
  pipeline::Pipeline drp = std::move(
      pipeline::Pipeline::Train("DRP", hp, train, nullptr, {})).value();
  StatusOr<std::unique_ptr<ServingMonitor>> no_conformal =
      ServingMonitor::FromCalibration(&drp, Gen(100, 52), {});
  ASSERT_FALSE(no_conformal.ok());
  EXPECT_NE(no_conformal.status().message().find("conformal quantile"),
            std::string::npos)
      << no_conformal.status().ToString();

  pipeline::Pipeline rdrp = TrainSmallRdrp();
  StatusOr<std::unique_ptr<ServingMonitor>> empty =
      ServingMonitor::FromCalibration(&rdrp, RctDataset{}, {});
  EXPECT_FALSE(empty.ok());
}

// Each knob that used to abort the monitor's construction, or to disable
// drift detection, is refused with an InvalidArgument naming it.
TEST(ServingMonitor, FromCalibrationRejectsOutOfRangeOptions) {
  pipeline::Pipeline rdrp = TrainSmallRdrp();
  RctDataset calib = Gen(150, 53);
  struct Case {
    const char* field;
    void (*apply)(MonitorOptions*);
  };
  const Case cases[] = {
      {"drift_bins", [](MonitorOptions* o) { o->drift_bins = 1; }},
      {"thresholds.psi",
       [](MonitorOptions* o) { o->thresholds.psi = std::nan(""); }},
      {"thresholds.ks", [](MonitorOptions* o) { o->thresholds.ks = -0.1; }},
      {"coverage.window", [](MonitorOptions* o) { o->coverage.window = 0; }},
      {"coverage.slack", [](MonitorOptions* o) { o->coverage.slack = -5.0; }},
      {"recalibrator.max_window",
       [](MonitorOptions* o) { o->recalibrator.max_window = 0; }},
      {"recalibrator.gamma",
       [](MonitorOptions* o) { o->recalibrator.gamma = -1.0; }},
  };
  for (const Case& c : cases) {
    MonitorOptions options;
    c.apply(&options);
    StatusOr<std::unique_ptr<ServingMonitor>> monitor =
        ServingMonitor::FromCalibration(&rdrp, calib, options);
    ASSERT_FALSE(monitor.ok()) << c.field;
    EXPECT_EQ(monitor.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(monitor.status().message().rfind(c.field, 0), 0u)
        << monitor.status().ToString();
  }
  EXPECT_TRUE(ServingMonitor::FromCalibration(&rdrp, calib, {}).ok());
}

TEST(ServingMonitor, DetectsInjectedShiftAndSwapsQuantile) {
  pipeline::Pipeline pipeline = TrainSmallRdrp();
  RctDataset calib = Gen(300, 61);

  MonitorOptions options;
  options.window_rows = 256;
  options.thresholds.min_window = 128;
  options.recalibrator.min_labeled = 100;
  StatusOr<std::unique_ptr<ServingMonitor>> monitor_or =
      ServingMonitor::FromCalibration(&pipeline, calib, options);
  ASSERT_TRUE(monitor_or.ok()) << monitor_or.status().ToString();
  ServingMonitor& monitor = *monitor_or.value();

  // In-distribution traffic: no latch.
  RctDataset base = Gen(512, 62);
  monitor.ObserveScored(base.x, pipeline.Score(base.x).value());
  EXPECT_FALSE(monitor.drift_latched());
  EXPECT_EQ(monitor.rows_seen(), 512u);

  // Shifted traffic latches the detector.
  Rng rng(63);
  RctDataset shifted = synth::ResampleWithCovariateShift(
      Gen(1000, 64), /*feature=*/0, /*gamma=*/3.0, /*n_out=*/512, &rng);
  monitor.ObserveScored(shifted.x, pipeline.Score(shifted.x).value());
  ASSERT_TRUE(monitor.drift_latched());
  ASSERT_FALSE(monitor.last_reports().empty());

  // Recalibration without a bound swap target is a hard error...
  StatusOr<RecalibrationResult> unbound = monitor.MaybeRecalibrate();
  ASSERT_FALSE(unbound.ok());
  EXPECT_EQ(unbound.status().code(), StatusCode::kFailedPrecondition);

  // ...and with one it swaps the live quantile and clears the latch.
  ASSERT_TRUE(monitor.AddOutcomes(shifted).ok());
  double q_before = pipeline.conformal_quantile().value();
  monitor.BindQuantileSwap([&pipeline](double q_hat) {
    return pipeline.SetConformalQuantile(q_hat);
  });
  StatusOr<RecalibrationResult> recal = monitor.MaybeRecalibrate();
  ASSERT_TRUE(recal.ok()) << recal.status().ToString();
  EXPECT_TRUE(recal.value().performed);
  EXPECT_EQ(recal.value().q_hat_before, q_before);
  EXPECT_EQ(pipeline.conformal_quantile().value(),
            recal.value().q_hat_after);
  EXPECT_FALSE(monitor.drift_latched());

  // Nothing latched, no cadence: the next call is a no-op.
  StatusOr<RecalibrationResult> idle = monitor.MaybeRecalibrate();
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(idle.value().performed);
}

// MonitorOptions::recalibrate_every (monitor-replay --recalibrate-every):
// with no drift latched, the monitor recalibrates once that many outcomes
// have arrived since the last swap, and not before.
TEST(ServingMonitor, RecalibratesOnFeedbackCadenceWithoutDrift) {
  pipeline::Pipeline pipeline = TrainSmallRdrp();
  MonitorOptions options;
  options.recalibrate_every = 100;
  StatusOr<std::unique_ptr<ServingMonitor>> monitor_or =
      ServingMonitor::FromCalibration(&pipeline, Gen(300, 71), options);
  ASSERT_TRUE(monitor_or.ok()) << monitor_or.status().ToString();
  ServingMonitor& monitor = *monitor_or.value();
  monitor.BindQuantileSwap([&pipeline](double q_hat) {
    return pipeline.SetConformalQuantile(q_hat);
  });

  ASSERT_TRUE(monitor.AddOutcomes(Gen(60, 72)).ok());
  StatusOr<RecalibrationResult> early = monitor.MaybeRecalibrate();
  ASSERT_TRUE(early.ok()) << early.status().ToString();
  EXPECT_FALSE(early.value().performed);

  ASSERT_TRUE(monitor.AddOutcomes(Gen(40, 73)).ok());
  ASSERT_FALSE(monitor.drift_latched());
  StatusOr<RecalibrationResult> due = monitor.MaybeRecalibrate();
  ASSERT_TRUE(due.ok()) << due.status().ToString();
  EXPECT_TRUE(due.value().performed);
  EXPECT_EQ(pipeline.conformal_quantile().value(), due.value().q_hat_after);

  // The count restarts at the swap.
  ASSERT_TRUE(monitor.AddOutcomes(Gen(99, 74)).ok());
  StatusOr<RecalibrationResult> restarted = monitor.MaybeRecalibrate();
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_FALSE(restarted.value().performed);
  ASSERT_TRUE(monitor.AddOutcomes(Gen(1, 75)).ok());
  StatusOr<RecalibrationResult> again = monitor.MaybeRecalibrate();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again.value().performed);
}

TEST(ServingMonitor, CommittedStateBitIdenticalAtAnyThreadCount) {
  pipeline::Pipeline pipeline = TrainSmallRdrp();
  RctDataset calib = Gen(300, 71);
  RctDataset traffic = Gen(700, 72);
  std::vector<double> scores = pipeline.Score(traffic.x).value();

  // The same traffic through monitors configured serial / threaded /
  // shared-pool must evaluate to bitwise-identical drift statistics.
  std::vector<std::vector<DriftReport>> all_reports;
  for (int threads : {1, 4, 0}) {
    MonitorOptions options;
    options.window_rows = 700;
    options.thresholds.min_window = 64;
    options.engine.batch_size = 64;
    options.engine.num_threads = threads;
    StatusOr<std::unique_ptr<ServingMonitor>> monitor_or =
        ServingMonitor::FromCalibration(&pipeline, calib, options);
    ASSERT_TRUE(monitor_or.ok()) << monitor_or.status().ToString();
    // Feed in two chunks to exercise carry-over between calls.
    std::vector<int> head, tail;
    for (int i = 0; i < traffic.n(); ++i) {
      (i < 301 ? head : tail).push_back(i);
    }
    RctDataset first = traffic.Subset(head);
    RctDataset second = traffic.Subset(tail);
    monitor_or.value()->ObserveScored(
        first.x, {scores.begin(), scores.begin() + 301});
    monitor_or.value()->ObserveScored(
        second.x, {scores.begin() + 301, scores.end()});
    all_reports.push_back(monitor_or.value()->last_reports());
  }
  ASSERT_EQ(all_reports.size(), 3u);
  for (size_t v = 1; v < all_reports.size(); ++v) {
    ASSERT_EQ(all_reports[v].size(), all_reports[0].size());
    for (size_t c = 0; c < all_reports[0].size(); ++c) {
      EXPECT_EQ(all_reports[v][c].psi, all_reports[0][c].psi)
          << all_reports[0][c].channel;
      EXPECT_EQ(all_reports[v][c].ks, all_reports[0][c].ks)
          << all_reports[0][c].channel;
      EXPECT_EQ(all_reports[v][c].window_n, all_reports[0][c].window_n);
    }
  }
}

TEST(ServingMonitor, ConcurrentObserveOutcomesAndRecalibrateAreRaceFree) {
  // TSan target: scored traffic, labeled feedback, quantile swaps, and
  // accessor reads hammering one monitor from distinct threads while a
  // live ScoringService (whose dispatcher invokes ObserveScored through
  // on_scored) scores concurrently with the atomic q_hat swap.
  pipeline::Pipeline pipeline = TrainSmallRdrp();
  RctDataset calib = Gen(250, 81);

  auto hook = std::make_shared<std::atomic<ServingMonitor*>>(nullptr);
  pipeline::ServiceOptions service_options;
  service_options.engine.num_threads = 2;
  service_options.on_scored = [hook](const pipeline::ServeContext&,
                                     const Matrix& x,
                                     const std::vector<double>& scores) {
    ServingMonitor* monitor = hook->load();
    if (monitor != nullptr) monitor->ObserveScored(x, scores);
  };
  pipeline::ScoringService service(std::move(pipeline), service_options);

  MonitorOptions options;
  options.window_rows = 128;
  options.thresholds.min_window = 64;
  options.recalibrator.min_labeled = 50;
  StatusOr<std::unique_ptr<ServingMonitor>> monitor_or =
      ServingMonitor::FromCalibration(&service.pipeline(), calib, options);
  ASSERT_TRUE(monitor_or.ok()) << monitor_or.status().ToString();
  ServingMonitor& monitor = *monitor_or.value();
  monitor.BindQuantileSwap([&service](double q_hat) {
    return service.SetConformalQuantile(q_hat);
  });
  hook->store(&monitor);

  RctDataset traffic = Gen(64, 82);
  RctDataset feedback = Gen(64, 83);
  std::vector<std::thread> workers;
  workers.emplace_back([&] {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(service.Score(traffic.x).ok());
    }
  });
  workers.emplace_back([&] {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(monitor.AddOutcomes(feedback).ok());
    }
  });
  workers.emplace_back([&] {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(monitor.MaybeRecalibrate(/*force=*/true).ok());
    }
  });
  workers.emplace_back([&] {
    double sink = 0.0;
    for (int i = 0; i < 200; ++i) {
      sink += monitor.coverage() + monitor.adaptive_alpha();
      sink += monitor.drift_latched() ? 1.0 : 0.0;
    }
    EXPECT_TRUE(std::isfinite(sink));
  });
  for (std::thread& worker : workers) worker.join();
  // The swapped quantile is always a finite, valid value.
  double q_final = service.pipeline().conformal_quantile().value();
  EXPECT_TRUE(std::isfinite(q_final));
  EXPECT_GE(q_final, 0.0);
}

// Recalibration pinned bit for bit under every interval backend. A fixed
// feedback stream runs through a 200-row window: the first batch is too
// small for Algorithm 2 (label-free fallback), the next four are labeled,
// and from the third batch on the window evicts, so each labeled swap
// sees a different window roi*. Any change to how the window scores,
// evicts or ranks shows here.
struct RecalibrationStep {
  bool labeled;
  double roi_star;
  double q_hat_after;
  double alpha_used;
};

struct FeedbackBatch {
  int rows;
  uint64_t seed;
  bool shifted;
};

constexpr FeedbackBatch kGoldenFeedback[] = {
    {60, 101, false}, {80, 102, false}, {80, 103, true},
    {80, 104, true},  {80, 105, false},
};

TEST(ServingMonitor, RecalibratedQuantileGolden) {
  const RecalibrationStep kExpected[][std::size(kGoldenFeedback)] = {
      // split
      {{false, 0.0, 7.2136238789411919, 0.10000000000000009},
       {true, 0.1083984375, 15.390924748288057, 0.1},
       {true, 0.20703125, 12.084190527067138, 0.1},
       {true, 0.2861328125, 10.717265765493856, 0.1},
       {true, 0.3408203125, 9.4496293227059915, 0.1}},
      // weighted
      {{false, 0.0, 9.3730045001920104, 0.1},
       {true, 0.1083984375, 15.390924748288057, 0.1},
       {true, 0.20703125, 12.084190527067138, 0.1},
       {true, 0.2861328125, 10.717265765493856, 0.1},
       {true, 0.3408203125, 9.4496293227059915, 0.1}},
      // cqr
      {{false, 0.0, 145.017145726693, 0.0030000000000000001},
       {true, 0.1083984375, 9.6821770727935892, 0.1},
       {true, 0.20703125, 6.6186841504306972, 0.1},
       {true, 0.2861328125, 4.094241335542427, 0.1},
       {true, 0.3408203125, 2.4686932279524108, 0.1}},
  };
  static_assert(std::size(kExpected) == core::kIntervalBackendNames.size());
  RctDataset calib = Gen(300, 91);
  RctDataset traffic = Gen(256, 100);
  for (size_t b = 0; b < core::kIntervalBackendNames.size(); ++b) {
    const char* backend = core::kIntervalBackendNames[b];
    SCOPED_TRACE(backend);
    pipeline::Pipeline pipeline = TrainSmallRdrp();
    ASSERT_TRUE(pipeline.RebindIntervalBackend(backend, calib).ok());
    MonitorOptions options;
    options.recalibrator.max_window = 200;
    options.recalibrator.min_labeled = 100;
    StatusOr<std::unique_ptr<ServingMonitor>> monitor_or =
        ServingMonitor::FromCalibration(&pipeline, calib, options);
    ASSERT_TRUE(monitor_or.ok()) << monitor_or.status().ToString();
    ServingMonitor& monitor = *monitor_or.value();
    monitor.BindQuantileSwap([&pipeline](double q_hat) {
      return pipeline.SetConformalQuantile(q_hat);
    });
    // Served traffic gives the weighted fallback its live bin mass.
    monitor.ObserveScored(traffic.x, pipeline.Score(traffic.x).value());
    for (size_t s = 0; s < std::size(kGoldenFeedback); ++s) {
      SCOPED_TRACE(s);
      const FeedbackBatch& batch = kGoldenFeedback[s];
      ASSERT_TRUE(
          monitor.AddOutcomes(Gen(batch.rows, batch.seed, batch.shifted))
              .ok());
      StatusOr<RecalibrationResult> result =
          monitor.MaybeRecalibrate(/*force=*/true);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const RecalibrationStep& want = kExpected[b][s];
      EXPECT_EQ(result.value().labeled, want.labeled);
      EXPECT_EQ(result.value().roi_star, want.roi_star);
      EXPECT_EQ(result.value().q_hat_after, want.q_hat_after);
      EXPECT_EQ(result.value().alpha_used, want.alpha_used);
      EXPECT_EQ(pipeline.conformal_quantile().value(),
                result.value().q_hat_after);
    }
  }
}

// The served ROI carries r_hat * q_hat under forms 5a-5c, so a swap alone
// moves the served-score distribution. After a swap the served_score
// reference is what the model now serves on the calibration rows: those
// rows, observed as one window, read as no drift at all.
TEST(ServingMonitor, ServedScoreReferenceFollowsTheSwappedQuantile) {
  pipeline::Pipeline pipeline = TrainSmallRdrp(/*seed=*/24);
  ASSERT_NE(pipeline.scorer().rdrp_model()->selected_form(),
            core::CalibrationForm::kNone);
  RctDataset calib = Gen(300, 91);
  MonitorOptions options;
  options.window_rows = static_cast<uint64_t>(calib.n());
  options.recalibrator.min_labeled = 100;
  StatusOr<std::unique_ptr<ServingMonitor>> monitor_or =
      ServingMonitor::FromCalibration(&pipeline, calib, options);
  ASSERT_TRUE(monitor_or.ok()) << monitor_or.status().ToString();
  ServingMonitor& monitor = *monitor_or.value();
  monitor.BindQuantileSwap([&pipeline](double q_hat) {
    return pipeline.SetConformalQuantile(q_hat);
  });
  const double q_before = pipeline.conformal_quantile().value();
  ASSERT_TRUE(monitor.AddOutcomes(Gen(200, 101)).ok());
  StatusOr<RecalibrationResult> result =
      monitor.MaybeRecalibrate(/*force=*/true);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Far enough (5.12 -> 10.0) that a reference frozen at q_before flags
  // the swap.
  ASSERT_GT(result.value().q_hat_after, 1.5 * q_before);

  monitor.ObserveScored(calib.x, pipeline.Score(calib.x).value());
  std::vector<DriftReport> reports = monitor.last_reports();
  auto served = std::find_if(
      reports.begin(), reports.end(),
      [](const DriftReport& r) { return r.channel == "served_score"; });
  ASSERT_NE(served, reports.end());
  EXPECT_EQ(served->window_n, static_cast<uint64_t>(calib.n()));
  EXPECT_FALSE(served->triggered);
  EXPECT_EQ(served->psi, 0.0);
}

// ---------------------------------------------------------------------
// Replay harness

TEST(ReplayHarness, DetectsMidStreamShiftAndRecalibrates) {
  pipeline::Pipeline pipeline = TrainSmallRdrp();
  RctDataset calib = Gen(300, 91);
  RctDataset stream = Gen(900, 92);

  ReplayOptions options;
  options.batch_rows = 128;
  options.num_batches = 10;
  options.shift_at_batch = 5;
  options.shift_gamma = 3.0;
  options.monitor.window_rows = 256;
  options.monitor.thresholds.min_window = 128;
  // Looser-than-default thresholds so a small-sample statistical blip on
  // the in-distribution prefix cannot trigger: the injected gamma = 3
  // shift measures psi ~ 7 and ks ~ 0.9, far above either bar, while
  // 256-row noise stays well below it.
  options.monitor.thresholds.psi = 0.5;
  options.monitor.thresholds.ks = 0.4;
  options.monitor.recalibrator.min_labeled = 200;
  StatusOr<ReplayResult> replayed =
      RunReplay(std::move(pipeline), calib, stream, options);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  const ReplayResult& result = replayed.value();

  ASSERT_EQ(result.batches.size(), 10u);
  EXPECT_EQ(result.shift_batch, 5);
  ASSERT_GE(result.detect_batch, 5) << "shift missed";
  EXPECT_LE(result.detect_batch, 7) << "detection latency too high";
  ASSERT_GE(result.recalibrate_batch, result.detect_batch);
  EXPECT_NE(result.q_hat_final, result.q_hat_initial);
  for (const ReplayBatchStat& stat : result.batches) {
    EXPECT_TRUE(std::isfinite(stat.q_hat));
    EXPECT_GE(stat.coverage, 0.0);
    EXPECT_LE(stat.coverage, 1.0);
  }
  // Pre-shift batches keep the pristine calibration quantile.
  for (int b = 0; b < result.shift_batch; ++b) {
    EXPECT_EQ(result.batches[AsSize(b)].q_hat, result.q_hat_initial);
  }
}

// Every registered interval backend serves a shift replay: the artifact
// is rebound (with the calibration set, so cqr refits) and the replay
// must detect the shift, recalibrate and keep a finite quantile.
class BackendReplay : public ::testing::TestWithParam<const char*> {};

TEST_P(BackendReplay, RebindThenShiftReplayRecalibrates) {
  pipeline::Pipeline pipeline = TrainSmallRdrp();
  RctDataset calib = Gen(300, 91);
  RctDataset stream = Gen(900, 92);
  ASSERT_TRUE(pipeline.RebindIntervalBackend(GetParam(), calib).ok());
  ASSERT_NE(pipeline.interval_backend(), nullptr);
  EXPECT_EQ(pipeline.interval_backend()->name(), GetParam());

  ReplayOptions options;
  options.batch_rows = 128;
  options.num_batches = 10;
  options.shift_at_batch = 5;
  options.shift_gamma = 3.0;
  options.monitor.window_rows = 256;
  options.monitor.thresholds.min_window = 128;
  options.monitor.thresholds.psi = 0.5;
  options.monitor.thresholds.ks = 0.4;
  options.monitor.recalibrator.min_labeled = 200;
  StatusOr<ReplayResult> replayed =
      RunReplay(std::move(pipeline), calib, stream, options);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  const ReplayResult& result = replayed.value();
  ASSERT_EQ(result.batches.size(), 10u);
  EXPECT_GE(result.detect_batch, 5);
  EXPECT_GE(result.recalibrate_batch, result.detect_batch);
  EXPECT_TRUE(std::isfinite(result.q_hat_initial));
  for (const ReplayBatchStat& stat : result.batches) {
    EXPECT_TRUE(std::isfinite(stat.q_hat)) << "batch " << stat.batch;
    EXPECT_GE(stat.coverage, 0.0);
    EXPECT_LE(stat.coverage, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, BackendReplay, ::testing::ValuesIn(core::kIntervalBackendNames),
    [](const ::testing::TestParamInfo<const char*>& param) {
      return std::string(param.param);
    });

TEST(ReplayHarness, RejectsBadOptions) {
  pipeline::Pipeline pipeline = TrainSmallRdrp();
  RctDataset calib = Gen(120, 93);
  RctDataset stream = Gen(200, 94);
  ReplayOptions options;
  options.batch_rows = 0;
  EXPECT_FALSE(
      RunReplay(std::move(pipeline), calib, stream, options).ok());

  pipeline::Pipeline pipeline2 = TrainSmallRdrp();
  ReplayOptions shifted_out_of_range;
  shifted_out_of_range.shift_feature = stream.dim();
  EXPECT_FALSE(RunReplay(std::move(pipeline2), calib, stream,
                         shifted_out_of_range)
                   .ok());
}

}  // namespace
