#include "monitor/monitor.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/macros.h"
#include "common/math_util.h"
#include "core/conformal.h"
#include "core/roi_star.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"

namespace roicl::monitor {
namespace {

/// Served rows between halvings of the live weight-bin counts — a
/// first-order exponential forgetting horizon for the likelihood ratio.
constexpr uint64_t kWeightAgingRows = 4096;

/// Drift channels cover at most this many leading feature columns
/// (per-channel cost is small but not free on wide feature spaces).
constexpr int kMaxFeatureChannels = 8;

/// True when `dataset` supports Algorithm 2 without aborting: both RCT
/// arms present and a positive average cost lift (Assumption 4).
bool SupportsRoiStar(const RctDataset& dataset) {
  bool has_treated = false;
  bool has_control = false;
  for (int t : dataset.treatment) {
    if (t == 1) {
      has_treated = true;
    } else {
      has_control = true;
    }
  }
  if (!has_treated || !has_control) return false;
  return dataset.AverageCostLift() > 0.0;
}

}  // namespace

Status ValidateMonitorOptions(
    const MonitorOptions& options,
    const std::map<std::string, std::string>& names) {
  RangeCheck require(names);
  require("drift_bins", options.drift_bins, options.drift_bins >= 2,
          ">= 2");
  const DriftThresholds& drift = options.thresholds;
  require("thresholds.psi", drift.psi,
          std::isfinite(drift.psi) && drift.psi >= 0.0, "finite and >= 0");
  require("thresholds.ks", drift.ks,
          std::isfinite(drift.ks) && drift.ks >= 0.0, "finite and >= 0");
  require("coverage.window", static_cast<double>(options.coverage.window),
          options.coverage.window >= 1, ">= 1");
  require("coverage.slack", options.coverage.slack,
          options.coverage.slack >= 0.0, ">= 0");
  require("recalibrator.max_window",
          static_cast<double>(options.recalibrator.max_window),
          options.recalibrator.max_window >= 1, ">= 1");
  require("recalibrator.gamma", options.recalibrator.gamma,
          options.recalibrator.gamma >= 0.0, ">= 0");
  return require.status();
}

StatusOr<std::unique_ptr<ServingMonitor>> ServingMonitor::FromCalibration(
    const pipeline::Pipeline* pipeline, const RctDataset& calibration,
    MonitorOptions options) {
  ROICL_CHECK(pipeline != nullptr);
  if (Status valid = ValidateMonitorOptions(options); !valid.ok()) {
    return valid;
  }
  if (!pipeline->has_conformal_quantile()) {
    return Status::FailedPrecondition(
        "serving monitor requires a scorer with a conformal quantile "
        "(rDRP); scorer '" +
        pipeline->scorer_name() + "' has none");
  }
  if (calibration.n() == 0) {
    return Status::InvalidArgument("empty calibration set");
  }
  if (calibration.dim() != pipeline->feature_dim()) {
    return Status::InvalidArgument(
        "calibration feature dimension " +
        std::to_string(calibration.dim()) + " != pipeline feature_dim " +
        std::to_string(pipeline->feature_dim()));
  }
  if (!SupportsRoiStar(calibration)) {
    return Status::FailedPrecondition(
        "calibration set cannot support Algorithm 2 (needs both RCT arms "
        "and positive average cost lift)");
  }
  const core::IntervalBackend* backend = pipeline->interval_backend();
  if (backend == nullptr || !backend->calibrated()) {
    return Status::FailedPrecondition(
        "serving monitor requires a calibrated interval backend; scorer '" +
        pipeline->scorer_name() + "' carries none");
  }

  obs::ScopedSpan span("monitor.from_calibration");
  // Recompute the calibration-time conformity ingredients through the
  // pipeline: one prediction gives the uncalibrated points, the MC stds
  // and the served scores; with the backend's aux channels and roi* they
  // give the conformity scores that anchor both the score-drift channel
  // and the label-free recalibration fallback.
  StatusOr<core::RdrpPrediction> prediction =
      pipeline->PredictRdrp(calibration.x);
  if (!prediction.ok()) return prediction.status();
  std::vector<double> aux_lo;
  std::vector<double> aux_hi;
  if (Status status = backend->StreamAux(calibration.x, &aux_lo, &aux_hi);
      !status.ok()) {
    return status;
  }
  double roi_star = core::BinarySearchRoiStar(
      calibration, options.recalibrator.epsilon);
  std::vector<double> calibration_scores;
  calibration_scores.reserve(AsSize(calibration.n()));
  for (int i = 0; i < calibration.n(); ++i) {
    calibration_scores.push_back(backend->StreamScore(
        prediction.value().roi_hat[AsSize(i)],
        prediction.value().r_hat[AsSize(i)], roi_star, aux_lo[AsSize(i)],
        aux_hi[AsSize(i)]));
  }

  DriftDetector detector(options.thresholds);
  std::vector<int> feature_channels;
  int monitored = std::min(kMaxFeatureChannels, calibration.dim());
  for (int c = 0; c < monitored; ++c) {
    feature_channels.push_back(detector.AddChannel(
        "feature_" + std::to_string(c),
        ReferenceDistribution::FromSamples(calibration.x.Col(c),
                                           options.drift_bins)));
  }
  int score_channel = detector.AddChannel(
      "served_score", ReferenceDistribution::FromSamples(
                          prediction.value().roi, options.drift_bins));
  int conformal_channel = detector.AddChannel(
      "conformal_score", ReferenceDistribution::FromSamples(
                             calibration_scores, options.drift_bins));

  double alpha = pipeline->hyperparams().alpha;
  options.coverage.alpha = alpha;
  RollingRecalibrator recalibrator(backend, std::move(calibration_scores),
                                   alpha, options.recalibrator);
  CoverageTracker tracker(options.coverage);

  const int num_channels = detector.num_channels();
  core::RdrpPrediction& inputs = prediction.value();
  std::unique_ptr<ServingMonitor> monitor(new ServingMonitor(
      pipeline, std::move(options), std::move(detector),
      std::move(recalibrator), std::move(tracker), roi_star,
      std::move(inputs.roi_hat), std::move(inputs.r_hat),
      std::move(feature_channels), score_channel, conformal_channel));
  obs::Info("serving monitor up",
            {{"channels", num_channels},
             {"calibration_n", calibration.n()},
             {"roi_star", roi_star},
             {"alpha", alpha}});
  return monitor;
}

ServingMonitor::ServingMonitor(const pipeline::Pipeline* pipeline,
                               MonitorOptions options,
                               DriftDetector detector,
                               RollingRecalibrator recalibrator,
                               CoverageTracker tracker,
                               double roi_star_calibration,
                               std::vector<double> calibration_roi_hat,
                               std::vector<double> calibration_r_hat,
                               std::vector<int> feature_channels,
                               int score_channel, int conformal_channel)
    : pipeline_(pipeline),
      backend_(pipeline->interval_backend()),
      options_(std::move(options)),
      roi_star_calibration_(roi_star_calibration),
      calibration_roi_hat_(std::move(calibration_roi_hat)),
      calibration_r_hat_(std::move(calibration_r_hat)),
      feature_channels_(std::move(feature_channels)),
      score_channel_(score_channel),
      conformal_channel_(conformal_channel),
      detector_(std::move(detector)),
      recalibrator_(std::move(recalibrator)),
      tracker_(std::move(tracker)),
      weight_counts_(backend_->WeightBins(), 0.0) {}

void ServingMonitor::BindQuantileSwap(std::function<Status(double)> swap) {
  MutexLock lock(mu_);
  swap_ = std::move(swap);
}

void ServingMonitor::BindSlo(obs::SloEngine* slo) {
  MutexLock lock(mu_);
  slo_ = slo;
}

void ServingMonitor::ObserveScored(const Matrix& x,
                                   const std::vector<double>& scores) {
  ROICL_CHECK(AsSize(x.rows()) == scores.size());
  if (x.rows() == 0) return;
  MutexLock lock(mu_);
  uint64_t start_us = obs::MonotonicMicros();

  // One partial-count buffer per (row block, channel): worker threads
  // fill disjoint blocks, then the merge runs in ascending block order.
  // Because merges are integer adds, any order would give the same bits;
  // fixed order keeps the intent obvious.
  int n = x.rows();
  int batch = options_.engine.batch_size;
  ROICL_CHECK(batch > 0);
  int num_blocks = (n + batch - 1) / batch;
  int num_live = AsInt(feature_channels_.size()) + 1;
  std::vector<std::vector<WindowCounts>> partials(AsSize(num_blocks));
  for (auto& block_counts : partials) {
    block_counts.reserve(AsSize(num_live));
    for (int channel : feature_channels_) {
      block_counts.push_back(detector_.MakeCounts(channel));
    }
    block_counts.push_back(detector_.MakeCounts(score_channel_));
  }
  // The worker lambda runs on pool threads while this thread holds mu_,
  // so it may only *read* detector state (Accumulate writes into the
  // per-block counts, never the detector). Bind the guarded member to a
  // local reference here, in the provably-locked scope: the analysis
  // checks a lambda body as a separate function holding no capabilities,
  // so a direct detector_ mention inside it would not type-check.
  const DriftDetector& detector = detector_;
  nn::ForEachRowBlock(
      n, options_.engine,
      [&](int block, int row_begin, int row_end) {
        std::vector<WindowCounts>& counts = partials[AsSize(block)];
        for (int r = row_begin; r < row_end; ++r) {
          for (size_t f = 0; f < feature_channels_.size(); ++f) {
            detector.Accumulate(feature_channels_[f], x(r, AsInt(f)),
                                &counts[f]);
          }
          detector.Accumulate(score_channel_, scores[AsSize(r)],
                              &counts[AsSize(num_live - 1)]);
        }
      });
  for (const std::vector<WindowCounts>& block_counts : partials) {
    for (size_t f = 0; f < feature_channels_.size(); ++f) {
      detector_.Commit(feature_channels_[f], block_counts[f]);
    }
    detector_.Commit(score_channel_, block_counts[AsSize(num_live - 1)]);
  }

  // Weighted-conformal live mass: bin every served score under the
  // backend's reference binning, halving the counts periodically so the
  // likelihood ratio tracks recent traffic rather than all history.
  if (!weight_counts_.empty()) {
    for (double score : scores) {
      weight_counts_[backend_->WeightBinOf(score)] += 1.0;
    }
    weight_rows_ += static_cast<uint64_t>(n);
    if (weight_rows_ >= kWeightAgingRows) {
      for (double& count : weight_counts_) count *= 0.5;
      weight_rows_ /= 2;
    }
  }

  rows_since_eval_ += static_cast<uint64_t>(n);
  rows_seen_ += static_cast<uint64_t>(n);
  if (rows_since_eval_ >= options_.window_rows) EvaluateWindowLocked();

  obs::MetricsRegistry::Global()
      .GetHistogram("monitor.update_us")
      ->Observe(static_cast<double>(obs::MonotonicMicros() - start_us));
}

void ServingMonitor::EvaluateWindowLocked() {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  last_reports_ = detector_.Evaluate(/*reset=*/true);
  rows_since_eval_ = 0;
  metrics.GetCounter("monitor.windows")->Increment();

  double max_psi = 0.0;
  double max_ks = 0.0;
  bool triggered = false;
  for (const DriftReport& report : last_reports_) {
    max_psi = std::max(max_psi, report.psi);
    max_ks = std::max(max_ks, report.ks);
    if (report.triggered) {
      triggered = true;
      obs::Warn("drift detected", {{"channel", report.channel},
                                   {"psi", report.psi},
                                   {"ks", report.ks},
                                   {"window_n", report.window_n}});
    }
  }
  metrics.GetGauge("monitor.max_psi")->Set(max_psi);
  metrics.GetGauge("monitor.max_ks")->Set(max_ks);
  if (slo_ != nullptr) slo_->RecordDriftWindow(triggered);
  if (triggered) {
    metrics.GetCounter("monitor.drift_triggers")->Increment();
    drift_latched_ = true;
  }
}

Status ServingMonitor::AddOutcomes(const RctDataset& feedback) {
  if (feedback.n() == 0) return Status::Ok();
  MutexLock lock(mu_);
  obs::ScopedSpan span("monitor.add_outcomes");
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();

  // One prediction over the feedback rows gives the conformity
  // ingredients and the quantile they are checked against; the
  // ingredients are cached on each window sample so recalibration
  // replays them without touching the feature matrix again.
  StatusOr<core::RdrpPrediction> prediction =
      pipeline_->PredictRdrp(feedback.x);
  if (!prediction.ok()) return prediction.status();
  const core::RdrpPrediction& inputs = prediction.value();
  std::vector<double> aux_lo;
  std::vector<double> aux_hi;
  if (Status status = backend_->StreamAux(feedback.x, &aux_lo, &aux_hi);
      !status.ok()) {
    return status;
  }

  for (size_t i = 0; i < AsSize(feedback.n()); ++i) {
    recalibrator_.AddOutcome({.treatment = feedback.treatment[i],
                              .y_revenue = feedback.y_revenue[i],
                              .y_cost = feedback.y_cost[i],
                              .roi_hat = inputs.roi_hat[i],
                              .r_hat = inputs.r_hat[i],
                              .aux_lo = aux_lo[i],
                              .aux_hi = aux_hi[i]});
  }

  // Score the batch against the freshest convergence point available:
  // the feedback window's own roi* once the window supports Algorithm 2,
  // the frozen calibration roi* until then.
  double roi_star = roi_star_calibration_;
  if (recalibrator_.CanRecalibrateLabeled()) {
    roi_star = recalibrator_.WindowRoiStar();
    metrics.GetGauge("monitor.roi_star_window")->Set(roi_star);
  }
  std::vector<double> scores;
  scores.reserve(AsSize(feedback.n()));
  for (int i = 0; i < feedback.n(); ++i) {
    scores.push_back(backend_->StreamScore(
        inputs.roi_hat[AsSize(i)], inputs.r_hat[AsSize(i)], roi_star,
        aux_lo[AsSize(i)], aux_hi[AsSize(i)]));
  }

  // Feed the conformal-score drift channel (feedback stream is sparse;
  // serial accumulation is fine) and the coverage/ACI state. A sample is
  // covered exactly when its score is within the prediction's quantile —
  // equivalent to roi* landing inside the served interval.
  WindowCounts counts = detector_.MakeCounts(conformal_channel_);
  for (double score : scores) {
    detector_.Accumulate(conformal_channel_, score, &counts);
  }
  detector_.Commit(conformal_channel_, counts);
  for (double score : scores) {
    bool covered = score <= inputs.q_hat;
    if (slo_ != nullptr) slo_->RecordCoverage(covered);
    recalibrator_.ObserveCoverage(covered);
    if (tracker_.Observe(covered)) {
      metrics.GetCounter("monitor.coverage_alerts")->Increment();
      obs::Warn("empirical coverage below target",
                {{"coverage", tracker_.coverage()},
                 {"threshold", tracker_.alert_threshold()},
                 {"window_n", AsInt(tracker_.count())}});
    }
  }
  metrics.GetCounter("monitor.outcomes")
      ->Increment(static_cast<uint64_t>(feedback.n()));
  metrics.GetGauge("monitor.coverage")->Set(tracker_.coverage());
  metrics.GetGauge("monitor.alpha_effective")
      ->Set(recalibrator_.adaptive_alpha());
  outcomes_since_recal_ += static_cast<uint64_t>(feedback.n());
  return Status::Ok();
}

StatusOr<RecalibrationResult> ServingMonitor::MaybeRecalibrate(bool force) {
  MutexLock lock(mu_);
  bool cadence = options_.recalibrate_every > 0 &&
                 outcomes_since_recal_ >= options_.recalibrate_every;
  if (!force && !drift_latched_ && !cadence) {
    return RecalibrationResult{};  // performed = false
  }
  if (!swap_) {
    return Status::FailedPrecondition(
        "no quantile-swap target bound (call BindQuantileSwap)");
  }
  StatusOr<double> q_current = pipeline_->conformal_quantile();
  if (!q_current.ok()) return q_current.status();

  uint64_t start_us = obs::MonotonicMicros();
  StatusOr<RecalibrationResult> result =
      recalibrator_.Recalibrate(q_current.value(), weight_counts_);
  if (!result.ok()) return result.status();
  if (Status status = swap_(result.value().q_hat_after); !status.ok()) {
    return status;
  }
  // The served ROI carries r_hat * q_hat (forms 5a-5c), so the swap alone
  // moves the served-score distribution. Re-take that channel's reference
  // as what the model now serves on the calibration rows, so the detector
  // keeps reading only traffic drift.
  detector_.ReplaceReference(
      score_channel_,
      ReferenceDistribution::FromSamples(
          pipeline_->scorer().rdrp_model()->CalibratedRoi(
              calibration_roi_hat_, calibration_r_hat_,
              result.value().q_hat_after),
          options_.drift_bins));

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("monitor.recalibrations")->Increment();
  metrics.GetGauge("monitor.q_hat_before")
      ->Set(result.value().q_hat_before);
  metrics.GetGauge("monitor.q_hat_after")
      ->Set(result.value().q_hat_after);
  metrics.GetHistogram("monitor.recalibrate_us")
      ->Observe(static_cast<double>(obs::MonotonicMicros() - start_us));
  obs::Info("conformal quantile recalibrated",
            {{"q_hat_before", result.value().q_hat_before},
             {"q_hat_after", result.value().q_hat_after},
             {"labeled", result.value().labeled},
             {"weighted_fallback", result.value().weighted_fallback},
             {"alpha_used", result.value().alpha_used},
             {"window_n", AsInt(result.value().window_n)},
             {"forced", force}});
  drift_latched_ = false;
  outcomes_since_recal_ = 0;
  return result;
}

bool ServingMonitor::drift_latched() const {
  MutexLock lock(mu_);
  return drift_latched_;
}

std::vector<DriftReport> ServingMonitor::last_reports() const {
  MutexLock lock(mu_);
  return last_reports_;
}

double ServingMonitor::coverage() const {
  MutexLock lock(mu_);
  return tracker_.coverage();
}

double ServingMonitor::adaptive_alpha() const {
  MutexLock lock(mu_);
  return recalibrator_.adaptive_alpha();
}

std::uint64_t ServingMonitor::rows_seen() const {
  MutexLock lock(mu_);
  return rows_seen_;
}

}  // namespace roicl::monitor
