#ifndef ROICL_MONITOR_MONITOR_H_
#define ROICL_MONITOR_MONITOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/status.h"
#include "core/interval_backend.h"
#include "data/dataset.h"
#include "monitor/coverage_tracker.h"
#include "monitor/drift.h"
#include "monitor/recalibrate.h"
#include "nn/batch_forward.h"
#include "pipeline/pipeline.h"

/// \file
/// The serving-path monitor: glues the streaming drift detector, the
/// rolling conformal recalibrator, and the shadow coverage tracker to a
/// live `Pipeline` / `ScoringService`.
///
/// Two input streams feed it:
///  * the *scored* stream (every served request's features and scores),
///    via `ObserveScored` — typically bound to
///    `ServiceOptions::on_scored`; label-free, drives drift detection;
///  * the *feedback* stream (delayed labeled outcomes), via
///    `AddOutcomes`; drives the coverage tracker, the ACI state, the
///    conformal-score drift channel, and the sliding recalibration
///    window.
///
/// A drift trigger latches; the next `MaybeRecalibrate` call recomputes
/// q_hat (labeled window when possible, ACI fallback otherwise) and swaps
/// it into the live pipeline through the bound swap callback — atomically
/// with respect to concurrent scoring (see RdrpModel::set_q_hat).
namespace roicl::obs {
class SloEngine;
}  // namespace roicl::obs

namespace roicl::monitor {

struct MonitorOptions {
  /// Bins per drift channel (quantile bins over calibration samples).
  int drift_bins = 10;
  DriftThresholds thresholds;
  /// Drift channels are evaluated once this many scored rows accumulate
  /// (tumbling windows).
  uint64_t window_rows = 512;
  /// Feedback sliding-window and fallback knobs.
  RecalibratorOptions recalibrator;
  /// Coverage-ring knobs (alpha is overridden from the pipeline target).
  CoverageTrackerOptions coverage;
  /// Recalibrate every this many feedback outcomes even without a drift
  /// trigger; 0 disables cadence-based recalibration (drift-only).
  uint64_t recalibrate_every = 0;
  /// Engine settings for parallel drift accumulation over scored rows.
  nn::BatchOptions engine;
};

/// Range-checks the knobs whose consumers would otherwise abort on them,
/// or never trigger: drift_bins >= 2; both drift thresholds finite and
/// >= 0; coverage.window and recalibrator.max_window >= 1; coverage.slack
/// and recalibrator.gamma >= 0. InvalidArgument names the
/// first knob out of range by its field name, or by `names[field]` where
/// given (the CLI passes its flag names).
Status ValidateMonitorOptions(
    const MonitorOptions& options,
    const std::map<std::string, std::string>& names = {});

/// See file comment. Thread-safe: all entry points serialize on one
/// mutex, so the service dispatcher thread, the feedback thread, and an
/// operator thread calling MaybeRecalibrate may interleave freely.
class ServingMonitor {
 public:
  /// Captures reference distributions from the calibration set: one
  /// channel per monitored feature column, one for the served score
  /// stream, and one for the conformal scores themselves (the most
  /// decision-relevant reference). Requires a pipeline whose scorer
  /// carries a conformal quantile and an interval backend (rDRP loaded
  /// through the pipeline artifact), and options that pass
  /// ValidateMonitorOptions (InvalidArgument otherwise). Returned by
  /// pointer: the monitor owns a mutex (and is captured by reference in
  /// service callbacks), so it is neither movable nor copyable.
  static StatusOr<std::unique_ptr<ServingMonitor>> FromCalibration(
      const pipeline::Pipeline* pipeline, const RctDataset& calibration,
      MonitorOptions options);

  ServingMonitor(const ServingMonitor&) = delete;
  ServingMonitor& operator=(const ServingMonitor&) = delete;

  /// Installs the q_hat swap target (e.g. binding
  /// ScoringService::SetConformalQuantile). Without one,
  /// MaybeRecalibrate computes but cannot swap and returns an error.
  void BindQuantileSwap(std::function<Status(double)> swap)
      ROICL_EXCLUDES(mu_);

  /// Routes monitor events into a declarative SLO engine: every labeled
  /// outcome becomes a coverage event (covered iff its conformal score is
  /// within the live quantile) and every drift-window evaluation becomes
  /// a drift event (bad iff any channel triggered). The engine must
  /// outlive the monitor; nullptr detaches.
  void BindSlo(obs::SloEngine* slo) ROICL_EXCLUDES(mu_);

  /// Ingests one served batch: bins every monitored feature column and
  /// the scores into the live drift windows, evaluating the detector
  /// whenever `window_rows` rows have accumulated. Binning fans out
  /// across row blocks per `options.engine`; per-block partial counts
  /// merge in block order, so the committed state is bit-identical at
  /// any thread count.
  void ObserveScored(const Matrix& x, const std::vector<double>& scores)
      ROICL_EXCLUDES(mu_);

  /// Ingests labeled feedback: extends the recalibration window, updates
  /// the conformal-score drift channel, the coverage ring, and the ACI
  /// state. One MC sweep over `feedback.x` computes the conformity
  /// ingredients, which are cached per sample so recalibration itself
  /// never re-sweeps the window.
  Status AddOutcomes(const RctDataset& feedback) ROICL_EXCLUDES(mu_);

  /// Recalibrates and swaps q_hat when a drift trigger is latched or the
  /// feedback cadence elapsed (always, when `force`). Returns
  /// performed = false when nothing triggered.
  StatusOr<RecalibrationResult> MaybeRecalibrate(bool force = false)
      ROICL_EXCLUDES(mu_);

  bool drift_latched() const ROICL_EXCLUDES(mu_);
  /// Reports from the most recent window evaluation (empty before one).
  std::vector<DriftReport> last_reports() const ROICL_EXCLUDES(mu_);
  double coverage() const ROICL_EXCLUDES(mu_);
  double adaptive_alpha() const ROICL_EXCLUDES(mu_);
  std::uint64_t rows_seen() const ROICL_EXCLUDES(mu_);

 private:
  /// Channel indices are constructor parameters (not assigned after the
  /// fact by FromCalibration) so that every member write happens before
  /// the monitor is published — the annotations surfaced the old
  /// post-construction assignment as the one unguarded write in the
  /// class.
  ServingMonitor(const pipeline::Pipeline* pipeline, MonitorOptions options,
                 DriftDetector detector, RollingRecalibrator recalibrator,
                 CoverageTracker tracker, double roi_star_calibration,
                 std::vector<double> calibration_roi_hat,
                 std::vector<double> calibration_r_hat,
                 std::vector<int> feature_channels, int score_channel,
                 int conformal_channel);

  /// Evaluates the drift detector over the accumulated window, updates
  /// metrics, and latches any trigger. Caller holds mu_.
  void EvaluateWindowLocked() ROICL_REQUIRES(mu_);

  // Immutable after construction (set before the monitor is published);
  // read freely without mu_.
  const pipeline::Pipeline* pipeline_;
  /// The scorer's interval backend (streaming score arithmetic and
  /// weight binning); owned by the pipeline, outlives the monitor.
  const core::IntervalBackend* backend_;
  MonitorOptions options_;
  /// Frozen calibration-time convergence point: the coverage fallback
  /// target while the feedback window cannot support Algorithm 2.
  double roi_star_calibration_;
  /// The calibration rows' point estimates and floored MC stds: after
  /// each swap the served-score reference is re-taken from them at the
  /// new quantile, because the served ROI carries r_hat * q_hat.
  std::vector<double> calibration_roi_hat_;
  std::vector<double> calibration_r_hat_;
  std::vector<int> feature_channels_;  ///< column -> channel index
  int score_channel_ = -1;
  int conformal_channel_ = -1;

  mutable Mutex mu_;
  std::function<Status(double)> swap_ ROICL_GUARDED_BY(mu_);
  obs::SloEngine* slo_ ROICL_GUARDED_BY(mu_) = nullptr;
  DriftDetector detector_ ROICL_GUARDED_BY(mu_);
  RollingRecalibrator recalibrator_ ROICL_GUARDED_BY(mu_);
  CoverageTracker tracker_ ROICL_GUARDED_BY(mu_);
  /// Live served-score counts per backend weight bin (empty when the
  /// backend has no weight bins). Aged by halving so the likelihood
  /// ratio tracks recent traffic.
  std::vector<double> weight_counts_ ROICL_GUARDED_BY(mu_);
  std::uint64_t weight_rows_ ROICL_GUARDED_BY(mu_) = 0;
  std::uint64_t rows_since_eval_ ROICL_GUARDED_BY(mu_) = 0;
  std::uint64_t rows_seen_ ROICL_GUARDED_BY(mu_) = 0;
  std::uint64_t outcomes_since_recal_ ROICL_GUARDED_BY(mu_) = 0;
  bool drift_latched_ ROICL_GUARDED_BY(mu_) = false;
  std::vector<DriftReport> last_reports_ ROICL_GUARDED_BY(mu_);
};

}  // namespace roicl::monitor

#endif  // ROICL_MONITOR_MONITOR_H_
