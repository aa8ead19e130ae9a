#ifndef ROICL_MONITOR_RECALIBRATE_H_
#define ROICL_MONITOR_RECALIBRATE_H_

#include <cstddef>
#include <deque>
#include <vector>

#include "common/status.h"
#include "core/incremental_quantile.h"
#include "core/interval_backend.h"
#include "data/dataset.h"

/// \file
/// Rolling conformal recalibration: a bounded sliding window of labeled
/// feedback (delayed conversions, holdout traffic) from which roi*
/// (Algorithm 2) and q_hat (Algorithm 3's ceil((1-alpha)(n+1))/n
/// quantile) are recomputed online, restoring the >= 1 - alpha coverage
/// guarantee after covariate shift. The per-row conformity ingredients
/// (roi_hat, r_hat, CQR aux channels) are cached at ingest time, so the
/// recalibration hot path is pure scalar work: an order-statistic
/// structure keeps the window quantile O(log n) per insert/evict and
/// bitwise-identical to the batch rank. When the window cannot support
/// the labeled path (an RCT arm missing, non-positive average cost lift,
/// or too few samples), the label-free fallback is the backend's
/// likelihood-ratio weighted quantile (weighted backend) or an ACI-style
/// adaptive-alpha step over the original calibration scores.
namespace roicl::monitor {

/// One labeled feedback observation for the sliding window. The caller
/// (ServingMonitor::AddOutcomes) fills the cached conformity ingredients
/// from one MC sweep over the feedback batch; the recalibrator never
/// touches the feature matrix again after ingest.
struct FeedbackSample {
  std::vector<double> x;
  int treatment = 0;
  double y_revenue = 0.0;
  double y_cost = 0.0;
  /// Cached Eq. (3) / CQR ingredients (point ROI, MC std, and the
  /// backend's auxiliary channels), captured at AddOutcomes time.
  double roi_hat = 0.0;
  double r_hat = 0.0;
  double aux_lo = 0.0;
  double aux_hi = 0.0;
};

/// Adaptive conformal inference (Gibbs & Candes, 2021):
///   alpha_{t+1} = alpha_t + gamma * (alpha_target - err_t),
/// with err_t = 1 when the step's interval missed. Miscoverage above
/// target shrinks alpha (widening intervals) and vice versa. The state is
/// clamped to (0, 1) so the quantile stays defined.
class AdaptiveAlpha {
 public:
  AdaptiveAlpha(double target_alpha, double gamma);

  /// One ACI step; returns the updated alpha.
  double Update(bool covered);
  double value() const { return alpha_; }
  void Reset() { alpha_ = target_; }

 private:
  double target_;
  double gamma_;
  double alpha_;
};

/// What a recalibration did (or why it did nothing).
struct RecalibrationResult {
  /// False when no swap happened (window empty and no fallback possible).
  bool performed = false;
  /// True when the labeled Algorithm 2 + 3 path ran; false when a
  /// label-free fallback supplied the quantile.
  bool labeled = false;
  /// True when the label-free path used the backend's likelihood-ratio
  /// weighted quantile (covariate-shift repair) rather than ACI.
  bool weighted_fallback = false;
  double q_hat_before = 0.0;
  double q_hat_after = 0.0;
  /// Window convergence point (labeled path only).
  double roi_star = 0.0;
  /// Alpha used for the quantile (the target, or the ACI state for the
  /// ACI fallback).
  double alpha_used = 0.0;
  std::size_t window_n = 0;
};

struct RecalibratorOptions {
  /// Sliding-window bound: oldest feedback is evicted beyond this.
  std::size_t max_window = 2000;
  /// Labeled recalibration needs at least this many window samples.
  std::size_t min_labeled = 50;
  /// Algorithm 2 stopping constant.
  double epsilon = 1e-4;
  /// ACI step size gamma.
  double gamma = 0.02;
};

/// The sliding window plus the recalibration math. Not thread-safe: the
/// owning ServingMonitor serializes access.
///
/// Scores in the window are anchored at one roi* (`roi_star_anchor`, the
/// calibration-time convergence point initially). Every AddOutcome
/// computes the sample's conformity score at the current anchor via the
/// backend's StreamScore and inserts it into the order-statistic
/// structure; eviction erases the exact inserted value. The labeled path
/// re-runs Algorithm 2 on the window's scalar outcome columns and only
/// rescoring the window when the anchor actually moved.
class RollingRecalibrator {
 public:
  /// `backend` supplies the streaming score arithmetic and (for the
  /// weighted backend) the label-free fallback; it must outlive the
  /// recalibrator. `calibration_scores` are the train-time conformity
  /// scores — the ACI fallback requantiles them at the adjusted alpha.
  RollingRecalibrator(const core::IntervalBackend* backend,
                      double roi_star_anchor,
                      std::vector<double> calibration_scores,
                      double target_alpha, RecalibratorOptions options);

  void AddOutcome(FeedbackSample sample);
  std::size_t window_n() const { return window_.size(); }
  double roi_star_anchor() const { return anchor_; }

  /// True when the window supports Algorithm 2: both RCT arms present,
  /// positive average cost lift, and >= min_labeled samples.
  bool CanRecalibrateLabeled() const;

  /// The window as a dataset (for the monitor's window-level roi*).
  /// Requires a non-empty window.
  RctDataset WindowDataset() const;

  /// One ACI step on the adaptive alpha (driven by per-outcome coverage).
  void ObserveCoverage(bool covered) { aci_.Update(covered); }
  double adaptive_alpha() const { return aci_.value(); }

  /// Recomputes q_hat: the labeled path when the window supports it
  /// (scalar Algorithm 2 + the incremental window quantile), otherwise
  /// the weighted-conformal fallback under `live_weight_counts` (per-bin
  /// served-score counts; may be empty) when the backend has weight
  /// bins, otherwise the ACI fallback over the calibration scores. Never
  /// swaps anything itself — returns the new quantile for the caller to
  /// install.
  StatusOr<RecalibrationResult> Recalibrate(
      double q_hat_current, const std::vector<double>& live_weight_counts);

 private:
  /// A window entry plus the conformity score it contributed to the
  /// incremental quantile (at the anchor current when it was scored).
  struct Entry {
    FeedbackSample sample;
    double score = 0.0;
  };

  double ScoreAt(const FeedbackSample& sample, double roi_star) const;
  /// Rescores every window entry at `roi_star` and rebuilds the
  /// incremental quantile. O(n log n); only runs when the anchor moves.
  void ReanchorLocked(double roi_star);

  const core::IntervalBackend* backend_;
  double anchor_;
  std::vector<double> calibration_scores_;
  double target_alpha_;
  RecalibratorOptions options_;
  AdaptiveAlpha aci_;
  std::deque<Entry> window_;
  core::IncrementalQuantile iq_;
};

}  // namespace roicl::monitor

#endif  // ROICL_MONITOR_RECALIBRATE_H_
