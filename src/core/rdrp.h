#ifndef ROICL_CORE_RDRP_H_
#define ROICL_CORE_RDRP_H_

#include <atomic>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/calibration.h"
#include "core/drp_model.h"
#include "core/interval_backend.h"
#include "metrics/coverage.h"

namespace roicl::core {

/// rDRP hyperparameters (§IV-C / Algorithm 4).
struct RdrpConfig {
  DrpConfig drp;
  /// Conformal error rate alpha: coverage target is 1 - alpha.
  double alpha = 0.1;
  /// MC-dropout forward passes (paper: 10-100).
  int mc_passes = 30;
  /// Floor applied to r_hat(x) before divisions.
  double std_floor = kDefaultStdFloor;
  /// Binary-search stopping constant of Algorithm 2.
  double epsilon = 1e-4;
  /// Intersect intervals with [0, 1]. Sound because ROI lives in (0, 1)
  /// by Assumption 3, so clipping never evicts the target; it only
  /// removes vacuous width when the uncertainty scalar misbehaves (the
  /// paper's SS VI caveat).
  bool clip_to_unit = true;
  /// Extension: per-score-bin roi* instead of the paper's single global
  /// convergence point (DESIGN.md §5).
  bool binned_roi_star = false;
  int roi_star_bins = 10;
  uint64_t mc_seed = 99;
  /// Which core::IntervalBackend turns calibration scores into serving
  /// intervals: "split" (Algorithm 3, the default), "weighted"
  /// (shift-reweighted quantile) or "cqr" (quantile-regression heads on
  /// normalized residuals). Validated by MakeIntervalBackend at fit time.
  std::string interval_backend = "split";
  /// Batched prediction-engine knobs (row-block size, thread count) for
  /// the MC-dropout sweep and the point forward live in `drp.predict`
  /// (CLI: --batch-size / --threads). Engine settings never change the
  /// produced bits, only throughput.
};

/// One rDRP inference step on a feature matrix (Algorithm 4, lines
/// 10-12): the ingredients of Eq. (3) and the calibrated score of Eq. (5),
/// all from one point forward, one MC-dropout sweep and one load of the
/// live quantile. The interval of Eq. (4) is shaped from the same values
/// by RdrpModel::Intervals.
struct RdrpPrediction {
  /// Uncalibrated DRP point estimates.
  std::vector<double> roi_hat;
  /// MC-dropout stds, floored at RdrpConfig::std_floor.
  std::vector<double> r_hat;
  /// The conformal quantile this prediction used.
  double q_hat = 0.0;
  /// Calibrated scores: the selected form over roi_hat and r_hat * q_hat.
  std::vector<double> roi;
};

/// Robust Direct ROI Prediction (the paper's contribution, Algorithm 4).
///
/// Pipeline: train DRP on the training set; on the calibration set obtain
/// the point estimates, the Algorithm-2 convergence point roi*, the
/// MC-dropout stds r_hat(x) and the conformal quantile q_hat; select the
/// best heuristic calibration form (Eq. 5a-5c) by calibration-set AUCC;
/// at test time, re-run MC dropout and apply the selected form.
/// Plain Fit() (no calibration set) degrades to calibrating on the
/// training data — legal but weaker, as Assumption 6 no longer holds.
class RdrpModel : public uplift::RoiModel {
 public:
  explicit RdrpModel(const RdrpConfig& config)
      : config_(config), drp_(config.drp) {}

  // q_hat_ is an atomic (it can be swapped by the online recalibrator
  // while the serving path reads it), so the moves are hand-written.
  RdrpModel(RdrpModel&& other) noexcept;
  RdrpModel& operator=(RdrpModel&& other) noexcept;

  void Fit(const RctDataset& train) override {
    FitWithCalibration(train, train);
  }
  void FitWithCalibration(const RctDataset& train,
                          const RctDataset& calibration) override;

  /// The one inference step: one point forward, one MC-dropout sweep and
  /// one load of q_hat. A concurrent set_q_hat gives the whole batch
  /// either the old or the new quantile, never a mix.
  RdrpPrediction Predict(const Matrix& x) const;

  /// Rigorous conformal intervals C(x) with coverage >= 1 - alpha against
  /// the convergence-point target (Eq. 4), shaped by the interval backend
  /// from `prediction` (which must be Predict(x)) and clipped to [0, 1]
  /// when configured.
  std::vector<metrics::Interval> Intervals(
      const Matrix& x, const RdrpPrediction& prediction) const;

  /// Calibrated point estimates (the rDRP score used for ranking):
  /// Predict(x).roi.
  std::vector<double> PredictRoi(const Matrix& x) const override {
    return Predict(x).roi;
  }
  std::string name() const override { return "rDRP"; }

  /// Intervals(x, Predict(x)).
  std::vector<metrics::Interval> PredictIntervals(const Matrix& x) const {
    return Intervals(x, Predict(x));
  }

  /// The calibrated scores Predict serves for the ingredients `roi_hat`
  /// and floored `r_hat` when the live quantile is `q_hat`: the selected
  /// form over roi_hat and r_hat * q_hat.
  std::vector<double> CalibratedRoi(const std::vector<double>& roi_hat,
                                    const std::vector<double>& r_hat,
                                    double q_hat) const;

  const DrpModel& drp() const { return drp_; }

  /// Feature dimension of the underlying DRP net (-1 before Fit/Load).
  int feature_dim() const { return drp_.feature_dim(); }

  /// Re-points the batched prediction engine for both the point forward
  /// and the MC-dropout sweep. Throughput knob only — bits never change.
  void set_predict_options(const nn::BatchOptions& opts) {
    config_.drp.predict = opts;
    drp_.set_predict_options(opts);
  }

  /// The interval backend fitted alongside the model (nullptr only for a
  /// bare Load() outside the pipeline artifact, where Intervals falls
  /// back to the split arithmetic). The backend holds
  /// calibration-time state; the live swappable quantile is q_hat_.
  const IntervalBackend* interval_backend() const { return backend_.get(); }

  /// Installs a calibrated backend (the pipeline artifact's interval
  /// section, or a rebind). Never touches the live q_hat_ atomic — the
  /// caller decides whether to swap the serving quantile.
  Status AdoptIntervalBackend(std::unique_ptr<IntervalBackend> backend);

  double q_hat() const { return q_hat_.load(std::memory_order_relaxed); }
  /// Atomically swaps the conformal quantile in place — the online
  /// recalibration hook. A concurrent Predict sees either the old or the
  /// new value, never a torn mix: it loads q_hat exactly once. Requires a
  /// calibrated model and a finite, non-negative quantile.
  void set_q_hat(double q_hat);
  double roi_star() const { return roi_star_global_; }
  CalibrationForm selected_form() const { return form_; }
  bool calibrated() const { return calibrated_; }

  /// Serializes the full calibrated pipeline — the DRP network, the
  /// conformal quantile q_hat, roi*, and the selected form — so the
  /// deployed service only loads and predicts. Requires calibrated().
  Status Save(std::ostream& out) const;
  static StatusOr<RdrpModel> Load(std::istream& in,
                                  const RdrpConfig& config = RdrpConfig());

 private:
  RdrpConfig config_;
  DrpModel drp_;
  bool calibrated_ = false;
  std::atomic<double> q_hat_{0.0};
  double roi_star_global_ = 0.0;
  CalibrationForm form_ = CalibrationForm::kNone;
  std::unique_ptr<IntervalBackend> backend_;
};

}  // namespace roicl::core

#endif  // ROICL_CORE_RDRP_H_
