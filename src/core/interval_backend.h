#ifndef ROICL_CORE_INTERVAL_BACKEND_H_
#define ROICL_CORE_INTERVAL_BACKEND_H_

#include <array>
#include <cstddef>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/conformal.h"
#include "linalg/matrix.h"
#include "metrics/coverage.h"

/// \file
/// The one conformal-interval abstraction shared by core, pipeline and
/// monitor. Every way the repo turns calibration scores into serving
/// intervals — the paper's split-conformal scalar (Algorithm 3), the
/// likelihood-ratio-weighted quantile for covariate shift (Tibshirani et
/// al. 2019), and CQR on normalized residuals (Romano et al. 2019) — is a
/// backend behind this interface, so the artifact, the scoring service
/// and the rolling recalibrator handle all three uniformly.
namespace roicl::core {

/// Registered backend names, in registry order. The single source of
/// truth the `--interval-backend` flag and the artifact manifest validate
/// against; the registry tests (artifact roundtrip, shift replay) run once
/// per name.
inline constexpr std::array<const char*, 3> kIntervalBackendNames = {
    "split", "weighted", "cqr"};

/// Polymorphic conformal-interval state. One instance is owned by the
/// calibrated model, travels through the pipeline artifact (Save/Load)
/// and supplies the monitor's streaming-score arithmetic. The backend
/// holds *calibration-time* state only — the live, swappable quantile
/// stays the model's single atomic scalar, which is what makes the
/// ScoringService swap tear-free for every backend.
class IntervalBackend {
 public:
  virtual ~IntervalBackend() = default;

  /// Registry name ("split" / "weighted" / "cqr").
  virtual std::string name() const = 0;

  /// Computes conformity scores and the conformal quantile on the
  /// calibration set (Algorithm 3 steps 2-5 for split/weighted; the CQR
  /// conformity score E on normalized residuals for cqr). Emits the
  /// conformal.* metrics and falls back to the max score — the most
  /// conservative finite quantile — on a starved window, exactly like
  /// the historical in-model path.
  virtual Status Calibrate(const Matrix& x,
                           const std::vector<double>& roi_hat,
                           const std::vector<double>& r_hat,
                           const std::vector<double>& roi_star, double alpha,
                           double std_floor) = 0;

  /// Stores the per-calibration-row weight variable (the served
  /// calibrated prediction) used by weighted conformal to detect
  /// covariate shift in score space. Only the weighted backend reads it
  /// (it rebuilds its reference quantile bins from these values); split
  /// and cqr persist it too, so every backend writes the same artifact
  /// section.
  void SetWeightReference(std::vector<double> served);

  /// Per-row auxiliary channels consumed by StreamScore. Only cqr has
  /// any (the raw quantile heads q_lo/q_hi); the default writes zeros.
  virtual Status StreamAux(const Matrix& x, std::vector<double>* aux_lo,
                           std::vector<double>* aux_hi) const;

  /// One conformity score from cached per-row ingredients — no feature
  /// matrix, no MC sweep. This is the recalibrator's O(1)-per-row hot
  /// path; for split/weighted it is exactly Eq. (3)'s
  /// |roi* - roi_hat| / max(r_hat, floor).
  virtual double StreamScore(double roi_hat, double r_hat, double roi_star,
                             double aux_lo, double aux_hi) const = 0;

  /// Number of weight bins (0 for backends without a weighted fallback).
  virtual std::size_t WeightBins() const { return 0; }

  /// Bin index of a served score under the reference binning. Only
  /// meaningful when WeightBins() > 0.
  virtual std::size_t WeightBinOf(double served_score) const;

  /// Label-free weighted conformal quantile: reweights the stored
  /// calibration scores by the likelihood ratio live/reference estimated
  /// from per-bin counts of served scores, then takes the weighted
  /// (1-alpha) quantile with the conservative max-weight test-point
  /// mass. Returns +inf when the level is unreachable (caller applies
  /// the max-score convention). FailedPrecondition for backends without
  /// weights.
  virtual StatusOr<double> FallbackQHat(
      double alpha, const std::vector<double>& live_bin_counts) const;

  /// Serving intervals for a batch, at quantile snapshot `q_hat` (the
  /// caller loads the model's atomic once per batch and passes it down,
  /// preserving the never-tearing swap contract).
  virtual std::vector<metrics::Interval> Intervals(
      const Matrix& x, const std::vector<double>& roi_hat,
      const std::vector<double>& r_hat, double q_hat) const = 0;

  /// Artifact (de)serialization: the per-backend magic
  /// "roicl-ivb-<name()>-v1", then the common calibration state (alpha,
  /// floor, q_hat, scores, weight values). Load validates magic, ranges
  /// and truncation and never crashes on corrupt input. cqr overrides
  /// both only to append or read its quantile-head model.
  virtual Status Save(std::ostream& out) const;
  virtual Status Load(std::istream& in);

  bool calibrated() const { return calibrated_; }
  /// Calibration-time quantile (the value the model's live atomic is
  /// seeded with; subsequent online swaps do not write back here).
  double q_hat() const { return q_hat_; }
  double alpha() const { return alpha_; }
  double std_floor() const { return std_floor_; }
  const std::vector<double>& calibration_scores() const { return scores_; }
  const std::vector<double>& weight_reference() const {
    return weight_values_;
  }

 protected:
  /// True when this backend's calibration scores are Eq. (3)
  /// |roi* - roi_hat| / max(r_hat, floor) values (split/weighted), one per
  /// calibration row, so Load requires them row-aligned with the weight
  /// reference. cqr's E-scores cover only its proper-calibration half,
  /// and it returns false.
  virtual bool SharesSplitScoreSemantics() const { return true; }

  /// Hook invoked whenever weight_values_ changes (SetWeightReference,
  /// Load); the weighted backend rebuilds bins here.
  virtual void OnWeightReferenceChanged() {}

  /// Shared Algorithm-3 tail: metrics, starved-window warning and the
  /// max-score fallback. Sets scores_/q_hat_/alpha_/std_floor_ and marks
  /// the backend calibrated.
  void FinishCalibration(std::vector<double> scores, double alpha,
                         double std_floor);

  double alpha_ = 0.1;
  double std_floor_ = kDefaultStdFloor;
  double q_hat_ = 0.0;
  bool calibrated_ = false;
  /// Calibration conformity scores, row-aligned with weight_values_.
  std::vector<double> scores_;
  std::vector<double> weight_values_;
};

/// Creates a backend by registry name; InvalidArgument (listing the
/// known names) for anything else.
StatusOr<std::unique_ptr<IntervalBackend>> MakeIntervalBackend(
    const std::string& name);

/// "split, weighted, cqr" — for flag-validation error messages.
std::string IntervalBackendNamesCsv();

/// True when `name` is a registered backend name.
bool IsIntervalBackendName(const std::string& name);

}  // namespace roicl::core

#endif  // ROICL_CORE_INTERVAL_BACKEND_H_
