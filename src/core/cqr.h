#ifndef ROICL_CORE_CQR_H_
#define ROICL_CORE_CQR_H_

#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "common/status.h"
#include "data/scaler.h"
#include "metrics/coverage.h"
#include "nn/mlp.h"
#include "nn/trainer.h"

namespace roicl::core {

/// Conformalized Quantile Regression (Romano, Patterson & Candès 2019) —
/// the popular interval method the paper discusses in §IV-C and cannot
/// apply to rDRP, because CQR needs a pinball (quantile) loss and DRP's
/// convex causal loss cannot be rewritten as one.
///
/// We implement CQR for ordinary supervised regression (labelled data),
/// both as a correctness reference for the conformal machinery and to
/// quantify the adaptivity difference versus the conformalized-scalar
/// approach rDRP uses (bench_cqr).
struct CqrConfig {
  /// Coverage target is 1 - alpha; the network learns the alpha/2 and
  /// 1 - alpha/2 conditional quantiles.
  double alpha = 0.1;
  std::vector<int> hidden = {64};
  nn::ActivationKind activation = nn::ActivationKind::kRelu;
  double dropout = 0.0;
  nn::TrainConfig train;
  uint64_t seed = 55;
};

/// Pinball (quantile) loss for a two-output network: column 0 learns the
/// `lo` quantile, column 1 the `hi` quantile of the captured targets.
class PinballPairLoss : public nn::BatchLoss {
 public:
  PinballPairLoss(const std::vector<double>* targets, double lo_quantile,
                  double hi_quantile);

  double Compute(const Matrix& preds, const std::vector<int>& index,
                 Matrix* grad) const override;

 private:
  const std::vector<double>* targets_;  // not owned
  double lo_quantile_;
  double hi_quantile_;
};

/// The CQR pipeline: fit quantile heads on the proper training set,
/// compute conformity scores E_i = max(q_lo(x_i) - y_i, y_i - q_hi(x_i))
/// on the calibration set, and widen both ends by the conformal quantile
/// of E.
class CqrModel {
 public:
  explicit CqrModel(const CqrConfig& config) : config_(config) {}

  /// Trains the quantile network.
  void Fit(const Matrix& x, const std::vector<double>& y);

  /// Computes the conformal correction q_hat from held-out data.
  void Calibrate(const Matrix& x, const std::vector<double>& y);

  /// Raw (uncalibrated) quantile-regression intervals.
  std::vector<metrics::Interval> PredictRawIntervals(const Matrix& x) const;

  /// Conformalized intervals [q_lo - q_hat, q_hi + q_hat]; requires
  /// Calibrate().
  std::vector<metrics::Interval> PredictIntervals(const Matrix& x) const;

  bool fitted() const { return net_ != nullptr; }
  bool calibrated() const { return calibrated_; }
  double q_hat() const { return q_hat_; }

  /// Serializes the fitted quantile network and the feature scaler
  /// ("roicl-cqr-v1", 17-digit text, bit-exact round trip). Requires
  /// fitted(). The conformal correction q_hat is deliberately not
  /// written: when CQR serves as an interval backend that state lives in
  /// (and is persisted by) the owning core::IntervalBackend.
  Status Save(std::ostream& out) const;

  /// Restores a model written by Save(). Malformed input — truncation,
  /// bad magic, non-positive scaler stddevs, a corrupt network blob —
  /// returns a descriptive InvalidArgument; it never crashes.
  static StatusOr<CqrModel> Load(std::istream& in, const CqrConfig& config);

 private:
  CqrConfig config_;
  StandardScaler scaler_;
  mutable std::unique_ptr<nn::Mlp> net_;
  bool calibrated_ = false;
  double q_hat_ = 0.0;
};

}  // namespace roicl::core

#endif  // ROICL_CORE_CQR_H_
