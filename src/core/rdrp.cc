#include "core/rdrp.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <utility>

#include "common/macros.h"
#include "core/conformal.h"
#include "core/roi_star.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace roicl::core {

RdrpModel::RdrpModel(RdrpModel&& other) noexcept
    : config_(std::move(other.config_)),
      drp_(std::move(other.drp_)),
      calibrated_(other.calibrated_),
      q_hat_(other.q_hat_.load(std::memory_order_relaxed)),
      roi_star_global_(other.roi_star_global_),
      form_(other.form_),
      backend_(std::move(other.backend_)) {}

RdrpModel& RdrpModel::operator=(RdrpModel&& other) noexcept {
  if (this != &other) {
    config_ = std::move(other.config_);
    drp_ = std::move(other.drp_);
    calibrated_ = other.calibrated_;
    q_hat_.store(other.q_hat_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    roi_star_global_ = other.roi_star_global_;
    form_ = other.form_;
    backend_ = std::move(other.backend_);
  }
  return *this;
}

Status RdrpModel::AdoptIntervalBackend(
    std::unique_ptr<IntervalBackend> backend) {
  if (backend == nullptr || !backend->calibrated()) {
    return Status::InvalidArgument(
        "AdoptIntervalBackend needs a calibrated backend");
  }
  backend_ = std::move(backend);
  return Status::Ok();
}

void RdrpModel::set_q_hat(double q_hat) {
  ROICL_CHECK_MSG(calibrated_, "set_q_hat() before FitWithCalibration()");
  ROICL_CHECK_MSG(std::isfinite(q_hat) && q_hat >= 0.0,
                  "set_q_hat() requires a finite non-negative quantile");
  q_hat_.store(q_hat, std::memory_order_relaxed);
}

void RdrpModel::FitWithCalibration(const RctDataset& train,
                                   const RctDataset& calibration) {
  calibration.Validate();
  obs::ScopedSpan span("rdrp.fit");
  // Algorithm 4, line 2: train DRP.
  drp_.Fit(train);

  {
    obs::ScopedSpan calibrate_span("calibrate");
    // Lines 4-6: point estimates, roi*, MC-dropout stds on the
    // calibration set.
    std::vector<double> roi_hat = drp_.PredictRoi(calibration.x);
    McDropoutStats mc =
        drp_.PredictMcRoi(calibration.x, config_.mc_passes, config_.mc_seed);
    roi_star_global_ = BinarySearchRoiStar(calibration, config_.epsilon);

    std::vector<double> roi_star;
    if (config_.binned_roi_star) {
      roi_star = BinnedRoiStar(roi_hat, calibration.treatment,
                               calibration.y_revenue, calibration.y_cost,
                               config_.roi_star_bins, config_.epsilon);
    } else {
      roi_star.assign(roi_hat.size(), roi_star_global_);
    }

    // Line 7: conformal score quantile, computed by the configured
    // interval backend. The "split" backend reproduces the historical
    // in-model path bit for bit (Eq. 3 scores, ceil((1-alpha)(n+1))
    // quantile, max-score fallback on a starved window); "weighted" and
    // "cqr" add shift-reweighted and residual-quantile-regression
    // calibrations behind the same interface.
    StatusOr<std::unique_ptr<IntervalBackend>> backend =
        MakeIntervalBackend(config_.interval_backend);
    ROICL_CHECK_MSG(backend.ok(), "unknown interval backend '%s'",
                    config_.interval_backend.c_str());
    backend_ = std::move(backend).value();
    Status backend_status =
        backend_->Calibrate(calibration.x, roi_hat, mc.stddev, roi_star,
                            config_.alpha, config_.std_floor);
    ROICL_CHECK_MSG(backend_status.ok(),
                    "interval-backend calibration failed: %s",
                    backend_status.message().c_str());
    double q_hat = backend_->q_hat();
    q_hat_.store(q_hat, std::memory_order_relaxed);

    // Line 8: pick the calibration form that maximizes AUCC on the
    // calibration set.
    std::vector<double> rq(roi_hat.size());
    for (size_t i = 0; i < rq.size(); ++i) {
      rq[i] = std::max(mc.stddev[i], config_.std_floor) * q_hat;
    }
    form_ = SelectCalibrationForm(roi_hat, rq, calibration);

    // Weight variable for the weighted backend's covariate-shift
    // fallback: the served calibrated prediction on each calibration
    // row. Every backend persists it, so all artifacts share one format.
    backend_->SetWeightReference(ApplyCalibrationForm(form_, roi_hat, rq));
  }
  calibrated_ = true;
  obs::Info("rdrp calibrated",
            {{"q_hat", q_hat()},
             {"roi_star", roi_star_global_},
             {"form", CalibrationFormName(form_)},
             {"calibration_n", calibration.n()},
             {"mc_passes", config_.mc_passes}});
}

RdrpPrediction RdrpModel::Predict(const Matrix& x) const {
  ROICL_CHECK_MSG(calibrated_, "Predict() before FitWithCalibration()");
  obs::ScopedSpan span("predict");
  // Algorithm 4, lines 10-12.
  RdrpPrediction prediction;
  prediction.roi_hat = drp_.PredictRoi(x);
  prediction.r_hat =
      drp_.PredictMcRoi(x, config_.mc_passes, config_.mc_seed).stddev;
  for (double& s : prediction.r_hat) s = std::max(s, config_.std_floor);
  prediction.q_hat = q_hat();
  prediction.roi =
      CalibratedRoi(prediction.roi_hat, prediction.r_hat, prediction.q_hat);
  return prediction;
}

std::vector<double> RdrpModel::CalibratedRoi(
    const std::vector<double>& roi_hat, const std::vector<double>& r_hat,
    double q_hat) const {
  std::vector<double> rq(r_hat.size());
  for (size_t i = 0; i < rq.size(); ++i) rq[i] = r_hat[i] * q_hat;
  return ApplyCalibrationForm(form_, roi_hat, rq);
}

std::vector<metrics::Interval> RdrpModel::Intervals(
    const Matrix& x, const RdrpPrediction& prediction) const {
  // A bare Load() outside the pipeline artifact has no backend and keeps
  // the historical split arithmetic.
  std::vector<metrics::Interval> intervals =
      backend_ != nullptr
          ? backend_->Intervals(x, prediction.roi_hat, prediction.r_hat,
                                prediction.q_hat)
          : ConformalIntervals(prediction.roi_hat, prediction.r_hat,
                               prediction.q_hat, config_.std_floor);
  if (config_.clip_to_unit) {
    for (metrics::Interval& interval : intervals) {
      interval.lo = std::max(interval.lo, 0.0);
      interval.hi = std::min(interval.hi, 1.0);
    }
  }
  return intervals;
}

Status RdrpModel::Save(std::ostream& out) const {
  if (!calibrated_) return Status::FailedPrecondition("not calibrated");
  out << "roicl-rdrp-v1\n";
  out << std::setprecision(17);
  out << q_hat() << ' ' << roi_star_global_ << ' '
      << static_cast<int>(form_) << '\n';
  return drp_.Save(out);
}

StatusOr<RdrpModel> RdrpModel::Load(std::istream& in,
                                    const RdrpConfig& config) {
  std::string magic;
  if (!(in >> magic)) {
    return Status::InvalidArgument("empty or truncated rdrp model stream");
  }
  if (magic != "roicl-rdrp-v1") {
    if (magic.rfind("roicl-rdrp-v", 0) == 0) {
      return Status::InvalidArgument("unsupported rdrp format version '" +
                                     magic + "' (expected roicl-rdrp-v1)");
    }
    return Status::InvalidArgument("bad magic '" + magic +
                                   "' (expected roicl-rdrp-v1)");
  }
  double q_hat = 0.0, roi_star = 0.0;
  int form = 0;
  if (!(in >> q_hat >> roi_star >> form) || q_hat < 0.0 || form < 0 ||
      form > 3) {
    return Status::InvalidArgument("bad rDRP calibration header");
  }
  StatusOr<DrpModel> drp = DrpModel::Load(in, config.drp);
  if (!drp.ok()) return drp.status();

  RdrpModel model(config);
  model.drp_ = std::move(drp).value();
  model.q_hat_.store(q_hat, std::memory_order_relaxed);
  model.roi_star_global_ = roi_star;
  model.form_ = static_cast<CalibrationForm>(form);
  model.calibrated_ = true;
  return model;
}

}  // namespace roicl::core
