#include "monitor/recalibrate.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/macros.h"
#include "common/math_util.h"
#include "common/stats.h"
#include "core/conformal.h"
#include "core/roi_star.h"
#include "data/dataset.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace roicl::monitor {
namespace {

/// Keeps the ACI state a usable error rate: alpha pinned into (0, 1) so
/// the conformal rank stays defined at both extremes.
constexpr double kAlphaMin = 1e-3;
constexpr double kAlphaMax = 0.5;

}  // namespace

AdaptiveAlpha::AdaptiveAlpha(double target_alpha, double gamma)
    : target_(target_alpha), gamma_(gamma), alpha_(target_alpha) {
  ROICL_CHECK_MSG(target_alpha > 0.0 && target_alpha < 1.0,
                  "target alpha must be in (0, 1)");
  ROICL_CHECK_MSG(gamma >= 0.0, "ACI gamma must be non-negative");
}

double AdaptiveAlpha::Update(bool covered) {
  double err = covered ? 0.0 : 1.0;
  alpha_ = std::clamp(alpha_ + gamma_ * (target_ - err), kAlphaMin,
                      kAlphaMax);
  return alpha_;
}

RollingRecalibrator::RollingRecalibrator(
    const core::IntervalBackend* backend,
    std::vector<double> calibration_scores, double target_alpha,
    RecalibratorOptions options)
    : backend_(backend),
      calibration_scores_(std::move(calibration_scores)),
      target_alpha_(target_alpha),
      options_(options),
      aci_(target_alpha, options.gamma) {
  ROICL_CHECK_MSG(backend_ != nullptr,
                  "recalibrator needs an interval backend for the "
                  "streaming score arithmetic");
  ROICL_CHECK_MSG(!calibration_scores_.empty(),
                  "recalibrator needs calibration scores for the "
                  "label-free fallback");
  ROICL_CHECK(options_.max_window > 0);
}

void RollingRecalibrator::AddOutcome(FeedbackSample sample) {
  window_.push_back(sample);
  while (window_.size() > options_.max_window) window_.pop_front();
}

bool RollingRecalibrator::CanRecalibrateLabeled() const {
  if (window_.size() < options_.min_labeled) return false;
  bool has_treated = false;
  bool has_control = false;
  for (const FeedbackSample& sample : window_) {
    if (sample.treatment == 1) {
      has_treated = true;
    } else {
      has_control = true;
    }
  }
  if (!has_treated || !has_control) return false;
  // Assumption 4: Algorithm 2 needs a positive average cost lift.
  std::vector<int> treatment;
  std::vector<double> y_cost;
  treatment.reserve(window_.size());
  y_cost.reserve(window_.size());
  for (const FeedbackSample& sample : window_) {
    treatment.push_back(sample.treatment);
    y_cost.push_back(sample.y_cost);
  }
  return RctDataset::DiffInMeans(treatment, y_cost) > 0.0;
}

double RollingRecalibrator::WindowRoiStar() const {
  ROICL_CHECK_MSG(!window_.empty(), "empty feedback window");
  std::vector<int> treatment;
  std::vector<double> y_revenue;
  std::vector<double> y_cost;
  treatment.reserve(window_.size());
  y_revenue.reserve(window_.size());
  y_cost.reserve(window_.size());
  for (const FeedbackSample& sample : window_) {
    treatment.push_back(sample.treatment);
    y_revenue.push_back(sample.y_revenue);
    y_cost.push_back(sample.y_cost);
  }
  return core::BinarySearchRoiStar(treatment, y_revenue, y_cost,
                                   options_.epsilon);
}

StatusOr<RecalibrationResult> RollingRecalibrator::Recalibrate(
    double q_hat_current, const std::vector<double>& live_weight_counts) {
  obs::ScopedSpan span("monitor.recalibrate");
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  RecalibrationResult result;
  result.q_hat_before = q_hat_current;
  result.window_n = window_.size();

  double q_new = 0.0;
  bool handled = false;
  if (CanRecalibrateLabeled()) {
    // Algorithm 2 on the window's outcome columns, then Algorithm 3 at
    // the target alpha over the window rescored at that roi* from the
    // cached ingredients: a fresh split-conformal calibration on
    // current-traffic labels with no MC sweep in the loop.
    double roi_star = WindowRoiStar();
    std::vector<double> scores;
    scores.reserve(window_.size());
    for (const FeedbackSample& sample : window_) {
      double score = backend_->StreamScore(sample.roi_hat, sample.r_hat,
                                           roi_star, sample.aux_lo,
                                           sample.aux_hi);
      ROICL_CHECK_MSG(std::isfinite(score),
                      "feedback conformity scores must be finite");
      scores.push_back(score);
    }
    result.roi_star = roi_star;
    // The bare rank: ConformalScoreQuantile would also record every
    // window score in the calibration-time `conformal.score` histogram.
    q_new = ConformalQuantile(scores, target_alpha_);
    metrics.GetGauge("conformal.calibration_n")
        ->Set(static_cast<double>(scores.size()));
    if (!std::isfinite(q_new)) {
      // Same convention as train-time calibration: the most conservative
      // finite quantile when the rank exceeds the window.
      metrics.GetCounter("conformal.qhat_infinite")->Increment();
      obs::Warn("conformal quantile infinite; using max score",
                {{"q_hat", q_new},
                 {"calibration_n", AsInt(scores.size())}});
      q_new = *std::max_element(scores.begin(), scores.end());
    }
    metrics.GetGauge("conformal.q_hat")->Set(q_new);
    result.labeled = true;
    result.alpha_used = target_alpha_;
    handled = true;
  } else if (backend_->WeightBins() > 0) {
    // Label-free covariate-shift repair: reweight the calibration scores
    // by the likelihood ratio estimated from the served-score bin counts
    // and requantile at the *target* alpha — no coverage feedback needed.
    StatusOr<double> weighted =
        backend_->FallbackQHat(target_alpha_, live_weight_counts);
    if (weighted.ok()) {
      q_new = weighted.value();
      if (!std::isfinite(q_new)) {
        q_new = *std::max_element(calibration_scores_.begin(),
                                  calibration_scores_.end());
      }
      result.weighted_fallback = true;
      result.alpha_used = target_alpha_;
      handled = true;
    }
  }
  if (!handled) {
    // Label-free ACI fallback: requantile the original calibration scores
    // at the ACI-adjusted alpha. Miscoverage feedback has pushed alpha
    // below target, so the rank moves up the score distribution and the
    // intervals widen — no labels required.
    result.alpha_used = aci_.value();
    q_new = core::ConformalScoreQuantile(calibration_scores_,
                                         result.alpha_used);
    if (!std::isfinite(q_new)) {
      q_new = *std::max_element(calibration_scores_.begin(),
                                calibration_scores_.end());
    }
  }
  result.q_hat_after = std::max(0.0, q_new);
  result.performed = true;
  return result;
}

}  // namespace roicl::monitor
