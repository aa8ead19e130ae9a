#include "core/conformal.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/macros.h"
#include "common/stats.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace roicl::core {

std::vector<double> ConformalScores(const std::vector<double>& roi_star,
                                    const std::vector<double>& roi_hat,
                                    const std::vector<double>& r_hat,
                                    double std_floor) {
  ROICL_CHECK(roi_star.size() == roi_hat.size());
  ROICL_CHECK(roi_hat.size() == r_hat.size());
  ROICL_CHECK(std_floor > 0.0);
  std::vector<double> scores(roi_hat.size());
  for (size_t i = 0; i < roi_hat.size(); ++i) {
    scores[i] = std::fabs(roi_star[i] - roi_hat[i]) /
                std::max(r_hat[i], std_floor);
    ROICL_DCHECK_FINITE(scores[i]);
  }
  return scores;
}

std::vector<double> ConformalScores(double roi_star,
                                    const std::vector<double>& roi_hat,
                                    const std::vector<double>& r_hat,
                                    double std_floor) {
  std::vector<double> star(roi_hat.size(), roi_star);
  return ConformalScores(star, roi_hat, r_hat, std_floor);
}

double ConformalScoreQuantile(const std::vector<double>& scores,
                              double alpha) {
  obs::ScopedSpan span("conformal.quantile");
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Histogram* distribution = registry.GetHistogram("conformal.score");
  for (double score : scores) distribution->Observe(score);
  registry.GetGauge("conformal.calibration_n")
      ->Set(static_cast<double>(scores.size()));
  double q_hat = ConformalQuantile(scores, alpha);
  if (!std::isfinite(q_hat)) {
    // Legal per the contract (intervals trivially cover) but almost never
    // what a caller wants: the calibration window is too small for the
    // requested alpha. Make the starved window loud.
    registry.GetCounter("conformal.qhat_infinite")->Increment();
    obs::Warn("conformal quantile is infinite (calibration window too "
              "small for alpha); intervals are trivial",
              {{"alpha", alpha}, {"calibration_n", scores.size()}});
  }
  registry.GetGauge("conformal.q_hat")->Set(q_hat);
  obs::Debug("conformal quantile", {{"q_hat", q_hat},
                                    {"alpha", alpha},
                                    {"calibration_n", scores.size()}});
  return q_hat;
}

std::vector<metrics::Interval> ConformalIntervals(
    const std::vector<double>& roi_hat, const std::vector<double>& r_hat,
    double q_hat, double std_floor) {
  ROICL_CHECK(roi_hat.size() == r_hat.size());
  ROICL_CHECK(q_hat >= 0.0);
  std::vector<metrics::Interval> intervals(roi_hat.size());
  for (size_t i = 0; i < roi_hat.size(); ++i) {
    double radius = std::max(r_hat[i], std_floor) * q_hat;
    intervals[i].lo = roi_hat[i] - radius;
    intervals[i].hi = roi_hat[i] + radius;
  }
  return intervals;
}

}  // namespace roicl::core
