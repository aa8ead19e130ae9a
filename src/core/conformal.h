#ifndef ROICL_CORE_CONFORMAL_H_
#define ROICL_CORE_CONFORMAL_H_

#include <vector>

#include "metrics/coverage.h"

namespace roicl::core {

/// The one floor applied to MC-dropout stds before Eq. (3) divides by
/// them. Shared by core (RdrpConfig, interval backends), pipeline and
/// monitor so a collapsed posterior is floored identically at
/// calibration, serving and recalibration time.
inline constexpr double kDefaultStdFloor = 1e-4;

/// Eq. (3): conformal scores on a calibration set,
///   score_i = |roi*_i - roi_hat_i| / r_hat_i,
/// where roi* is the loss-convergence ROI (global or per-bin), roi_hat the
/// DRP point estimate and r_hat the MC-dropout std. Stds are floored at
/// `std_floor` so a collapsed posterior cannot produce infinite scores.
std::vector<double> ConformalScores(const std::vector<double>& roi_star,
                                    const std::vector<double>& roi_hat,
                                    const std::vector<double>& r_hat,
                                    double std_floor = kDefaultStdFloor);

/// Convenience overload for the paper's global (scalar) roi*.
std::vector<double> ConformalScores(double roi_star,
                                    const std::vector<double>& roi_hat,
                                    const std::vector<double>& r_hat,
                                    double std_floor = kDefaultStdFloor);

/// Algorithm 3, steps 2-5: the ceil((1-alpha)(n+1))/n empirical quantile
/// q_hat of the calibration scores. Returns +inf for tiny calibration sets
/// where the rank exceeds n (intervals then trivially cover); that case
/// also emits a WARN log and bumps the `conformal.qhat_infinite` counter
/// so a starved calibration window is visible in the metrics snapshot.
double ConformalScoreQuantile(const std::vector<double>& scores,
                              double alpha);

/// Algorithm 3, step 6: C(x) = [roi_hat - r_hat * q_hat,
///                              roi_hat + r_hat * q_hat] per sample.
std::vector<metrics::Interval> ConformalIntervals(
    const std::vector<double>& roi_hat, const std::vector<double>& r_hat,
    double q_hat, double std_floor = kDefaultStdFloor);

}  // namespace roicl::core

#endif  // ROICL_CORE_CONFORMAL_H_
