#ifndef ROICL_CORE_MULTI_TREATMENT_H_
#define ROICL_CORE_MULTI_TREATMENT_H_

#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "common/status.h"
#include "core/rdrp.h"
#include "synth/multi_treatment.h"

namespace roicl::core {

/// Divide-and-conquer multi-treatment rDRP (paper §VI, limitation 1):
/// decompose the K-treatment problem into K binary sub-problems
/// {control, arm k}, fit one rDRP per arm, and rank (user, arm) pairs by
/// the per-arm calibrated ROI.
class DivideAndConquerRdrp {
 public:
  /// One rDRP configuration shared by all arms; per-arm seeds are derived.
  explicit DivideAndConquerRdrp(const RdrpConfig& config)
      : config_(config) {}

  /// Fits one rDRP per arm on the binary projections of the training and
  /// calibration sets.
  void FitWithCalibration(const synth::MultiTreatmentDataset& train,
                          const synth::MultiTreatmentDataset& calibration);

  /// Per-arm calibrated ROI scores: result[k][i] is arm (k+1)'s score for
  /// row i of x.
  std::vector<std::vector<double>> PredictRoiPerArm(const Matrix& x) const;

  /// Per-arm conformal intervals: result[k][i] is arm (k+1)'s interval
  /// for row i of x, produced by that arm's own calibrated rDRP (and
  /// therefore that arm's own IntervalBackend — split/weighted/cqr per
  /// `config.interval_backend`). Each arm carries coverage >= 1 - alpha
  /// against its own convergence-point target.
  std::vector<std::vector<metrics::Interval>> PredictIntervalsPerArm(
      const Matrix& x) const;

  int num_arms() const { return static_cast<int>(models_.size()); }
  const RdrpModel& arm_model(int arm) const;
  bool fitted() const { return !models_.empty(); }

  /// Serializes all per-arm calibrated models ("roicl-dnc-rdrp-v2"): the
  /// arm count, then per arm its interval backend (name and state) and
  /// its full RdrpModel stream, so a trained K-arm estimator deploys
  /// without retraining. Requires fitted().
  Status Save(std::ostream& out) const;
  /// Restores a model saved by Save(), each arm with its saved interval
  /// backend. `config` supplies the shared runtime knobs; per-arm seed
  /// derivation is reapplied so reloaded models reproduce training-time
  /// scores and intervals bit for bit. A v1 blob is a version error.
  static StatusOr<DivideAndConquerRdrp> Load(
      std::istream& in, const RdrpConfig& config = RdrpConfig());

  /// The per-arm derived config (documented seed offsets 101/131/151 per
  /// arm) — shared by FitWithCalibration and Load.
  static RdrpConfig ArmConfig(const RdrpConfig& base, int arm);

 private:
  RdrpConfig config_;
  std::vector<std::unique_ptr<RdrpModel>> models_;
};

}  // namespace roicl::core

#endif  // ROICL_CORE_MULTI_TREATMENT_H_
