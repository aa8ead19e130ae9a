#ifndef ROICL_PIPELINE_PIPELINE_H_
#define ROICL_PIPELINE_PIPELINE_H_

#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "pipeline/hyperparams.h"
#include "pipeline/registry.h"
#include "pipeline/scorer.h"

namespace roicl::pipeline {

/// Training provenance baked into every artifact so a served score can be
/// traced back to the run that produced it.
struct Provenance {
  uint64_t seed = 0;
  std::string dataset;       ///< e.g. "synth:insufficient" or a CSV path.
  std::string git_describe;  ///< build identity of the training binary.
  std::string tool;          ///< producing command, e.g. "roicl_cli train".
};

/// A versioned, self-describing bundle of everything needed to score:
/// the scorer name (registry key), the shared hyperparam block (from
/// which every per-family config and derived seed is rebuilt), the
/// feature dimension, provenance, and the fitted model state.
///
/// Train once, Save, then Load anywhere and get bit-identical
/// predictions — the contract the round-trip tests enforce for every
/// registered scorer at multiple engine thread counts.
class Pipeline {
 public:
  Pipeline(Pipeline&&) = default;
  Pipeline& operator=(Pipeline&&) = default;

  /// Trains a fresh `scorer_name` scorer (resolved through the global
  /// registry) on `train`, calibrating on `calibration` when non-null
  /// (rDRP's Algorithm 4; point methods ignore it).
  static StatusOr<Pipeline> Train(const std::string& scorer_name,
                                  const Hyperparams& hp,
                                  const RctDataset& train,
                                  const RctDataset* calibration,
                                  Provenance provenance);

  /// Point ROI scores. Every scoring entry point below rejects a
  /// feature-dimension mismatch or a non-finite feature with
  /// kInvalidArgument instead of scoring it.
  StatusOr<std::vector<double>> Score(const Matrix& x) const;

  /// MC-dropout mean/std of the predicted ROI over `passes` stochastic
  /// forward passes (direct networks only). Deterministic given `seed`
  /// at any engine setting.
  StatusOr<core::McDropoutStats> ScoreMc(const Matrix& x, int passes,
                                         uint64_t seed) const;

  /// Conformal intervals with coverage >= 1 - alpha (rDRP's Eq. 4):
  /// Intervals(x, PredictRdrp(x)).
  StatusOr<std::vector<metrics::Interval>> ScoreIntervals(
      const Matrix& x) const;

  /// One rDRP inference step: roi_hat, the floored MC std r_hat, the q_hat
  /// snapshot and the calibrated scores (equal to Score(x)), from one
  /// sweep. The uncalibrated roi_hat and r_hat are the Eq. (3) score
  /// ingredients a feedback window recomputes conformal scores from.
  StatusOr<core::RdrpPrediction> PredictRdrp(const Matrix& x) const;

  /// The intervals of `prediction`, which must be PredictRdrp(x), with no
  /// second sweep.
  StatusOr<std::vector<metrics::Interval>> Intervals(
      const Matrix& x, const core::RdrpPrediction& prediction) const;

  /// The input check every scoring entry point runs first: `x` has
  /// feature_dim() columns and every feature is finite. Otherwise
  /// kInvalidArgument naming the mismatch or the first non-finite row and
  /// column.
  Status CheckFeatures(const Matrix& x) const;

  /// Conformal-quantile plumbing for the online recalibrator (rDRP
  /// only): read, or atomically swap, q_hat. Concurrent scoring sees
  /// either the old or the new value, never a torn mix.
  bool has_conformal_quantile() const {
    return scorer().rdrp_model() != nullptr;
  }
  StatusOr<double> conformal_quantile() const;
  Status SetConformalQuantile(double q_hat);

  /// The interval backend behind this pipeline's conformal intervals
  /// (nullptr for point scorers without interval state).
  const core::IntervalBackend* interval_backend() const;

  /// Replaces the interval backend with a `name` backend ("split" /
  /// "weighted" / "cqr") calibrated on `calibration`, and seeds the live
  /// serving quantile with its calibration q_hat. No-op when the backend
  /// already has that name.
  Status RebindIntervalBackend(const std::string& name,
                               const RctDataset& calibration);

  /// Serializes the manifest + model blob ("roicl-pipeline-v2"; the
  /// manifest carries a versioned interval-backend section between the
  /// hyperparams and the model blob).
  Status Save(std::ostream& out) const;
  Status SaveToFile(const std::string& path) const;

  /// Restores an artifact written by Save: version check, manifest parse,
  /// scorer construction through the registry, model load, and a strict
  /// feature-dimension cross-check between manifest and model.
  static StatusOr<Pipeline> Load(std::istream& in);
  static StatusOr<Pipeline> LoadFromFile(const std::string& path);

  /// Re-points the scorer's batched prediction engine (throughput only).
  void set_batch_options(const nn::BatchOptions& opts) {
    scorer_->set_batch_options(opts);
  }

  const RoiScorer& scorer() const { return *scorer_; }
  const std::string& scorer_name() const { return scorer_name_; }
  int feature_dim() const { return feature_dim_; }
  const Hyperparams& hyperparams() const { return hp_; }
  const Provenance& provenance() const { return provenance_; }

 private:
  Pipeline() = default;

  /// The rDRP model, or FailedPrecondition for a point scorer.
  StatusOr<const core::RdrpModel*> Rdrp() const;

  std::string scorer_name_;
  int feature_dim_ = -1;
  Hyperparams hp_;
  Provenance provenance_;
  std::unique_ptr<RoiScorer> scorer_;
};

}  // namespace roicl::pipeline

#endif  // ROICL_PIPELINE_PIPELINE_H_
