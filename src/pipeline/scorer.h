#ifndef ROICL_PIPELINE_SCORER_H_
#define ROICL_PIPELINE_SCORER_H_

#include <istream>
#include <ostream>

#include "common/status.h"
#include "core/direct_model.h"
#include "core/rdrp.h"
#include "nn/batch_forward.h"
#include "uplift/roi_model.h"

namespace roicl::pipeline {

/// The polymorphic scoring interface every benchmark method is served
/// through: a point ROI estimate (inherited from uplift::RoiModel), typed
/// access to the model behind it, and serialization hooks so a fitted
/// scorer can travel inside a Pipeline artifact.
///
/// The accessors replace per-capability virtuals: a direct network offers
/// MC-dropout uncertainty, and rDRP additionally offers its conformal
/// quantile and intervals. Pipeline reads them and is the one place that
/// checks input features and fitted state, so exp/, the CLI and the
/// serving layer dispatch through the registry with no per-family switch
/// chains.
class RoiScorer : public uplift::RoiModel {
 public:
  /// The direct network (DR, DRP, RankNet, and rDRP's uncalibrated DRP),
  /// or nullptr for the TPM family: the std of a ratio is not the ratio
  /// of stds, so TPM has no MC-dropout uncertainty.
  virtual const core::DirectRoiModel* direct_model() const {
    return nullptr;
  }

  /// The calibrated rDRP model, or nullptr for point scorers. The mutable
  /// overload lets the pipeline swap q_hat and adopt interval backends.
  virtual const core::RdrpModel* rdrp_model() const { return nullptr; }
  virtual core::RdrpModel* rdrp_model() { return nullptr; }

  /// Re-points the batched prediction engine (row-block size, thread
  /// count). Throughput knob only — scores are bit-identical across
  /// settings. Default: no engine to configure (tree/meta families).
  virtual void set_batch_options(const nn::BatchOptions& /*opts*/) {}

  /// Feature dimension the scorer was fitted on, or -1 before Fit/Load.
  virtual int feature_dim() const = 0;

  /// Serializes the fitted model state (no hyperparameters — those live
  /// in the Pipeline manifest). Requires a fitted scorer.
  virtual Status SaveModel(std::ostream& out) const = 0;

  /// Restores state written by SaveModel into this (configured but
  /// unfitted) scorer. Malformed input returns a descriptive Status.
  virtual Status LoadModel(std::istream& in) = 0;
};

}  // namespace roicl::pipeline

#endif  // ROICL_PIPELINE_SCORER_H_
