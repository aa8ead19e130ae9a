#ifndef ROICL_CORE_DIRECT_MODEL_H_
#define ROICL_CORE_DIRECT_MODEL_H_

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "common/status.h"
#include "data/scaler.h"
#include "nn/batch_forward.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/trainer.h"
#include "uplift/roi_model.h"

namespace roicl::core {

/// Per-sample Monte-Carlo-dropout statistics of the predicted ROI:
/// `mean[i]` and `stddev[i]` over the stochastic forward passes.
struct McDropoutStats {
  std::vector<double> mean;
  std::vector<double> stddev;
};

/// The network every direct model shares. Defaults follow §IV-D of the
/// paper: one hidden layer of 10-100 units.
struct DirectNetConfig {
  /// Hidden-layer width; <= 0 selects automatically from the training-set
  /// size (small nets for small RCTs — the paper's 10-100 range).
  int hidden_units = 0;
  nn::ActivationKind activation = nn::ActivationKind::kRelu;
  /// Dropout rate of the hidden layer — doubles as the training
  /// regularizer and the MC-dropout source at inference.
  double dropout = 0.2;
  nn::TrainConfig train;
  /// Independent random restarts; the net with the best held-out AUCC
  /// (or, without a hold-out, final training loss) is kept. Neural uplift
  /// losses are noisy and a run occasionally diverges — restarts make the
  /// fit robust, which is exactly the deployment pain the paper's
  /// "insufficient samples" limitation describes.
  int restarts = 3;
  /// Batched prediction-engine knobs (row-block size, thread count) used
  /// by PredictScore, PredictRoi and PredictMcRoi. Affects throughput
  /// only — predictions are bit-identical across settings.
  nn::BatchOptions predict;
};

/// A model that predicts ROI *directly* with a single neural network:
/// DRP, Direct Rank, RankNet and IPW-DRP are this one model — a
/// standardized-input MLP s(x) with roi = sigmoid(s) — trained with
/// different losses. Only direct models support MC dropout uncertainty:
/// TPM cannot, because the std of a ratio is not the ratio of stds (the
/// paper's ablation-study argument, §V-B).
class DirectRoiModel : public uplift::RoiModel {
 public:
  /// sigmoid(s(x)). Ranking losses (DR, RankNet) learn only an order; the
  /// sigmoid maps their score into (0, 1) so downstream tooling treats
  /// every direct model alike.
  std::vector<double> PredictRoi(const Matrix& x) const override;

  /// Raw logits s(x) (PredictRoi is sigmoid of this).
  std::vector<double> PredictScore(const Matrix& x) const;

  /// Runs `passes` stochastic forward passes (dropout active) on the
  /// model's engine options and returns per-sample mean and standard
  /// deviation of the ROI prediction. This is r_hat(x) of Eq. (3).
  /// Deterministic given `seed`: the engine options only select the batch
  /// size and thread count, never the bits of the result (counter-based
  /// per-(sample, pass) RNG streams).
  McDropoutStats PredictMcRoi(const Matrix& x, int passes,
                              uint64_t seed) const;

  bool fitted() const { return net_ != nullptr; }

  /// Feature dimension the model was fitted on (-1 before Fit/Load).
  int feature_dim() const {
    return scaler_.fitted() ? static_cast<int>(scaler_.means().size()) : -1;
  }

  /// Re-points the batched prediction engine (row-block size, thread
  /// count). Throughput knob only — output bits never change.
  void set_predict_options(const nn::BatchOptions& opts) { predict_ = opts; }

  /// Serializes the fitted model (scaler + network, "roicl-<tag>-v1") so
  /// a model trained offline can be deployed without retraining; a
  /// save/load round trip reproduces predictions bit for bit. Requires
  /// fitted() and a model that has a blob tag.
  Status Save(std::ostream& out) const;

 protected:
  /// `blob_tag` names the Save/Load format ("drp" -> "roicl-drp-v1");
  /// nullptr for a model with no saved form.
  DirectRoiModel(const char* blob_tag, const nn::BatchOptions& predict)
      : blob_tag_(blob_tag), predict_(predict) {}

  /// Standardizes the features and trains `config.restarts` networks with
  /// `loss`. Restart r draws its initial weights from
  /// Rng(seed + 7919 r, rng_stream) and seeds its minibatches with
  /// config.train.seed + 104729 r. With patience > 0 and n >= 100 the last
  /// tenth of the rows is held out for early stopping, and the restart
  /// with the best held-out AUCC — the deployment metric, which loss
  /// tracks only loosely — is kept; without a hold-out, the lowest final
  /// training loss wins. A single restart is kept without scoring.
  /// Aborts unless `train` has both arms.
  void FitNetwork(const RctDataset& train, const nn::BatchLoss& loss,
                  const DirectNetConfig& config, uint64_t seed,
                  uint64_t rng_stream);

  /// Restores what Save() wrote; InvalidArgument on a wrong magic or
  /// version, a truncated or non-positive scaler, a corrupt network, or
  /// a scaler/network width mismatch.
  Status LoadNetwork(std::istream& in);

 private:
  const char* blob_tag_;
  nn::BatchOptions predict_;
  StandardScaler scaler_;
  // nullptr until Fit() or LoadNetwork().
  std::unique_ptr<nn::Mlp> net_;
};

}  // namespace roicl::core

#endif  // ROICL_CORE_DIRECT_MODEL_H_
