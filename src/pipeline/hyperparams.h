#ifndef ROICL_PIPELINE_HYPERPARAMS_H_
#define ROICL_PIPELINE_HYPERPARAMS_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"
#include "core/rdrp.h"
#include "trees/causal_forest.h"
#include "trees/random_forest.h"
#include "uplift/neural_cate.h"

namespace roicl::pipeline {

/// One knob block controlling every registered scorer, so all ten
/// benchmark rows are trained under comparable budgets (the paper keeps
/// DRP/rDRP hyperparameters identical for fairness).
///
/// This struct is the portable half of a Pipeline artifact: it is
/// serialized as a single `k=v` line and must be able to reconstruct the
/// exact per-family configs (including every derived seed) so a loaded
/// model reproduces its training-time predictions bit for bit.
struct Hyperparams {
  // Direct neural models (DRP, DR).
  int neural_epochs = 120;
  int batch_size = 256;
  double learning_rate = 5e-3;
  int patience = 12;
  int drp_hidden = 0;  // auto from data size
  double drp_dropout = 0.2;
  int restarts = 3;

  // Neural CATE baselines (TARNet/DragonNet/OffsetNet/SNet).
  int cate_epochs = 20;
  int cate_patience = 4;
  int cate_trunk = 32;
  int cate_head = 16;

  // Tree ensembles.
  int forest_trees = 30;
  int forest_depth = 6;
  int causal_forest_trees = 40;

  // Meta-learner ridge penalty.
  double ridge_lambda = 1.0;

  // rDRP knobs.
  int mc_passes = 30;
  double alpha = 0.1;
  /// Interval backend for conformal scorers: "split" / "weighted" /
  /// "cqr" (core::kIntervalBackendNames). Ignored by scorers without
  /// interval state.
  std::string interval_backend = "split";

  // Batched prediction-engine knobs (throughput only; never the bits).
  int predict_batch_size = 256;
  int predict_threads = 0;

  uint64_t seed = 1234;
};

/// Derived config helpers. Every scorer family derives its full config —
/// architecture, training budget, and seed offsets — from the one shared
/// block through these, so an artifact that stores `Hyperparams` can
/// rebuild identical models.
///
/// A direct model's config (core::DrpConfig, DirectRankConfig or
/// RankNetConfig): the shared network block plus the family's init seed,
/// hp.seed + `seed_offset` (DRP +1, DR +2, RankNet +11).
template <typename Config>
Config MakeDirectConfig(const Hyperparams& hp, uint64_t seed_offset) {
  Config config;
  config.hidden_units = hp.drp_hidden;
  config.dropout = hp.drp_dropout;
  config.train.epochs = hp.neural_epochs;
  config.train.batch_size = hp.batch_size;
  config.train.learning_rate = hp.learning_rate;
  config.train.patience = hp.patience;
  config.train.seed = hp.seed;
  config.restarts = hp.restarts;
  config.seed = hp.seed + seed_offset;
  config.predict.batch_size = hp.predict_batch_size;
  config.predict.num_threads = hp.predict_threads;
  return config;
}
core::RdrpConfig MakeRdrpConfig(const Hyperparams& hp);
uplift::NeuralCateConfig MakeNeuralCateConfig(const Hyperparams& hp);
trees::ForestConfig MakeForestConfig(const Hyperparams& hp);
trees::CausalForestConfig MakeCausalForestConfig(const Hyperparams& hp);

/// Renders `hp` as one `key=value key=value ...` line (doubles at full
/// round-trip precision). Keys are emitted in a fixed order.
std::string SerializeHyperparams(const Hyperparams& hp);

/// Parses a line written by SerializeHyperparams and runs
/// ValidateHyperparams on it. Unknown keys are an error (they signal a
/// newer writer); missing keys keep their defaults, so older artifacts
/// stay loadable when new knobs are added.
StatusOr<Hyperparams> ParseHyperparams(const std::string& line);

/// Range-checks the knobs whose consumers would otherwise abort on them
/// or silently replace them: mc_passes >= 2; drp_dropout in [0, 1);
/// neural_epochs, restarts, cate_epochs, batch_size, predict_batch_size,
/// forest_trees and causal_forest_trees >= 1; drp_hidden >= 0 (0 = auto);
/// learning_rate finite and > 0; predict_threads >= 0; alpha in (0, 1). InvalidArgument names the first knob out of range by its key,
/// or by `names[key]` where given (the CLI passes its flag names).
Status ValidateHyperparams(
    const Hyperparams& hp,
    const std::map<std::string, std::string>& names = {});

}  // namespace roicl::pipeline

#endif  // ROICL_PIPELINE_HYPERPARAMS_H_
