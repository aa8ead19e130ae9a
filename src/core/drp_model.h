#ifndef ROICL_CORE_DRP_MODEL_H_
#define ROICL_CORE_DRP_MODEL_H_

#include <istream>
#include <string>

#include "common/status.h"
#include "core/direct_model.h"

namespace roicl::core {

/// DRP hyperparameters: the shared direct network plus its init seed.
struct DrpConfig : DirectNetConfig {
  uint64_t seed = 77;
};

/// The Direct ROI Prediction model (Zhou et al., AAAI 2023): a one-hidden-
/// layer MLP h(x) -> s trained with the convex DRP loss; the predicted ROI
/// is sigmoid(s). Features are standardized internally.
class DrpModel : public DirectRoiModel {
 public:
  explicit DrpModel(const DrpConfig& config)
      : DirectRoiModel("drp", config.predict), config_(config) {}

  void Fit(const RctDataset& train) override;
  std::string name() const override { return "DRP"; }

  /// Restores a model saved by Save(). `config` supplies the runtime
  /// knobs (MC seed etc.); the architecture comes from the stream.
  static StatusOr<DrpModel> Load(std::istream& in,
                                 const DrpConfig& config = DrpConfig());

 private:
  DrpConfig config_;
};

}  // namespace roicl::core

#endif  // ROICL_CORE_DRP_MODEL_H_
