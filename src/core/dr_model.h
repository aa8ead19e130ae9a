#ifndef ROICL_CORE_DR_MODEL_H_
#define ROICL_CORE_DR_MODEL_H_

#include <istream>
#include <string>

#include "common/status.h"
#include "core/direct_model.h"

namespace roicl::core {

/// Direct Rank hyperparameters (same network shape as DRP for the fair
/// comparison the paper runs).
struct DirectRankConfig : DirectNetConfig {
  /// Floor for the incremental-cost denominator inside the loss.
  double cost_floor = 1e-3;
  uint64_t seed = 78;
};

/// The Direct Rank (DR) baseline of Du, Lee & Ghaffarizadeh (2019):
/// a network score s(x) is softmax-weighted within each mini-batch and
/// trained to maximize the softmax-weighted revenue lift divided by the
/// softmax-weighted cost lift. The loss is NOT convex — Zhou et al.
/// (Appendix E) show its optimum need not recover the true ROI ranking,
/// which is exactly why the rDRP paper keeps it as the second-best direct
/// method.
class DirectRankModel : public DirectRoiModel {
 public:
  explicit DirectRankModel(const DirectRankConfig& config)
      : DirectRoiModel("dr", config.predict), config_(config) {}

  void Fit(const RctDataset& train) override;
  std::string name() const override { return "DR"; }

  /// Restores a model saved by Save() ("roicl-dr-v1"). `config` supplies
  /// runtime knobs; the architecture comes from the stream.
  static StatusOr<DirectRankModel> Load(
      std::istream& in, const DirectRankConfig& config = DirectRankConfig());

 private:
  DirectRankConfig config_;
};

}  // namespace roicl::core

#endif  // ROICL_CORE_DR_MODEL_H_
