#ifndef ROICL_CORE_RANK_NET_H_
#define ROICL_CORE_RANK_NET_H_

#include <istream>
#include <string>

#include "common/status.h"
#include "core/direct_model.h"

namespace roicl::core {

/// RankNet hyperparameters (same network shape as DRP/DR so the eleventh
/// Table-I row trains under a comparable budget).
struct RankNetConfig : DirectNetConfig {
  uint64_t seed = 91;
};

/// Ranking-objective ROI scorer ("Metalearners for Ranking Treatment
/// Effects", Vanderschueren et al.): since Algorithm 1 consumes only the
/// ROI *ranking*, train the score s(x) directly on a pairwise
/// RankNet-style logistic loss instead of an ROI regression.
///
/// Within a mini-batch, transformed outcomes z_r = g*y_r and z_c = g*y_c
/// (g = +n/n1 treated, -n/n0 control) are unbiased single-sample
/// estimates of tau_r(x) and tau_c(x). For independent rows i != j the
/// cross product z_r_i * z_c_j is an unbiased estimate of
/// tau_r_i * tau_c_j, so
///   w_ij = z_r_i * z_c_j - z_r_j * z_c_i
/// estimates tau_r_i*tau_c_j - tau_r_j*tau_c_i, whose sign is the true
/// ROI comparison roi_i > roi_j whenever costs are positive (Assumption
/// 4). The loss is the weighted pairwise logistic
///   L = (1/P) sum_{i<j} |w_ij| * softplus(-sign(w_ij) * (s_i - s_j)),
/// a Burges-style RankNet objective with noisy-but-unbiased preference
/// directions — no ratio, no cost floor, no ROI regression target.
class RankNetModel : public DirectRoiModel {
 public:
  explicit RankNetModel(const RankNetConfig& config)
      : DirectRoiModel("ranknet", config.predict), config_(config) {}

  void Fit(const RctDataset& train) override;
  std::string name() const override { return "RankNet"; }

  /// Restores a model saved by Save() ("roicl-ranknet-v1").
  static StatusOr<RankNetModel> Load(
      std::istream& in, const RankNetConfig& config = RankNetConfig());

 private:
  RankNetConfig config_;
};

}  // namespace roicl::core

#endif  // ROICL_CORE_RANK_NET_H_
