#ifndef ROICL_CORE_IPW_DRP_H_
#define ROICL_CORE_IPW_DRP_H_

#include <memory>
#include <string>

#include "core/direct_model.h"
#include "core/drp_model.h"
#include "uplift/propensity.h"

namespace roicl::core {

/// IPW-DRP: Direct ROI Prediction on OBSERVATIONAL (non-RCT) data —
/// the paper's first future-work item (§VII). DRP's loss assumes random
/// treatment assignment; with confounding, its group means are biased.
/// IPW-DRP first fits a propensity model e(x), then trains the same DRP
/// network with inverse-propensity weights
///   w_i = t_i / e(x_i) + (1 - t_i) / (1 - e(x_i)),
/// which restores the RCT-like stationary point sigma(s*) = tau_r / tau_c
/// in expectation (Horvitz-Thompson re-weighting).
struct IpwDrpConfig {
  DrpConfig drp;
  uplift::PropensityConfig propensity;
};

/// Trains one network (no restarts) and has no saved form.
class IpwDrpModel : public DirectRoiModel {
 public:
  explicit IpwDrpModel(const IpwDrpConfig& config)
      : DirectRoiModel(/*blob_tag=*/nullptr, config.drp.predict),
        config_(config) {}

  /// Fits the propensity model, derives IPW weights, and trains the DRP
  /// network with the weighted loss. `train` need NOT be an RCT.
  void Fit(const RctDataset& train) override;
  std::string name() const override { return "IPW-DRP"; }

  const uplift::PropensityModel& propensity() const { return *propensity_; }

 private:
  IpwDrpConfig config_;
  std::unique_ptr<uplift::PropensityModel> propensity_;
};

}  // namespace roicl::core

#endif  // ROICL_CORE_IPW_DRP_H_
