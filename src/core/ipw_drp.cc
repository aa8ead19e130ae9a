#include "core/ipw_drp.h"

#include <vector>

#include "common/macros.h"
#include "core/drp_loss.h"

namespace roicl::core {

void IpwDrpModel::Fit(const RctDataset& train) {
  train.Validate();
  ROICL_CHECK_MSG(train.NumTreated() > 0 && train.NumControl() > 0,
                  "IPW-DRP requires both treatment groups");

  // Stage 1: propensity model on the raw features.
  propensity_ =
      std::make_unique<uplift::PropensityModel>(config_.propensity);
  propensity_->Fit(train.x, train.treatment);
  std::vector<double> weights =
      propensity_->InverseWeights(train.x, train.treatment);

  // Stage 2: weighted DRP, a single run.
  DrpLoss loss(&train.treatment, &train.y_revenue, &train.y_cost,
               &weights);
  DirectNetConfig single_run = config_.drp;
  single_run.restarts = 1;
  FitNetwork(train, loss, single_run, config_.drp.seed, /*rng_stream=*/59);
}

}  // namespace roicl::core
