#include "core/drp_model.h"

#include "core/drp_loss.h"
#include "obs/trace.h"

namespace roicl::core {

void DrpModel::Fit(const RctDataset& train) {
  obs::ScopedSpan span("drp.fit");
  DrpLoss loss(&train.treatment, &train.y_revenue, &train.y_cost);
  FitNetwork(train, loss, config_, config_.seed, /*rng_stream=*/31);
}

StatusOr<DrpModel> DrpModel::Load(std::istream& in,
                                  const DrpConfig& config) {
  DrpModel model(config);
  if (Status status = model.LoadNetwork(in); !status.ok()) return status;
  return model;
}

}  // namespace roicl::core
