#include "core/multi_treatment.h"

#include <string>
#include <utility>

#include "common/macros.h"
#include "common/math_util.h"

namespace roicl::core {

void DivideAndConquerRdrp::FitWithCalibration(
    const synth::MultiTreatmentDataset& train,
    const synth::MultiTreatmentDataset& calibration) {
  ROICL_CHECK(train.num_arms() == calibration.num_arms());
  ROICL_CHECK(train.num_arms() >= 1);
  models_.clear();
  for (int arm = 1; arm <= train.num_arms(); ++arm) {
    auto model = std::make_unique<RdrpModel>(ArmConfig(config_, arm));
    model->FitWithCalibration(train.BinarySubproblem(arm),
                              calibration.BinarySubproblem(arm));
    models_.push_back(std::move(model));
  }
}

std::vector<std::vector<double>> DivideAndConquerRdrp::PredictRoiPerArm(
    const Matrix& x) const {
  ROICL_CHECK_MSG(!models_.empty(), "PredictRoiPerArm() before Fit");
  std::vector<std::vector<double>> scores;
  scores.reserve(models_.size());
  for (const auto& model : models_) {
    scores.push_back(model->PredictRoi(x));
  }
  return scores;
}

std::vector<std::vector<metrics::Interval>>
DivideAndConquerRdrp::PredictIntervalsPerArm(const Matrix& x) const {
  ROICL_CHECK_MSG(!models_.empty(), "PredictIntervalsPerArm() before Fit");
  std::vector<std::vector<metrics::Interval>> intervals;
  intervals.reserve(models_.size());
  for (const auto& model : models_) {
    intervals.push_back(model->PredictIntervals(x));
  }
  return intervals;
}

const RdrpModel& DivideAndConquerRdrp::arm_model(int arm) const {
  ROICL_CHECK(arm >= 1 && arm <= num_arms());
  return *models_[AsSize(arm - 1)];
}

RdrpConfig DivideAndConquerRdrp::ArmConfig(const RdrpConfig& base,
                                           int arm) {
  RdrpConfig config = base;
  // Independent streams per arm, deterministic overall.
  config.drp.seed = base.drp.seed + static_cast<uint64_t>(arm) * 101;
  config.drp.train.seed =
      base.drp.train.seed + static_cast<uint64_t>(arm) * 131;
  config.mc_seed = base.mc_seed + static_cast<uint64_t>(arm) * 151;
  return config;
}

namespace {

// v2 added each arm's interval backend ahead of its model blob; a v1
// blob reloads arms without one, which serve split arithmetic whatever
// backend they were calibrated with, so it is rejected.
constexpr char kDncMagic[] = "roicl-dnc-rdrp-v2";

}  // namespace

Status DivideAndConquerRdrp::Save(std::ostream& out) const {
  if (models_.empty()) {
    return Status::FailedPrecondition("divide-and-conquer model not fitted");
  }
  out << kDncMagic << '\n' << models_.size() << '\n';
  for (const auto& model : models_) {
    const IntervalBackend* backend = model->interval_backend();
    if (backend == nullptr) {
      return Status::FailedPrecondition("arm has no interval backend");
    }
    out << backend->name() << '\n';
    if (Status status = backend->Save(out); !status.ok()) return status;
    if (Status status = model->Save(out); !status.ok()) return status;
  }
  return Status::Ok();
}

StatusOr<DivideAndConquerRdrp> DivideAndConquerRdrp::Load(
    std::istream& in, const RdrpConfig& config) {
  std::string magic;
  if (!(in >> magic)) {
    return Status::InvalidArgument(
        "empty or truncated dnc-rdrp model stream");
  }
  if (magic != kDncMagic) {
    if (magic.rfind("roicl-dnc-rdrp-v", 0) == 0) {
      return Status::InvalidArgument(
          "unsupported dnc-rdrp format version '" + magic + "' (expected " +
          kDncMagic + ")");
    }
    return Status::InvalidArgument("bad magic '" + magic + "' (expected " +
                                   kDncMagic + ")");
  }
  size_t num_arms = 0;
  if (!(in >> num_arms) || num_arms == 0 || num_arms > 1000) {
    return Status::InvalidArgument("bad arm count");
  }
  DivideAndConquerRdrp model(config);
  model.models_.reserve(num_arms);
  for (size_t k = 0; k < num_arms; ++k) {
    std::string backend_name;
    if (!(in >> backend_name)) {
      return Status::InvalidArgument("truncated arm interval backend");
    }
    StatusOr<std::unique_ptr<IntervalBackend>> backend =
        MakeIntervalBackend(backend_name);
    if (!backend.ok()) return backend.status();
    if (Status status = backend.value()->Load(in); !status.ok()) {
      return status;
    }
    StatusOr<RdrpModel> arm = RdrpModel::Load(
        in, ArmConfig(config, static_cast<int>(k) + 1));
    if (!arm.ok()) return arm.status();
    if (Status status =
            arm.value().AdoptIntervalBackend(std::move(backend).value());
        !status.ok()) {
      return status;
    }
    model.models_.push_back(
        std::make_unique<RdrpModel>(std::move(arm).value()));
  }
  return model;
}

}  // namespace roicl::core
