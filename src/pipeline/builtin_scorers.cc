#include <memory>
#include <string>
#include <utility>

#include "core/dr_model.h"
#include "core/drp_model.h"
#include "core/rank_net.h"
#include "core/rdrp.h"
#include "pipeline/registry.h"
#include "uplift/causal_forest_cate.h"
#include "uplift/meta_learners.h"
#include "uplift/neural_cate.h"
#include "uplift/tpm.h"

namespace roicl::pipeline {
namespace {

/// TPM family (TPM-SL, TPM-XL, TPM-CF and the four neural CATE variants):
/// a point-only scorer — no MC uncertainty, no intervals, exactly the
/// limitation the paper's ablation isolates.
class TpmScorer : public RoiScorer {
 public:
  TpmScorer(const std::string& display_name,
            uplift::CateModelFactory cate_factory)
      : model_(display_name, std::move(cate_factory)) {}

  void Fit(const RctDataset& train) override { model_.Fit(train); }
  void FitWithCalibration(const RctDataset& train,
                          const RctDataset& calibration) override {
    model_.FitWithCalibration(train, calibration);
  }
  std::vector<double> PredictRoi(const Matrix& x) const override {
    return model_.PredictRoi(x);
  }
  std::string name() const override { return model_.name(); }
  int feature_dim() const override { return model_.feature_dim(); }
  Status SaveModel(std::ostream& out) const override {
    return model_.Save(out);
  }
  Status LoadModel(std::istream& in) override { return model_.Load(in); }

 private:
  uplift::TpmRoiModel model_;
};

/// DR, DRP and RankNet: a direct neural scorer with MC-dropout
/// uncertainty; `seed_offset` picks the family's init seed.
template <typename Model, typename Config>
class DirectScorer : public RoiScorer {
 public:
  DirectScorer(const Hyperparams& hp, uint64_t seed_offset)
      : config_(MakeDirectConfig<Config>(hp, seed_offset)),
        model_(config_) {}

  void Fit(const RctDataset& train) override { model_.Fit(train); }
  std::vector<double> PredictRoi(const Matrix& x) const override {
    return model_.PredictRoi(x);
  }
  std::string name() const override { return model_.name(); }
  int feature_dim() const override { return model_.feature_dim(); }
  const core::DirectRoiModel* direct_model() const override {
    return &model_;
  }

  void set_batch_options(const nn::BatchOptions& opts) override {
    config_.predict = opts;
    model_.set_predict_options(opts);
  }

  Status SaveModel(std::ostream& out) const override {
    return model_.Save(out);
  }
  Status LoadModel(std::istream& in) override {
    StatusOr<Model> loaded = Model::Load(in, config_);
    if (!loaded.ok()) return loaded.status();
    model_ = std::move(loaded).value();
    return Status::Ok();
  }

 private:
  Config config_;
  Model model_;
};

/// rDRP: the paper's contribution — calibrated points, MC uncertainty AND
/// rigorous conformal intervals.
class RdrpScorer : public RoiScorer {
 public:
  explicit RdrpScorer(const Hyperparams& hp)
      : config_(MakeRdrpConfig(hp)), model_(config_) {}

  void Fit(const RctDataset& train) override { model_.Fit(train); }
  void FitWithCalibration(const RctDataset& train,
                          const RctDataset& calibration) override {
    model_.FitWithCalibration(train, calibration);
  }
  std::vector<double> PredictRoi(const Matrix& x) const override {
    return model_.PredictRoi(x);
  }
  std::string name() const override { return model_.name(); }
  int feature_dim() const override { return model_.feature_dim(); }
  const core::DirectRoiModel* direct_model() const override {
    return &model_.drp();
  }
  const core::RdrpModel* rdrp_model() const override { return &model_; }
  core::RdrpModel* rdrp_model() override { return &model_; }

  void set_batch_options(const nn::BatchOptions& opts) override {
    config_.drp.predict = opts;
    model_.set_predict_options(opts);
  }

  Status SaveModel(std::ostream& out) const override {
    return model_.Save(out);
  }
  Status LoadModel(std::istream& in) override {
    StatusOr<core::RdrpModel> loaded = core::RdrpModel::Load(in, config_);
    if (!loaded.ok()) return loaded.status();
    model_ = std::move(loaded).value();
    return Status::Ok();
  }

 private:
  core::RdrpConfig config_;
  core::RdrpModel model_;
};

std::unique_ptr<RoiScorer> MakeTpmNeural(const Hyperparams& hp,
                                         uplift::NeuralCateKind kind,
                                         const std::string& name) {
  return std::make_unique<TpmScorer>(
      name, uplift::MakeNeuralCateFactory(kind, MakeNeuralCateConfig(hp)));
}

}  // namespace

namespace internal {

void RegisterBuiltinScorers(ScorerRegistry* registry) {
  // Table-I row order (exp::kTable1MethodNames); the ScorerRegistry
  // tests check every name, in order, against this registry.
  registry->Register("TPM-SL", [](const Hyperparams& hp) {
    trees::ForestConfig forest = MakeForestConfig(hp);
    return std::make_unique<TpmScorer>("TPM-SL", [forest] {
      return std::make_unique<uplift::SLearner>(
          uplift::MakeForestFactory(forest));
    });
  });
  registry->Register("TPM-XL", [](const Hyperparams& hp) {
    trees::ForestConfig forest = MakeForestConfig(hp);
    return std::make_unique<TpmScorer>("TPM-XL", [forest] {
      return std::make_unique<uplift::XLearner>(
          uplift::MakeForestFactory(forest));
    });
  });
  registry->Register("TPM-CF", [](const Hyperparams& hp) {
    trees::CausalForestConfig cf = MakeCausalForestConfig(hp);
    return std::make_unique<TpmScorer>("TPM-CF", [cf] {
      return std::make_unique<uplift::CausalForestCate>(cf);
    });
  });
  registry->Register("TPM-DragonNet", [](const Hyperparams& hp) {
    return MakeTpmNeural(hp, uplift::NeuralCateKind::kDragonnet,
                         "TPM-DragonNet");
  });
  registry->Register("TPM-TARNet", [](const Hyperparams& hp) {
    return MakeTpmNeural(hp, uplift::NeuralCateKind::kTarnet, "TPM-TARNet");
  });
  registry->Register("TPM-OffsetNet", [](const Hyperparams& hp) {
    return MakeTpmNeural(hp, uplift::NeuralCateKind::kOffsetnet,
                         "TPM-OffsetNet");
  });
  registry->Register("TPM-SNet", [](const Hyperparams& hp) {
    return MakeTpmNeural(hp, uplift::NeuralCateKind::kSnet, "TPM-SNet");
  });
  registry->Register("DR", [](const Hyperparams& hp) {
    return std::make_unique<
        DirectScorer<core::DirectRankModel, core::DirectRankConfig>>(
        hp, /*seed_offset=*/2);
  });
  registry->Register("DRP", [](const Hyperparams& hp) {
    return std::make_unique<DirectScorer<core::DrpModel, core::DrpConfig>>(
        hp, /*seed_offset=*/1);
  });
  registry->Register("rDRP", [](const Hyperparams& hp) {
    return std::make_unique<RdrpScorer>(hp);
  });
  registry->Register("RankNet", [](const Hyperparams& hp) {
    return std::make_unique<
        DirectScorer<core::RankNetModel, core::RankNetConfig>>(
        hp, /*seed_offset=*/11);
  });
}

}  // namespace internal
}  // namespace roicl::pipeline
