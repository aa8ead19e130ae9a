#ifndef ROICL_EXP_METHODS_H_
#define ROICL_EXP_METHODS_H_

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pipeline/hyperparams.h"
#include "pipeline/registry.h"
#include "uplift/neural_cate.h"
#include "uplift/roi_model.h"

namespace roicl::exp {

/// A named benchmark method (one row of Table I).
struct MethodSpec {
  std::string name;
  std::function<std::unique_ptr<uplift::RoiModel>()> factory;
};

/// The shared hyperparam block now lives in the pipeline layer (it is
/// half of every saved artifact); exp keeps the historical names as
/// aliases so experiment and bench code reads unchanged.
using MethodHyperparams = pipeline::Hyperparams;

inline core::DrpConfig MakeDrpConfig(const MethodHyperparams& hp) {
  return pipeline::MakeDirectConfig<core::DrpConfig>(hp, /*seed_offset=*/1);
}
inline core::RdrpConfig MakeRdrpConfig(const MethodHyperparams& hp) {
  return pipeline::MakeRdrpConfig(hp);
}
inline uplift::NeuralCateConfig MakeNeuralCateConfig(
    const MethodHyperparams& hp) {
  return pipeline::MakeNeuralCateConfig(hp);
}
inline trees::ForestConfig MakeForestConfig(const MethodHyperparams& hp) {
  return pipeline::MakeForestConfig(hp);
}
inline trees::CausalForestConfig MakeCausalForestConfig(
    const MethodHyperparams& hp) {
  return pipeline::MakeCausalForestConfig(hp);
}

/// The ten Table-I method names in the paper's row order, plus the
/// ranking-objective extension row (RankNet, per "Metalearners for
/// Ranking Treatment Effects"). This array is the single source of truth
/// for the row order: pipeline_roundtrip_test checks that it equals
/// pipeline::ScorerRegistry's roster and that every entry constructs.
inline constexpr std::array<const char*, 11> kTable1MethodNames = {
    "TPM-SL",     "TPM-XL",        "TPM-CF", "TPM-DragonNet",
    "TPM-TARNet", "TPM-OffsetNet", "TPM-SNet", "DR",
    "DRP",        "rDRP",          "RankNet"};

/// One MethodSpec whose factory builds `name` through the global scorer
/// registry. CHECK-fails on an unregistered name (benchmark tables are
/// static; user-facing lookups go through the registry's StatusOr API).
MethodSpec RegistryMethod(const std::string& name,
                          const MethodHyperparams& hp);

/// The ten Table-I methods in the paper's row order, all dispatched
/// through the registry.
std::vector<MethodSpec> Table1Methods(const MethodHyperparams& hp);

/// Individual factories (used by the ablation and A/B benches). Both are
/// registry lookups — no per-family construction chains live here.
MethodSpec DrpMethod(const MethodHyperparams& hp);
MethodSpec RdrpMethod(const MethodHyperparams& hp);

}  // namespace roicl::exp

#endif  // ROICL_EXP_METHODS_H_
