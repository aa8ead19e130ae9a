#include "exp/ablation.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/macros.h"
#include "core/calibration.h"
#include "core/conformal.h"
#include "core/roi_star.h"
#include "exp/methods.h"
#include "metrics/cost_curve.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "pipeline/registry.h"

namespace roicl::exp {
namespace {

/// Builds a named scorer through the registry; the ablation table is
/// static, so a missing registration is a programming error.
std::unique_ptr<pipeline::RoiScorer> CreateScorer(
    const std::string& name, const MethodHyperparams& hp) {
  StatusOr<std::unique_ptr<pipeline::RoiScorer>> scorer =
      pipeline::ScorerRegistry::Global().Create(name, hp);
  ROICL_CHECK_MSG(scorer.ok(), "scorer '%s' unavailable: %s", name.c_str(),
                  scorer.status().message().c_str());
  return std::move(scorer).value();
}

/// MC-form calibration shared by the "w/ MC" and "w/ MC w/ CP" variants:
/// select the best Eq. 5a-5c form on the calibration set with the given
/// q_hat, then apply it to the test set.
double EvaluateCalibrated(const std::vector<double>& roi_calib,
                          const std::vector<double>& std_calib,
                          const std::vector<double>& roi_test,
                          const std::vector<double>& std_test, double q_hat,
                          const RctDataset& calib, const RctDataset& test,
                          double std_floor) {
  std::vector<double> rq_calib(std_calib.size());
  std::vector<double> rq_test(std_test.size());
  for (size_t i = 0; i < std_calib.size(); ++i) {
    rq_calib[i] = std::max(std_calib[i], std_floor) * q_hat;
  }
  for (size_t i = 0; i < std_test.size(); ++i) {
    rq_test[i] = std::max(std_test[i], std_floor) * q_hat;
  }
  core::CalibrationForm form =
      core::SelectCalibrationForm(roi_calib, rq_calib, calib);
  return metrics::Aucc(core::ApplyCalibrationForm(form, roi_test, rq_test),
                       test);
}

}  // namespace

AblationRow RunAblationSetting(DatasetId dataset, Setting setting,
                               const MethodHyperparams& hp,
                               const SplitSizes& sizes, uint64_t seed) {
  obs::ScopedSpan span("exp.ablation_setting",
                       DatasetName(dataset) + "/" + SettingName(setting));
  synth::SyntheticGenerator generator = MakeGenerator(dataset);
  DatasetSplits splits = BuildSplits(generator, setting, sizes, seed);
  const RctDataset& calib = splits.calibration;
  const RctDataset& test = splits.test;
  constexpr double kStdFloor = 1e-4;

  AblationRow row;
  row.dataset = dataset;
  row.setting = setting;

  // ---- DR branch: train once, reuse for DR and DR w/ MC. ----
  std::unique_ptr<pipeline::RoiScorer> dr = CreateScorer("DR", hp);
  dr->Fit(splits.train);
  std::vector<double> dr_test = dr->PredictRoi(test.x);
  row.dr = metrics::Aucc(dr_test, test);
  {
    std::vector<double> dr_calib = dr->PredictRoi(calib.x);
    core::McDropoutStats mc_calib =
        dr->direct_model()->PredictMcRoi(calib.x, hp.mc_passes, hp.seed + 11);
    core::McDropoutStats mc_test =
        dr->direct_model()->PredictMcRoi(test.x, hp.mc_passes, hp.seed + 12);
    // q_hat = 1: MC only, no conformal scaling (DR's non-convex loss
    // rules out the Algorithm-2 convergence point, per §V-B).
    row.dr_mc = EvaluateCalibrated(dr_calib, mc_calib.stddev, dr_test,
                                   mc_test.stddev, /*q_hat=*/1.0, calib,
                                   test, kStdFloor);
  }

  // ---- DRP branch: train once, reuse for DRP, w/ MC, w/ MC w/ CP. ----
  std::unique_ptr<pipeline::RoiScorer> drp = CreateScorer("DRP", hp);
  drp->Fit(splits.train);
  std::vector<double> drp_test = drp->PredictRoi(test.x);
  row.drp = metrics::Aucc(drp_test, test);

  std::vector<double> drp_calib = drp->PredictRoi(calib.x);
  core::McDropoutStats mc_calib =
      drp->direct_model()->PredictMcRoi(calib.x, hp.mc_passes, hp.seed + 13);
  core::McDropoutStats mc_test =
      drp->direct_model()->PredictMcRoi(test.x, hp.mc_passes, hp.seed + 14);

  row.drp_mc = EvaluateCalibrated(drp_calib, mc_calib.stddev, drp_test,
                                  mc_test.stddev, /*q_hat=*/1.0, calib,
                                  test, kStdFloor);

  // Conformal quantile from the calibration set (Algorithms 2 + 3).
  double roi_star = core::BinarySearchRoiStar(calib);
  std::vector<double> scores =
      core::ConformalScores(roi_star, drp_calib, mc_calib.stddev, kStdFloor);
  double q_hat = core::ConformalScoreQuantile(scores, hp.alpha);
  if (!std::isfinite(q_hat)) {
    q_hat = *std::max_element(scores.begin(), scores.end());
  }
  row.drp_mc_cp = EvaluateCalibrated(drp_calib, mc_calib.stddev, drp_test,
                                     mc_test.stddev, q_hat, calib, test,
                                     kStdFloor);
  return row;
}

std::vector<AblationRow> RunAblationSweep(const MethodHyperparams& hp,
                                          const SplitSizes& sizes,
                                          uint64_t seed, bool verbose) {
  std::vector<AblationRow> rows;
  for (DatasetId dataset : AllDatasets()) {
    for (Setting setting : AllSettings()) {
      rows.push_back(
          RunAblationSetting(dataset, setting, hp, sizes, seed));
      if (verbose) {
        const AblationRow& r = rows.back();
        obs::Info("ablation setting done",
                  {{"dataset", DatasetName(dataset)},
                   {"setting", SettingName(setting)},
                   {"dr", r.dr},
                   {"dr_mc", r.dr_mc},
                   {"drp", r.drp},
                   {"drp_mc", r.drp_mc},
                   {"drp_mc_cp", r.drp_mc_cp}});
      }
    }
  }
  return rows;
}

}  // namespace roicl::exp
