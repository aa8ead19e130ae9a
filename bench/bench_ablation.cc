// Design-choice ablations beyond the paper's own tables (DESIGN.md §5):
//   1. MC-dropout pass count: AUCC and interval-width stability.
//   2. Error rate alpha: empirical coverage vs mean interval width —
//      including the §VI caveat that width need not scale with alpha.
//   3. Calibration form: each fixed form (5a/5b/5c/none) vs auto-select.
//   4. Calibration-set size: conformal coverage degradation.
//   5. Global vs score-binned roi* (our extension).
//
// All runs use the CRITEO preset under the InCo setting — where rDRP's
// machinery matters most.
//
// Set ROICL_FAST=1 for a quick smoke run.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/math_util.h"
#include "core/conformal.h"
#include "core/rdrp.h"
#include "core/roi_star.h"
#include "data/split.h"
#include "exp/datasets.h"
#include "exp/table.h"
#include "metrics/cost_curve.h"
#include "metrics/coverage.h"

using namespace roicl;

namespace {

struct Env {
  DatasetSplits splits;
  core::RdrpConfig base_config;
};

Env MakeEnv() {
  Env env;
  synth::SyntheticGenerator generator =
      exp::MakeGenerator(exp::DatasetId::kCriteo);
  env.splits = exp::BuildSplits(generator, exp::Setting::kInCo,
                                bench::BenchSizes(), /*seed=*/31);
  env.base_config = exp::MakeRdrpConfig(bench::BenchHyperparams());
  return env;
}

double CoverageOf(const core::RdrpModel& model, const RctDataset& test) {
  std::vector<metrics::Interval> intervals = model.PredictIntervals(test.x);
  double roi_star_test = core::BinarySearchRoiStar(test);
  std::vector<double> targets(intervals.size(), roi_star_test);
  return metrics::EvaluateCoverage(intervals, targets).coverage;
}

double MeanWidth(const core::RdrpModel& model, const RctDataset& test) {
  std::vector<metrics::Interval> intervals = model.PredictIntervals(test.x);
  double acc = 0.0;
  for (const auto& interval : intervals) acc += interval.width();
  return acc / static_cast<double>(intervals.size());
}

void SweepMcPasses(const Env& env) {
  std::printf("\n-- Ablation 1: MC-dropout passes (paper uses 10-100) --\n");
  exp::TextTable table({"passes", "test AUCC", "coverage", "mean width"});
  for (int passes : {5, 10, 30, 100}) {
    core::RdrpConfig config = env.base_config;
    config.mc_passes = passes;
    core::RdrpModel model(config);
    model.FitWithCalibration(env.splits.train, env.splits.calibration);
    table.AddRow({std::to_string(passes),
                  exp::TextTable::Num(metrics::Aucc(
                      model.PredictRoi(env.splits.test.x), env.splits.test)),
                  exp::TextTable::Num(CoverageOf(model, env.splits.test)),
                  exp::TextTable::Num(MeanWidth(model, env.splits.test))});
  }
  table.Print();
}

void SweepAlpha(const Env& env) {
  std::printf(
      "\n-- Ablation 2: error rate alpha (coverage target = 1 - alpha) "
      "--\n");
  exp::TextTable table({"alpha", "q_hat", "coverage", "mean width"});
  for (double alpha : {0.05, 0.1, 0.2, 0.3, 0.5}) {
    core::RdrpConfig config = env.base_config;
    config.alpha = alpha;
    core::RdrpModel model(config);
    model.FitWithCalibration(env.splits.train, env.splits.calibration);
    table.AddRow({exp::TextTable::Num(alpha, 2),
                  exp::TextTable::Num(model.q_hat(), 3),
                  exp::TextTable::Num(CoverageOf(model, env.splits.test)),
                  exp::TextTable::Num(MeanWidth(model, env.splits.test))});
  }
  table.Print();
  std::printf(
      "   (SS VI caveat: width scales with q_hat, which need not be "
      "proportional to alpha)\n");
}

void SweepForms(const Env& env) {
  std::printf(
      "\n-- Ablation 3: fixed calibration form vs auto-select "
      "(Algorithm 4 line 8) --\n");
  // Unclipped intervals so rq = r_hat * q_hat can be recovered exactly
  // from the interval half-width.
  core::RdrpConfig raw_config = env.base_config;
  raw_config.clip_to_unit = false;
  core::RdrpModel model(raw_config);
  model.FitWithCalibration(env.splits.train, env.splits.calibration);

  // Recompute each fixed form on the test set using the fitted model's
  // internals.
  std::vector<double> roi_hat =
      model.drp().PredictRoi(env.splits.test.x);
  std::vector<metrics::Interval> intervals =
      model.PredictIntervals(env.splits.test.x);
  std::vector<double> rq(roi_hat.size());
  for (size_t i = 0; i < rq.size(); ++i) {
    rq[i] = 0.5 * intervals[i].width();  // r_hat * q_hat
  }
  exp::TextTable table({"form", "test AUCC"});
  for (core::CalibrationForm form : core::AllCalibrationForms()) {
    std::vector<double> scores =
        core::ApplyCalibrationForm(form, roi_hat, rq);
    table.AddRow({core::CalibrationFormName(form),
                  exp::TextTable::Num(
                      metrics::Aucc(scores, env.splits.test))});
  }
  table.AddRow({"auto (" +
                    core::CalibrationFormName(model.selected_form()) + ")",
                exp::TextTable::Num(metrics::Aucc(
                    model.PredictRoi(env.splits.test.x), env.splits.test))});
  table.Print();
}

void SweepCalibrationSize(const Env& env) {
  std::printf("\n-- Ablation 4: calibration-set size --\n");
  exp::TextTable table({"n_calib", "q_hat", "coverage", "test AUCC"});
  Rng rng(5);
  for (int n : {100, 300, 1000, 3000}) {
    if (n > env.splits.calibration.n()) break;
    RctDataset calib = env.splits.calibration.Subset(
        rng.SampleWithoutReplacement(env.splits.calibration.n(), n));
    core::RdrpModel model(env.base_config);
    model.FitWithCalibration(env.splits.train, calib);
    table.AddRow({std::to_string(n),
                  exp::TextTable::Num(model.q_hat(), 3),
                  exp::TextTable::Num(CoverageOf(model, env.splits.test)),
                  exp::TextTable::Num(metrics::Aucc(
                      model.PredictRoi(env.splits.test.x),
                      env.splits.test))});
  }
  table.Print();
}

void SweepRoiStarBinning(const Env& env) {
  std::printf(
      "\n-- Ablation 5: global roi* (paper) vs score-binned roi* "
      "(extension) --\n");
  exp::TextTable table({"roi* variant", "test AUCC", "coverage"});
  for (bool binned : {false, true}) {
    core::RdrpConfig config = env.base_config;
    config.binned_roi_star = binned;
    config.roi_star_bins = 8;
    core::RdrpModel model(config);
    model.FitWithCalibration(env.splits.train, env.splits.calibration);
    table.AddRow({binned ? "binned (8 bins)" : "global",
                  exp::TextTable::Num(metrics::Aucc(
                      model.PredictRoi(env.splits.test.x), env.splits.test)),
                  exp::TextTable::Num(CoverageOf(model, env.splits.test))});
  }
  table.Print();
}

}  // namespace

int main() {
  std::printf("Design-choice ablations (CRITEO preset, InCo setting)%s\n",
              bench::FastMode() ? " (FAST mode)" : "");
  Env env = MakeEnv();
  SweepMcPasses(env);
  SweepAlpha(env);
  SweepForms(env);
  SweepCalibrationSize(env);
  SweepRoiStarBinning(env);
  return 0;
}
