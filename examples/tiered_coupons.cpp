// Tiered coupons: multiple treatment levels via divide-and-conquer rDRP —
// the extension the paper sketches in §VI ("Divide and Conquer method can
// be adopted for multiple treatment").
//
// The platform can send users a $2, $5 or $10 coupon (or nothing). Bigger
// coupons cost more and convert better, but with diminishing ROI. The
// K-treatment problem is decomposed into K binary {control, arm k}
// problems, each solved by its own rDRP; the K-arm campaign allocator then
// ranks (user, arm) pairs by calibrated ROI under one shared budget.
//
// Build & run:  ./build/examples/tiered_coupons

#include <cstdio>
#include <limits>
#include <vector>

#include "campaign/karm_allocate.h"
#include "core/multi_treatment.h"
#include "synth/multi_treatment.h"
#include "common/math_util.h"

using namespace roicl;

int main() {
  // Shrink the base cost-effect range so even the $10 tier keeps outcome
  // probabilities valid (the generator checks this).
  synth::SyntheticConfig base = synth::CriteoSynthConfig();
  base.base_cost_rate = 0.15;
  base.tau_c_lo = 0.03;
  base.tau_c_hi = 0.18;
  synth::MultiTreatmentGenerator generator(
      base, {{.cost_scale = 1.0, .roi_shift = 0.05},   // $2 coupon
             {.cost_scale = 2.2, .roi_shift = -0.02},  // $5 coupon
             {.cost_scale = 4.0, .roi_shift = -0.10}}  // $10 coupon
  );

  Rng rng(21);
  synth::MultiTreatmentDataset train =
      generator.Generate(12000, /*shifted=*/false, &rng);
  synth::MultiTreatmentDataset calib =
      generator.Generate(4800, /*shifted=*/false, &rng);
  synth::MultiTreatmentDataset campaign =
      generator.Generate(6000, /*shifted=*/false, &rng);

  core::RdrpConfig config;
  config.drp.train.epochs = 40;
  config.drp.train.learning_rate = 5e-3;
  config.drp.hidden_units = 128;
  core::DivideAndConquerRdrp model(config);
  model.FitWithCalibration(train, calib);

  std::printf("Per-arm rDRP calibration (convergence points):\n");
  const char* kArmNames[] = {"$2", "$5", "$10"};
  for (int arm = 1; arm <= model.num_arms(); ++arm) {
    std::printf("  %-4s coupon: roi* = %.3f, q_hat = %.2f, form %s\n",
                kArmNames[arm - 1], model.arm_model(arm).roi_star(),
                model.arm_model(arm).q_hat(),
                core::CalibrationFormName(
                    model.arm_model(arm).selected_form())
                    .c_str());
  }

  std::vector<std::vector<double>> scores =
      model.PredictRoiPerArm(campaign.x);
  std::vector<std::vector<double>> costs = {campaign.true_tau_c[0],
                                            campaign.true_tau_c[1],
                                            campaign.true_tau_c[2]};
  double all_in_cheapest = 0.0;
  for (double c : costs[0]) all_in_cheapest += c;
  double budget = 0.3 * all_in_cheapest;
  campaign::KArmBudgets budgets;
  budgets.global = budget;
  budgets.per_arm.assign(3, std::numeric_limits<double>::infinity());

  auto realize = [&](const campaign::KArmAllocationResult& alloc,
                     const char* label) {
    double revenue = 0.0;
    std::vector<int> arm_counts(roicl::AsSize(model.num_arms() + 1), 0);
    for (int i = 0; i < campaign.n(); ++i) {
      int arm = alloc.assignment[roicl::AsSize(i)];
      if (arm > 0) {
        revenue += campaign.true_tau_r[roicl::AsSize(arm - 1)][roicl::AsSize(i)];
        arm_counts[roicl::AsSize(arm)]++;
      }
    }
    std::printf("  %-12s spent %7.1f of %7.1f -> incremental revenue %7.2f"
                "  ($2:%d $5:%d $10:%d)\n",
                label, alloc.spent, budget, revenue, arm_counts[1],
                arm_counts[2], arm_counts[3]);
    return revenue;
  };

  std::printf("\nBudgeted allocation over %d users x 3 coupon tiers:\n",
              campaign.n());
  campaign::KArmAllocationResult smart =
      campaign::KArmGreedyReference(scores, costs, budgets);
  double smart_revenue = realize(smart, "rDRP (D&C)");

  Rng noise(22);
  std::vector<std::vector<double>> random_scores(
      3, std::vector<double>(roicl::AsSize(campaign.n())));
  for (auto& arm_scores : random_scores) {
    for (double& s : arm_scores) s = noise.Uniform();
  }
  campaign::KArmAllocationResult random_alloc =
      campaign::KArmGreedyReference(random_scores, costs, budgets);
  double random_revenue = realize(random_alloc, "Random");

  std::printf("\nLift over random tier assignment: %+.1f%%\n",
              (smart_revenue - random_revenue) / random_revenue * 100.0);
  return 0;
}
