#include "core/dr_model.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/macros.h"
#include "common/math_util.h"

namespace roicl::core {
namespace {

/// Softmax-weighted ROI surrogate (Du et al. 2019).
///
/// Within a batch: p = softmax(s); per-sample sign-and-scale coefficients
/// g_i = +n/n1 (treated) or -n/n0 (control) turn the weighted sums
///   R = sum_i g_i * y_r_i * p_i,  C = sum_i g_i * y_c_i * p_i
/// into soft estimates of the incremental revenue/cost captured by the
/// ranking. Loss = -R / max(C, floor). The softmax Jacobian gives
///   dR/ds_k = p_k (c_k - R),  c_k = g_k y_r_k (and likewise for C).
class DirectRankLoss : public nn::BatchLoss {
 public:
  DirectRankLoss(const std::vector<int>* treatment,
                 const std::vector<double>* y_revenue,
                 const std::vector<double>* y_cost, double cost_floor)
      : treatment_(treatment),
        y_revenue_(y_revenue),
        y_cost_(y_cost),
        cost_floor_(cost_floor) {}

  double Compute(const Matrix& preds, const std::vector<int>& index,
                 Matrix* grad) const override {
    ROICL_CHECK(grad != nullptr);
    ROICL_CHECK(preds.cols() == 1);
    int n = preds.rows();
    *grad = Matrix(n, 1);

    int n1 = 0, n0 = 0;
    for (int i = 0; i < n; ++i) {
      ((*treatment_)[AsSize(index[AsSize(i)])] == 1 ? n1 : n0)++;
    }
    if (n1 == 0 || n0 == 0) return 0.0;  // degenerate batch: skip

    // Stable softmax over the batch.
    double max_s = preds(0, 0);
    for (int i = 1; i < n; ++i) max_s = std::max(max_s, preds(i, 0));
    std::vector<double> p(AsSize(n));
    double z = 0.0;
    for (int i = 0; i < n; ++i) {
      p[AsSize(i)] = std::exp(preds(i, 0) - max_s);
      z += p[AsSize(i)];
    }
    for (double& v : p) v /= z;

    std::vector<double> c(AsSize(n)), d(AsSize(n));
    double r_val = 0.0, c_val = 0.0;
    for (int i = 0; i < n; ++i) {
      const size_t si = AsSize(i);
      const size_t row = AsSize(index[si]);
      double g = (*treatment_)[row] == 1
                     ? static_cast<double>(n) / n1
                     : -static_cast<double>(n) / n0;
      c[si] = g * (*y_revenue_)[row];
      d[si] = g * (*y_cost_)[row];
      r_val += c[si] * p[si];
      c_val += d[si] * p[si];
    }
    bool clipped = c_val <= cost_floor_;
    double c_safe = std::max(c_val, cost_floor_);
    double loss = -r_val / c_safe;
    for (int k = 0; k < n; ++k) {
      const size_t sk = AsSize(k);
      double dr = p[sk] * (c[sk] - r_val);
      double dc = clipped ? 0.0 : p[sk] * (d[sk] - c_val);
      (*grad)(k, 0) = -(dr * c_safe - r_val * dc) / (c_safe * c_safe);
    }
    return loss;
  }

 private:
  const std::vector<int>* treatment_;
  const std::vector<double>* y_revenue_;
  const std::vector<double>* y_cost_;
  double cost_floor_;
};

}  // namespace

void DirectRankModel::Fit(const RctDataset& train) {
  DirectRankLoss loss(&train.treatment, &train.y_revenue, &train.y_cost,
                      config_.cost_floor);
  FitNetwork(train, loss, config_, config_.seed, /*rng_stream=*/37);
}

StatusOr<DirectRankModel> DirectRankModel::Load(
    std::istream& in, const DirectRankConfig& config) {
  DirectRankModel model(config);
  if (Status status = model.LoadNetwork(in); !status.ok()) return status;
  return model;
}

}  // namespace roicl::core
