#include "core/rank_net.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "common/math_util.h"

namespace roicl::core {
namespace {

/// Numerically stable softplus(x) = log(1 + exp(x)).
double Softplus(double x) {
  return std::log1p(std::exp(-std::fabs(x))) + std::max(x, 0.0);
}

/// Pairwise transformed-outcome ranking loss (see rank_net.h). O(n^2) in
/// the batch size; binary outcomes make most weights w_ij exactly zero,
/// and zero-weight pairs are skipped.
class PairwiseRoiRankLoss : public nn::BatchLoss {
 public:
  PairwiseRoiRankLoss(const std::vector<int>* treatment,
                      const std::vector<double>* y_revenue,
                      const std::vector<double>* y_cost)
      : treatment_(treatment), y_revenue_(y_revenue), y_cost_(y_cost) {}

  double Compute(const Matrix& preds, const std::vector<int>& index,
                 Matrix* grad) const override {
    ROICL_CHECK(grad != nullptr);
    ROICL_CHECK(preds.cols() == 1);
    const int n = preds.rows();
    *grad = Matrix(n, 1);

    int n1 = 0, n0 = 0;
    for (int i = 0; i < n; ++i) {
      ((*treatment_)[AsSize(index[AsSize(i)])] == 1 ? n1 : n0)++;
    }
    if (n1 == 0 || n0 == 0) return 0.0;  // degenerate batch: skip

    // Transformed outcomes per batch row.
    std::vector<double> zr(AsSize(n)), zc(AsSize(n));
    for (int i = 0; i < n; ++i) {
      const size_t si = AsSize(i);
      const size_t row = AsSize(index[si]);
      double g = (*treatment_)[row] == 1 ? static_cast<double>(n) / n1
                                         : -static_cast<double>(n) / n0;
      zr[si] = g * (*y_revenue_)[row];
      zc[si] = g * (*y_cost_)[row];
    }

    double loss = 0.0;
    int64_t pairs = 0;
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        const size_t si = AsSize(i), sj = AsSize(j);
        double w = zr[si] * zc[sj] - zr[sj] * zc[si];
        if (w == 0.0) continue;
        double sign = w > 0.0 ? 1.0 : -1.0;
        double mag = std::fabs(w);
        double margin = sign * (preds(i, 0) - preds(j, 0));
        loss += mag * Softplus(-margin);
        // d softplus(-m)/dm = -sigmoid(-m).
        double d = -mag * sign * Sigmoid(-margin);
        (*grad)(i, 0) += d;
        (*grad)(j, 0) -= d;
        ++pairs;
      }
    }
    if (pairs == 0) return 0.0;
    double inv = 1.0 / static_cast<double>(pairs);
    for (int i = 0; i < n; ++i) (*grad)(i, 0) *= inv;
    return loss * inv;
  }

 private:
  const std::vector<int>* treatment_;
  const std::vector<double>* y_revenue_;
  const std::vector<double>* y_cost_;
};

}  // namespace

void RankNetModel::Fit(const RctDataset& train) {
  PairwiseRoiRankLoss loss(&train.treatment, &train.y_revenue,
                           &train.y_cost);
  FitNetwork(train, loss, config_, config_.seed, /*rng_stream=*/53);
}

StatusOr<RankNetModel> RankNetModel::Load(std::istream& in,
                                          const RankNetConfig& config) {
  RankNetModel model(config);
  if (Status status = model.LoadNetwork(in); !status.ok()) return status;
  return model;
}

}  // namespace roicl::core
