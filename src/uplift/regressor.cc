#include "uplift/regressor.h"

#include <utility>

#include "common/macros.h"
#include "common/math_util.h"
#include "linalg/solve.h"

namespace roicl::uplift {

void RidgeRegressor::Fit(const Matrix& x, const std::vector<double>& y) {
  StatusOr<std::vector<double>> solved =
      SolveRidge(x, y, lambda_, /*fit_intercept=*/true);
  ROICL_CHECK_MSG(solved.ok(), "ridge solve failed: %s",
                  solved.status().message().c_str());
  weights_ = std::move(solved).value();
}

std::vector<double> RidgeRegressor::Predict(const Matrix& x) const {
  ROICL_CHECK_MSG(!weights_.empty(), "Predict() before Fit()");
  ROICL_CHECK(x.cols() + 1 == static_cast<int>(weights_.size()));
  std::vector<double> out(AsSize(x.rows()));
  double intercept = weights_.back();
  for (int r = 0; r < x.rows(); ++r) {
    const double* row = x.RowPtr(r);
    double acc = intercept;
    for (int c = 0; c < x.cols(); ++c) acc += row[c] * weights_[AsSize(c)];
    out[AsSize(r)] = acc;
  }
  return out;
}

void ForestRegressor::Fit(const Matrix& x, const std::vector<double>& y) {
  forest_.Fit(x, y);
}

std::vector<double> ForestRegressor::Predict(const Matrix& x) const {
  return forest_.Predict(x);
}

RegressorFactory MakeRidgeFactory(double lambda) {
  return [lambda] { return std::make_unique<RidgeRegressor>(lambda); };
}

RegressorFactory MakeForestFactory(const trees::ForestConfig& config) {
  return [config] { return std::make_unique<ForestRegressor>(config); };
}

}  // namespace roicl::uplift
