#ifndef ROICL_UPLIFT_REGRESSOR_H_
#define ROICL_UPLIFT_REGRESSOR_H_

#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"
#include "trees/random_forest.h"

namespace roicl::uplift {

/// Generic supervised regressor — the pluggable base learner used by the
/// S- and X-meta-learners.
class Regressor {
 public:
  virtual ~Regressor() = default;
  virtual void Fit(const Matrix& x, const std::vector<double>& y) = 0;
  virtual std::vector<double> Predict(const Matrix& x) const = 0;

  /// Serialization hooks. Concrete learners that can round-trip their
  /// fitted state override both; the defaults return FailedPrecondition
  /// so unsupported learners fail loudly instead of writing garbage.
  virtual Status Save(std::ostream& /*out*/) const {
    return Status::FailedPrecondition(
        "regressor does not support serialization");
  }
  virtual Status Load(std::istream& /*in*/) {
    return Status::FailedPrecondition(
        "regressor does not support serialization");
  }
};

/// Factory producing fresh base learners (meta-learners need several
/// independent instances).
using RegressorFactory = std::function<std::unique_ptr<Regressor>()>;

/// L2-regularized linear regression via the normal equations.
class RidgeRegressor : public Regressor {
 public:
  explicit RidgeRegressor(double lambda = 1.0) : lambda_(lambda) {}

  void Fit(const Matrix& x, const std::vector<double>& y) override;
  std::vector<double> Predict(const Matrix& x) const override;

 private:
  double lambda_;
  std::vector<double> weights_;  // last entry is the intercept
};

/// Random-forest regressor adapter over trees::RandomForestRegressor.
class ForestRegressor : public Regressor {
 public:
  explicit ForestRegressor(const trees::ForestConfig& config)
      : forest_(config) {}

  void Fit(const Matrix& x, const std::vector<double>& y) override;
  std::vector<double> Predict(const Matrix& x) const override;

  Status Save(std::ostream& out) const override { return forest_.Save(out); }
  Status Load(std::istream& in) override { return forest_.Load(in); }

 private:
  trees::RandomForestRegressor forest_;
};

/// Convenience factories.
RegressorFactory MakeRidgeFactory(double lambda = 1.0);
RegressorFactory MakeForestFactory(const trees::ForestConfig& config);

}  // namespace roicl::uplift

#endif  // ROICL_UPLIFT_REGRESSOR_H_
