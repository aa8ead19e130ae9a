#include "nn/dense.h"

#include <cmath>

#include "common/macros.h"
#include "common/math_util.h"

namespace roicl::nn {

Dense::Dense(int in_features, int out_features, Init init, Rng* rng) {
  ROICL_CHECK(in_features > 0 && out_features > 0);
  weights_ = Matrix(in_features, out_features);
  bias_ = Matrix(1, out_features);
  grad_weights_ = Matrix(in_features, out_features);
  grad_bias_ = Matrix(1, out_features);

  if (init != Init::kZero) {
    ROICL_CHECK(rng != nullptr);
    if (init == Init::kXavier) {
      double bound = std::sqrt(6.0 / (in_features + out_features));
      for (double& w : weights_.data()) w = rng->Uniform(-bound, bound);
    } else {  // He
      double stddev = std::sqrt(2.0 / in_features);
      for (double& w : weights_.data()) w = rng->Normal(0.0, stddev);
    }
  }
}

Matrix Dense::Forward(const Matrix& input, Mode mode, Rng* /*rng*/) {
  if (mode == Mode::kTrain) cached_input_ = input;
  Matrix out;
  ForwardRowsInto(input, Mode::kInfer, nullptr, &out);
  return out;
}

void Dense::ForwardRowsInto(const Matrix& input, Mode /*mode*/,
                            RowRngs* /*row_rngs*/, Matrix* out) {
  ROICL_CHECK(input.cols() == weights_.rows());
  ROICL_CHECK(out != &input);
  ShapeOutput(input.rows(), weights_.cols(), out);
  MatmulInto(input, weights_, out);
  const double* b = bias_.RowPtr(0);
  for (int r = 0; r < out->rows(); ++r) {
    double* row = out->RowPtr(r);
    for (int c = 0; c < out->cols(); ++c) row[c] += b[c];
  }
}

Matrix Dense::Backward(const Matrix& grad_output) {
  ROICL_CHECK_MSG(cached_input_.rows() == grad_output.rows(),
                  "Backward without matching Forward(kTrain)");
  // dW += X^T g ; db += colsum(g) ; dX = g W^T.
  grad_weights_ += Matmul(cached_input_.Transposed(), grad_output);
  std::vector<double> col_sums = ColumnSums(grad_output);
  for (int c = 0; c < grad_bias_.cols(); ++c) {
    grad_bias_(0, c) += col_sums[AsSize(c)];
  }
  return Matmul(grad_output, weights_.Transposed());
}

std::unique_ptr<Layer> Dense::Clone() const {
  auto copy = std::unique_ptr<Dense>(new Dense());
  copy->weights_ = weights_;
  copy->bias_ = bias_;
  copy->grad_weights_ = Matrix(weights_.rows(), weights_.cols());
  copy->grad_bias_ = Matrix(1, bias_.cols());
  return copy;
}

}  // namespace roicl::nn
