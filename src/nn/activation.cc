#include "nn/activation.h"

#include <cmath>

#include "common/macros.h"
#include "common/math_util.h"

namespace roicl::nn {

Matrix Activation::Forward(const Matrix& input, Mode mode, Rng* /*rng*/) {
  Matrix out;
  ForwardRowsInto(input, Mode::kInfer, nullptr, &out);
  if (mode == Mode::kTrain) {
    cached_input_ = input;
    cached_output_ = out;
  }
  return out;
}

void Activation::ForwardRowsInto(const Matrix& input, Mode /*mode*/,
                                 RowRngs* /*row_rngs*/, Matrix* out) {
  ShapeOutput(input.rows(), input.cols(), out);
  const double* in = input.data().data();
  double* o = out->data().data();
  const size_t n = input.size();
  switch (kind_) {
    case ActivationKind::kRelu:
      for (size_t i = 0; i < n; ++i) o[i] = in[i] > 0.0 ? in[i] : 0.0;
      break;
    case ActivationKind::kElu:
      for (size_t i = 0; i < n; ++i) {
        o[i] = in[i] > 0.0 ? in[i] : std::expm1(in[i]);
      }
      break;
    case ActivationKind::kSigmoid:
      for (size_t i = 0; i < n; ++i) o[i] = Sigmoid(in[i]);
      break;
    case ActivationKind::kTanh:
      for (size_t i = 0; i < n; ++i) o[i] = std::tanh(in[i]);
      break;
  }
}

Matrix Activation::Backward(const Matrix& grad_output) {
  ROICL_CHECK_MSG(cached_input_.rows() == grad_output.rows(),
                  "Backward without matching Forward(kTrain)");
  Matrix grad = grad_output;
  const std::vector<double>& in = cached_input_.data();
  const std::vector<double>& out = cached_output_.data();
  std::vector<double>& g = grad.data();
  switch (kind_) {
    case ActivationKind::kRelu:
      for (size_t i = 0; i < g.size(); ++i) g[i] *= in[i] > 0.0 ? 1.0 : 0.0;
      break;
    case ActivationKind::kElu:
      // d/dx ELU(x) = 1 for x > 0, ELU(x) + 1 otherwise.
      for (size_t i = 0; i < g.size(); ++i) {
        g[i] *= in[i] > 0.0 ? 1.0 : out[i] + 1.0;
      }
      break;
    case ActivationKind::kSigmoid:
      for (size_t i = 0; i < g.size(); ++i) g[i] *= out[i] * (1.0 - out[i]);
      break;
    case ActivationKind::kTanh:
      for (size_t i = 0; i < g.size(); ++i) g[i] *= 1.0 - out[i] * out[i];
      break;
  }
  return grad;
}

}  // namespace roicl::nn
