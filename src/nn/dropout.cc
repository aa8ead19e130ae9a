#include "nn/dropout.h"

#include "common/macros.h"
#include "common/math_util.h"

namespace roicl::nn {

Dropout::Dropout(double rate) : rate_(rate) {
  ROICL_CHECK(rate >= 0.0 && rate < 1.0);
}

Matrix Dropout::Forward(const Matrix& input, Mode mode, Rng* rng) {
  if (mode == Mode::kInfer || rate_ == 0.0) {
    if (mode == Mode::kTrain) mask_ = Matrix();
    return input;
  }
  ROICL_CHECK_MSG(rng != nullptr, "stochastic dropout needs an Rng");
  Matrix out(input.rows(), input.cols());
  // Only the training path caches the mask (Backward needs it). The
  // kMcSample path stays state-free so concurrent MC forward passes can
  // share one network.
  double* mask = nullptr;
  if (mode == Mode::kTrain) {
    mask_ = Matrix(input.rows(), input.cols());
    mask = mask_.data().data();
  }
  DropInto(input.data().data(), input.size(), rng, out.data().data(), mask);
  return out;
}

void Dropout::ForwardRowsInto(const Matrix& input, Mode mode,
                              RowRngs* row_rngs, Matrix* out) {
  if (mode == Mode::kInfer || rate_ == 0.0) {
    if (out != &input) *out = input;
    return;
  }
  ROICL_CHECK_MSG(mode != Mode::kTrain,
                  "ForwardRowsInto is an inference-only path (no mask cache)");
  ROICL_CHECK_MSG(row_rngs != nullptr &&
                      static_cast<int>(row_rngs->size()) == input.rows(),
                  "ForwardRowsInto needs one Rng per input row");
  ShapeOutput(input.rows(), input.cols(), out);
  const size_t cols = AsSize(input.cols());
  for (int r = 0; r < input.rows(); ++r) {
    DropInto(input.RowPtr(r), cols, &(*row_rngs)[AsSize(r)], out->RowPtr(r),
             nullptr);
  }
}

void Dropout::DropInto(const double* in, size_t count, Rng* rng, double* out,
                       double* mask) const {
  const double keep = 1.0 - rate_;
  const double scale = 1.0 / keep;
  for (size_t i = 0; i < count; ++i) {
    const double keep_scale = rng->Bernoulli(keep) ? scale : 0.0;
    if (mask != nullptr) mask[i] = keep_scale;
    out[i] = in[i] * keep_scale;
  }
}

Matrix Dropout::Backward(const Matrix& grad_output) {
  if (mask_.empty()) return grad_output;  // identity pass (kInfer / rate 0)
  ROICL_CHECK(mask_.rows() == grad_output.rows() &&
              mask_.cols() == grad_output.cols());
  Matrix grad = grad_output;
  const std::vector<double>& m = mask_.data();
  std::vector<double>& g = grad.data();
  for (size_t i = 0; i < g.size(); ++i) g[i] *= m[i];
  return grad;
}

}  // namespace roicl::nn
