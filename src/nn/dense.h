#ifndef ROICL_NN_DENSE_H_
#define ROICL_NN_DENSE_H_

#include <memory>

#include "nn/layer.h"

namespace roicl::nn {

/// Weight-initialization schemes.
enum class Init {
  kXavier,  ///< Glorot uniform — good default for tanh/sigmoid.
  kHe,      ///< He normal — good default for ReLU/ELU.
  kZero,
};

/// Fully connected layer: output = input * W + b.
/// W is (in x out), b is (1 x out).
class Dense : public Layer {
 public:
  /// Initializes weights with `init` using `rng`; biases start at zero.
  Dense(int in_features, int out_features, Init init, Rng* rng);

  Matrix Forward(const Matrix& input, Mode mode, Rng* rng) override;
  /// `out` must not alias `input`.
  void ForwardRowsInto(const Matrix& input, Mode mode, RowRngs* row_rngs,
                       Matrix* out) override;
  Matrix Backward(const Matrix& grad_output) override;
  std::vector<Matrix*> Params() override { return {&weights_, &bias_}; }
  std::vector<Matrix*> Grads() override {
    return {&grad_weights_, &grad_bias_};
  }
  std::unique_ptr<Layer> Clone() const override;

  int in_features() const { return weights_.rows(); }
  int out_features() const { return weights_.cols(); }
  const Matrix& weights() const { return weights_; }
  const Matrix& bias() const { return bias_; }

 private:
  Dense() = default;  // for Clone

  Matrix weights_;
  Matrix bias_;
  Matrix grad_weights_;
  Matrix grad_bias_;
  Matrix cached_input_;
};

}  // namespace roicl::nn

#endif  // ROICL_NN_DENSE_H_
