#ifndef ROICL_NN_ACTIVATION_H_
#define ROICL_NN_ACTIVATION_H_

#include <memory>

#include "nn/layer.h"

namespace roicl::nn {

/// Supported element-wise activations.
enum class ActivationKind {
  kRelu,
  kElu,
  kSigmoid,
  kTanh,
};

/// Element-wise activation layer.
class Activation : public Layer {
 public:
  explicit Activation(ActivationKind kind) : kind_(kind) {}

  Matrix Forward(const Matrix& input, Mode mode, Rng* rng) override;
  void ForwardRowsInto(const Matrix& input, Mode mode, RowRngs* row_rngs,
                       Matrix* out) override;
  bool SupportsInPlace() const override { return true; }
  Matrix Backward(const Matrix& grad_output) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Activation>(kind_);
  }

  ActivationKind kind() const { return kind_; }

 private:
  ActivationKind kind_;
  Matrix cached_input_;
  Matrix cached_output_;
};

}  // namespace roicl::nn

#endif  // ROICL_NN_ACTIVATION_H_
