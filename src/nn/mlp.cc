#include "nn/mlp.h"

#include "common/macros.h"

namespace roicl::nn {

Mlp::Mlp(const Mlp& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->Clone());
}

Mlp Mlp::MakeMlp(int input_dim, const std::vector<int>& hidden,
                 int output_dim, ActivationKind activation,
                 double dropout_rate, Rng* rng) {
  ROICL_CHECK(rng != nullptr);
  Mlp net;
  Init init = (activation == ActivationKind::kRelu ||
               activation == ActivationKind::kElu)
                  ? Init::kHe
                  : Init::kXavier;
  int in_dim = input_dim;
  for (int width : hidden) {
    net.Add(std::make_unique<Dense>(in_dim, width, init, rng));
    net.Add(std::make_unique<Activation>(activation));
    if (dropout_rate > 0.0) {
      net.Add(std::make_unique<Dropout>(dropout_rate));
    }
    in_dim = width;
  }
  net.Add(std::make_unique<Dense>(in_dim, output_dim, Init::kXavier, rng));
  return net;
}

void Mlp::Add(std::unique_ptr<Layer> layer) {
  ROICL_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
}

Matrix Mlp::Forward(const Matrix& input, Mode mode, Rng* rng) {
  ROICL_CHECK(!layers_.empty());
  Matrix activation = input;
  for (auto& layer : layers_) {
    activation = layer->Forward(activation, mode, rng);
  }
  return activation;
}

const Matrix& Mlp::ForwardRowsInto(const Matrix& input, Mode mode,
                                    RowRngs* row_rngs, Workspace* workspace) {
  ROICL_CHECK(!layers_.empty());
  ROICL_CHECK(workspace != nullptr);
  ROICL_CHECK_MSG(mode != Mode::kTrain,
                  "ForwardRowsInto is an inference-only path (no caches)");
  ROICL_DCHECK(row_rngs == nullptr ||
               static_cast<int>(row_rngs->size()) == input.rows());
  workspace->outputs.resize(layers_.size());
  // The caller's input is never written: the first layer always gets its
  // own buffer, and later elementwise layers overwrite the buffer they
  // read.
  Matrix* activation = nullptr;
  for (size_t i = 0; i < layers_.size(); ++i) {
    Layer& layer = *layers_[i];
    Matrix* out = activation != nullptr && layer.SupportsInPlace()
                      ? activation
                      : &workspace->outputs[i];
    layer.ForwardRowsInto(activation != nullptr ? *activation : input, mode,
                          row_rngs, out);
    ROICL_DCHECK(out->rows() == input.rows());
    activation = out;
  }
  return *activation;
}

Matrix Mlp::Backward(const Matrix& grad_output) {
  ROICL_CHECK(!layers_.empty());
  Matrix grad = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    grad = (*it)->Backward(grad);
  }
  return grad;
}

std::vector<Matrix*> Mlp::Params() {
  std::vector<Matrix*> params;
  for (auto& layer : layers_) {
    for (Matrix* p : layer->Params()) params.push_back(p);
  }
  return params;
}

std::vector<Matrix*> Mlp::Grads() {
  std::vector<Matrix*> grads;
  for (auto& layer : layers_) {
    for (Matrix* g : layer->Grads()) grads.push_back(g);
  }
  return grads;
}

size_t Mlp::NumParameters() {
  size_t total = 0;
  for (Matrix* p : Params()) total += p->size();
  return total;
}

}  // namespace roicl::nn
