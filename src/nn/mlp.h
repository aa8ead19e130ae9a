#ifndef ROICL_NN_MLP_H_
#define ROICL_NN_MLP_H_

#include <memory>
#include <vector>

#include "nn/activation.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/layer.h"
#include "nn/network.h"

namespace roicl::nn {

/// A sequential stack of layers — the multilayer perceptron used by every
/// neural model in this library (DRP itself is one hidden layer of 10-100
/// units per §IV-D of the paper).
class Mlp : public Network {
 public:
  Mlp() = default;
  Mlp(Mlp&&) = default;
  Mlp& operator=(Mlp&&) = default;
  /// Deep copies (layer-wise Clone); used for early-stopping snapshots.
  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other) = delete;

  /// Convenience builder: `input_dim -> hidden[0] -> ... -> output_dim`
  /// with the given activation after each hidden Dense, and a Dropout
  /// layer (if `dropout_rate > 0`) after each hidden activation. The final
  /// Dense is linear.
  static Mlp MakeMlp(int input_dim, const std::vector<int>& hidden,
                     int output_dim, ActivationKind activation,
                     double dropout_rate, Rng* rng);

  void Add(std::unique_ptr<Layer> layer);

  /// Runs the full stack. Matched Forward(kTrain)/Backward pairs are the
  /// caller's responsibility (the Trainer handles this).
  Matrix Forward(const Matrix& input, Mode mode, Rng* rng) override;

  /// Activation buffers for ForwardRowsInto, owned by the caller: one per
  /// layer that cannot run in place. Each buffer only ever receives its
  /// layer's output shape, so reusing a workspace across same-shaped
  /// calls (the passes over one MC-dropout block) allocates nothing after
  /// the first. One workspace serves one call at a time.
  struct Workspace {
    std::vector<Matrix> outputs;
  };

  /// Runs the stack in an inference mode with per-row RNG streams
  /// (layer-wise ForwardRowsInto, elementwise layers in place); each
  /// dropout layer continues row r's stream where the previous one left
  /// off. Returns the output, which lives in `workspace` until its next
  /// use.
  const Matrix& ForwardRowsInto(const Matrix& input, Mode mode,
                                RowRngs* row_rngs, Workspace* workspace);

  /// Backpropagates dLoss/dOutput; returns dLoss/dInput.
  Matrix Backward(const Matrix& grad_output) override;

  std::vector<Matrix*> Params() override;
  std::vector<Matrix*> Grads() override;
  using Network::ZeroGrads;

  size_t num_layers() const { return layers_.size(); }
  Layer* layer(size_t i) { return layers_[i].get(); }

  /// Total number of scalar parameters.
  size_t NumParameters();

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace roicl::nn

#endif  // ROICL_NN_MLP_H_
