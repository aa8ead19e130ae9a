#ifndef ROICL_UPLIFT_MULTI_HEAD_NET_H_
#define ROICL_UPLIFT_MULTI_HEAD_NET_H_

#include <vector>

#include "nn/mlp.h"
#include "nn/network.h"

namespace roicl::uplift {

/// Shared-representation multi-head network: a trunk MLP produces a
/// representation phi(x); each head MLP maps phi(x) to one output column.
/// Forward output is the horizontal concatenation of the head outputs.
///
/// This is the common skeleton of TARNet (two outcome heads), DragonNet
/// (two outcome heads + a propensity head) and OffsetNet (a base head and
/// an offset head).
class MultiHeadNet : public nn::Network {
 public:
  MultiHeadNet(nn::Mlp trunk, std::vector<nn::Mlp> heads);

  /// Convenience builder for the K-arm campaign nets: a trunk
  /// `input_dim -> trunk_hidden -> trunk_out` feeding `num_heads` heads
  /// `trunk_out -> head_hidden -> 1`, one per treatment arm. All layers
  /// share the activation and dropout rate; initialization draws from
  /// `rng` in a fixed order (trunk, then heads ascending), so a given
  /// seed rebuilds the identical architecture and initial weights.
  static MultiHeadNet MakeKHead(int input_dim,
                                const std::vector<int>& trunk_hidden,
                                int trunk_out, int num_heads,
                                const std::vector<int>& head_hidden,
                                nn::ActivationKind activation,
                                double dropout_rate, Rng* rng);

  Matrix Forward(const Matrix& input, nn::Mode mode, Rng* rng) override;

  Matrix Backward(const Matrix& grad_output) override;
  std::vector<Matrix*> Params() override;
  std::vector<Matrix*> Grads() override;

  int num_heads() const { return static_cast<int>(heads_.size()); }

 private:
  nn::Mlp trunk_;
  std::vector<nn::Mlp> heads_;
};

}  // namespace roicl::uplift

#endif  // ROICL_UPLIFT_MULTI_HEAD_NET_H_
