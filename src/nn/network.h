#ifndef ROICL_NN_NETWORK_H_
#define ROICL_NN_NETWORK_H_

#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "linalg/matrix.h"
#include "nn/layer.h"

namespace roicl::nn {

/// Abstract trainable network: anything with a batched Forward/Backward
/// and a flat parameter list. `Mlp` is the sequential implementation;
/// multi-head CATE architectures (TARNet & friends) implement this
/// directly so the shared trainer works for all of them.
class Network {
 public:
  virtual ~Network() = default;

  virtual Matrix Forward(const Matrix& input, Mode mode, Rng* rng) = 0;

  virtual Matrix Backward(const Matrix& grad_output) = 0;
  virtual std::vector<Matrix*> Params() = 0;
  virtual std::vector<Matrix*> Grads() = 0;

  void ZeroGrads() {
    for (Matrix* g : Grads()) *g *= 0.0;
  }

  /// Copies parameter values from a network with identical architecture.
  /// Used to snapshot/restore weights for early stopping.
  void CopyParamsFrom(Network& other) {
    std::vector<Matrix*> dst = Params();
    std::vector<Matrix*> src = other.Params();
    ROICL_CHECK(dst.size() == src.size());
    for (size_t i = 0; i < dst.size(); ++i) {
      ROICL_CHECK(dst[i]->size() == src[i]->size());
      *dst[i] = *src[i];
    }
  }

  /// Snapshots all parameters into a flat list of matrices.
  std::vector<Matrix> SnapshotParams() {
    std::vector<Matrix> snapshot;
    for (Matrix* p : Params()) snapshot.push_back(*p);
    return snapshot;
  }

  /// Restores parameters from SnapshotParams().
  void RestoreParams(const std::vector<Matrix>& snapshot) {
    std::vector<Matrix*> params = Params();
    ROICL_CHECK(params.size() == snapshot.size());
    for (size_t i = 0; i < params.size(); ++i) *params[i] = snapshot[i];
  }
};

}  // namespace roicl::nn

#endif  // ROICL_NN_NETWORK_H_
