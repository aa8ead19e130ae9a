#ifndef ROICL_NN_LAYER_H_
#define ROICL_NN_LAYER_H_

#include <memory>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "linalg/matrix.h"

namespace roicl::nn {

/// Forward-pass mode.
///
/// kMcSample is the Monte-Carlo-dropout mode of Gal & Ghahramani (2016)
/// used by rDRP: dropout stays *active* at inference so that repeated
/// forward passes sample from the approximate posterior, while every other
/// layer behaves as in plain inference.
enum class Mode {
  kTrain,
  kInfer,
  kMcSample,
};

/// One independent RNG stream per row of the current batch, indexed by
/// row position. Used by ForwardRowsInto() so a stochastic layer's draws
/// for sample i depend only on sample i's stream — never on which other
/// rows share the batch — making batched stochastic inference
/// bit-identical under any row partition or thread count.
using RowRngs = std::vector<Rng>;

/// A differentiable layer. Layers own their parameters and accumulated
/// gradients and cache whatever activations their backward pass needs, so
/// Forward(kTrain)/Backward must be called in matched pairs.
///
/// Thread safety: Forward/ForwardRows/ForwardRowsInto in kInfer and
/// kMcSample modes do not mutate layer state, so concurrent non-train
/// forwards on a shared layer are safe. Only kTrain writes the caches
/// backward needs.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for a batch (rows = samples).
  /// `rng` is only consulted by stochastic layers (dropout) and may be
  /// nullptr in kInfer mode.
  virtual Matrix Forward(const Matrix& input, Mode mode, Rng* rng) = 0;

  /// Batched inference forward (kInfer or kMcSample) with one RNG stream
  /// per input row (partition independence; see RowRngs), written into
  /// `*out`: a buffer the caller owns and reuses, reshaped only when its
  /// shape differs from the output's. Layers whose SupportsInPlace() is
  /// true also accept `out == &input`. `row_rngs` may be nullptr in kInfer
  /// mode; otherwise it must hold input.rows() generators.
  virtual void ForwardRowsInto(const Matrix& input, Mode mode,
                               RowRngs* row_rngs, Matrix* out) = 0;

  /// True for elementwise layers, which may run ForwardRowsInto in place.
  virtual bool SupportsInPlace() const { return false; }

  /// ForwardRowsInto into a freshly allocated matrix.
  Matrix ForwardRows(const Matrix& input, Mode mode, RowRngs* row_rngs) {
    ROICL_CHECK_MSG(mode != Mode::kTrain,
                    "ForwardRows is an inference-only path (no caches)");
    Matrix out;
    ForwardRowsInto(input, mode, row_rngs, &out);
    return out;
  }

  /// Propagates `grad_output` (dLoss/dOutput) backwards, accumulating
  /// parameter gradients, and returns dLoss/dInput.
  virtual Matrix Backward(const Matrix& grad_output) = 0;

  /// Mutable views of parameters and their gradient buffers (same order).
  virtual std::vector<Matrix*> Params() { return {}; }
  virtual std::vector<Matrix*> Grads() { return {}; }

  /// Clears accumulated gradients.
  void ZeroGrads() {
    for (Matrix* g : Grads()) *g *= 0.0;
  }

  /// Deep copy (used to snapshot the best model during early stopping).
  virtual std::unique_ptr<Layer> Clone() const = 0;

 protected:
  /// Gives a ForwardRowsInto output buffer the shape rows x cols,
  /// allocating only when its current shape differs.
  static void ShapeOutput(int rows, int cols, Matrix* out) {
    if (out->rows() != rows || out->cols() != cols) {
      *out = Matrix(rows, cols);
    }
  }
};

}  // namespace roicl::nn

#endif  // ROICL_NN_LAYER_H_
