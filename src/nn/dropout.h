#ifndef ROICL_NN_DROPOUT_H_
#define ROICL_NN_DROPOUT_H_

#include <memory>

#include "nn/layer.h"

namespace roicl::nn {

/// Inverted dropout.
///
/// - kTrain: units are zeroed with probability `rate` and survivors are
///   scaled by 1/(1-rate) (standard inverted dropout, Srivastava et al.).
/// - kInfer: identity.
/// - kMcSample: same stochastic behaviour as training — this is the
///   Monte-Carlo dropout of Gal & Ghahramani used by rDRP to obtain the
///   per-sample standard deviation r̂(x) without retraining (§IV-C2).
class Dropout : public Layer {
 public:
  /// `rate` is the drop probability in [0, 1).
  explicit Dropout(double rate);

  Matrix Forward(const Matrix& input, Mode mode, Rng* rng) override;

  /// Per-row-stream variant: the mask for row r is drawn from
  /// (*row_rngs)[r] alone, so the output for a sample is independent of
  /// the rows batched with it (kMcSample reproducibility contract).
  void ForwardRowsInto(const Matrix& input, Mode mode, RowRngs* row_rngs,
                       Matrix* out) override;
  bool SupportsInPlace() const override { return true; }

  Matrix Backward(const Matrix& grad_output) override;
  std::unique_ptr<Layer> Clone() const override {
    return std::make_unique<Dropout>(rate_);
  }

  double rate() const { return rate_; }

 private:
  /// out[i] = in[i] * (keep draw ? 1 / (1 - rate) : 0) for `count`
  /// elements, drawing from `rng` in element order; records each factor in
  /// `mask` when it is non-null. `out` may equal `in`.
  void DropInto(const double* in, size_t count, Rng* rng, double* out,
                double* mask) const;

  double rate_;
  Matrix mask_;  // keep/scale mask cached in kTrain for the backward pass
};

}  // namespace roicl::nn

#endif  // ROICL_NN_DROPOUT_H_
