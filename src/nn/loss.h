#ifndef ROICL_NN_LOSS_H_
#define ROICL_NN_LOSS_H_

#include <vector>

#include "linalg/matrix.h"

namespace roicl::nn {

/// Loss evaluated on a mini-batch of network outputs.
///
/// `preds` is the (batch x k) output of the network; `index[i]` is the
/// dataset row id of batch row i, so the loss implementation can look up
/// labels it captured at construction time. The loss writes
/// dLoss/dPreds into `*grad` (same shape as preds) and returns the scalar
/// loss value. This indirection lets custom causal losses (DRP, Direct
/// Rank) normalize per treatment group within the batch.
class BatchLoss {
 public:
  virtual ~BatchLoss() = default;

  virtual double Compute(const Matrix& preds, const std::vector<int>& index,
                         Matrix* grad) const = 0;
};

/// Mean squared error against a captured target vector (by dataset index).
class MseLoss : public BatchLoss {
 public:
  explicit MseLoss(const std::vector<double>* targets) : targets_(targets) {}

  double Compute(const Matrix& preds, const std::vector<int>& index,
                 Matrix* grad) const override;

 private:
  const std::vector<double>* targets_;  // not owned
};

/// Binary cross-entropy on logits against a captured 0/1 target vector.
class BceWithLogitsLoss : public BatchLoss {
 public:
  explicit BceWithLogitsLoss(const std::vector<double>* targets)
      : targets_(targets) {}

  double Compute(const Matrix& preds, const std::vector<int>& index,
                 Matrix* grad) const override;

 private:
  const std::vector<double>* targets_;  // not owned
};

}  // namespace roicl::nn

#endif  // ROICL_NN_LOSS_H_
