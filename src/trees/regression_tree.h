#ifndef ROICL_TREES_REGRESSION_TREE_H_
#define ROICL_TREES_REGRESSION_TREE_H_

#include <vector>

#include "trees/tree_common.h"

namespace roicl::trees {

/// CART regression tree: greedy variance-reduction splits, mean leaves.
class RegressionTree {
 public:
  /// Grows the tree on rows `index` of (x, y). `rng` drives feature
  /// subsampling and may be nullptr when config.max_features <= 0.
  void Fit(const Matrix& x, const std::vector<double>& y,
           const std::vector<int>& index, const TreeConfig& config,
           Rng* rng);

  /// Predicts one feature row. Requires Fit() first.
  double Predict(const double* row) const;

  bool fitted() const { return !nodes_.empty(); }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const std::vector<TreeNode>& nodes() const { return nodes_; }

  /// Rebuilds a tree from a node array (deserialization). The array must
  /// already be structurally validated (ReadTreeNodes does this).
  static RegressionTree FromNodes(std::vector<TreeNode> nodes) {
    RegressionTree tree;
    tree.nodes_ = std::move(nodes);
    return tree;
  }

 private:
  int Grow(const Matrix& x, const std::vector<double>& y,
           std::vector<int>&& index, const TreeConfig& config, Rng* rng,
           int depth);

  std::vector<TreeNode> nodes_;
};

}  // namespace roicl::trees

#endif  // ROICL_TREES_REGRESSION_TREE_H_
