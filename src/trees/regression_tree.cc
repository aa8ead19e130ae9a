#include "trees/regression_tree.h"

#include <limits>

#include "common/macros.h"
#include "common/math_util.h"

namespace roicl::trees {
namespace {

double MeanOf(const std::vector<double>& y, const std::vector<int>& index) {
  double sum = 0.0;
  for (int i : index) sum += y[AsSize(i)];
  return index.empty() ? 0.0 : sum / static_cast<double>(index.size());
}

}  // namespace

void RegressionTree::Fit(const Matrix& x, const std::vector<double>& y,
                         const std::vector<int>& index,
                         const TreeConfig& config, Rng* rng) {
  ROICL_CHECK(x.rows() == static_cast<int>(y.size()));
  ROICL_CHECK(!index.empty());
  nodes_.clear();
  std::vector<int> root = index;
  Grow(x, y, std::move(root), config, rng, /*depth=*/0);
}

int RegressionTree::Grow(const Matrix& x, const std::vector<double>& y,
                         std::vector<int>&& index, const TreeConfig& config,
                         Rng* rng, int depth) {
  int node_id = AsInt(nodes_.size());
  nodes_.emplace_back();
  TreeNode& root = nodes_[AsSize(node_id)];
  root.num_samples = AsInt(index.size());
  root.value = MeanOf(y, index);

  if (depth >= config.max_depth ||
      static_cast<int>(index.size()) < 2 * config.min_samples_leaf) {
    return node_id;
  }

  // Parent sum-of-squares baseline: maximize SSE reduction, equivalently
  // maximize n_l*mean_l^2 + n_r*mean_r^2.
  double best_gain = 0.0;
  int best_feature = -1;
  double best_threshold = 0.0;

  std::vector<int> features =
      SampleFeatures(x.cols(), config.max_features, rng);
  double parent_sum = 0.0;
  for (int i : index) parent_sum += y[AsSize(i)];
  double n_total = static_cast<double>(index.size());
  double parent_score = parent_sum * parent_sum / n_total;

  for (int feature : features) {
    std::vector<double> thresholds = CandidateThresholds(
        x, index, feature, config.candidate_thresholds);
    for (double threshold : thresholds) {
      double sum_left = 0.0;
      int n_left = 0;
      for (int i : index) {
        if (x(i, feature) <= threshold) {
          sum_left += y[AsSize(i)];
          ++n_left;
        }
      }
      int n_right = static_cast<int>(index.size()) - n_left;
      if (n_left < config.min_samples_leaf ||
          n_right < config.min_samples_leaf) {
        continue;
      }
      double sum_right = parent_sum - sum_left;
      double score = sum_left * sum_left / n_left +
                     sum_right * sum_right / n_right;
      double gain = score - parent_score;
      if (gain > best_gain + 1e-12) {
        best_gain = gain;
        best_feature = feature;
        best_threshold = threshold;
      }
    }
  }

  if (best_feature < 0) return node_id;

  std::vector<int> left_index, right_index;
  left_index.reserve(index.size());
  right_index.reserve(index.size());
  for (int i : index) {
    (x(i, best_feature) <= best_threshold ? left_index : right_index)
        .push_back(i);
  }
  index.clear();
  index.shrink_to_fit();

  int left = Grow(x, y, std::move(left_index), config, rng, depth + 1);
  int right = Grow(x, y, std::move(right_index), config, rng, depth + 1);
  TreeNode& node = nodes_[AsSize(node_id)];
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_id;
}

double RegressionTree::Predict(const double* row) const {
  ROICL_CHECK_MSG(fitted(), "Predict() before Fit()");
  return PredictTree(nodes_, row);
}

}  // namespace roicl::trees
