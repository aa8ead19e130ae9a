#include "campaign/karm_rank_net.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <utility>

#include "common/macros.h"
#include "common/math_util.h"
#include "nn/serialize.h"

namespace roicl::campaign {
namespace {

/// Numerically stable softplus(x) = log(1 + exp(x)).
double Softplus(double x) {
  return std::log1p(std::exp(-std::fabs(x))) + std::max(x, 0.0);
}

/// Joint per-head pairwise ranking loss over a K-column prediction
/// matrix. Head k (column k) runs the binary transformed-outcome loss of
/// core::PairwiseRoiRankLoss restricted to batch rows whose treatment is
/// control (0) or arm k+1; rows of other arms contribute nothing to that
/// head. Each head normalizes by its own pair count and the total is the
/// mean over heads that produced pairs, so no arm dominates just because
/// its batch slice was larger.
class KArmPairwiseLoss : public nn::BatchLoss {
 public:
  KArmPairwiseLoss(int num_arms, const std::vector<int>* treatment,
                   const std::vector<double>* y_revenue,
                   const std::vector<double>* y_cost)
      : num_arms_(num_arms),
        treatment_(treatment),
        y_revenue_(y_revenue),
        y_cost_(y_cost) {}

  double Compute(const Matrix& preds, const std::vector<int>& index,
                 Matrix* grad) const override {
    ROICL_CHECK(grad != nullptr);
    ROICL_CHECK(preds.cols() == num_arms_);
    const int n = preds.rows();
    *grad = Matrix(n, num_arms_);

    double total = 0.0;
    int heads_with_pairs = 0;
    std::vector<int> rows;   // batch positions in head k's subset
    std::vector<double> zr, zc;
    for (int k = 0; k < num_arms_; ++k) {
      const int arm = k + 1;
      rows.clear();
      int n1 = 0, n0 = 0;
      for (int i = 0; i < n; ++i) {
        const int t = (*treatment_)[AsSize(index[AsSize(i)])];
        if (t != 0 && t != arm) continue;
        rows.push_back(i);
        (t == arm ? n1 : n0)++;
      }
      if (n1 == 0 || n0 == 0) continue;  // degenerate slice: skip head

      const int m = static_cast<int>(rows.size());
      zr.assign(AsSize(m), 0.0);
      zc.assign(AsSize(m), 0.0);
      for (int p = 0; p < m; ++p) {
        const size_t row = AsSize(index[AsSize(rows[AsSize(p)])]);
        double g = (*treatment_)[row] == arm ? static_cast<double>(m) / n1
                                             : -static_cast<double>(m) / n0;
        zr[AsSize(p)] = g * (*y_revenue_)[row];
        zc[AsSize(p)] = g * (*y_cost_)[row];
      }

      double loss = 0.0;
      int64_t pairs = 0;
      for (int p = 0; p < m; ++p) {
        for (int q = p + 1; q < m; ++q) {
          const size_t sp = AsSize(p), sq = AsSize(q);
          double w = zr[sp] * zc[sq] - zr[sq] * zc[sp];
          if (w == 0.0) continue;
          double sign = w > 0.0 ? 1.0 : -1.0;
          double mag = std::fabs(w);
          const int i = rows[sp], j = rows[sq];
          double margin = sign * (preds(i, k) - preds(j, k));
          loss += mag * Softplus(-margin);
          // d softplus(-m)/dm = -sigmoid(-m).
          double d = -mag * sign * Sigmoid(-margin);
          (*grad)(i, k) += d;
          (*grad)(j, k) -= d;
          ++pairs;
        }
      }
      if (pairs == 0) continue;
      double inv = 1.0 / static_cast<double>(pairs);
      for (int p : rows) (*grad)(p, k) *= inv;
      total += loss * inv;
      ++heads_with_pairs;
    }
    if (heads_with_pairs == 0) return 0.0;
    double inv_heads = 1.0 / static_cast<double>(heads_with_pairs);
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < num_arms_; ++k) (*grad)(i, k) *= inv_heads;
    }
    return total * inv_heads;
  }

 private:
  int num_arms_;
  const std::vector<int>* treatment_;
  const std::vector<double>* y_revenue_;
  const std::vector<double>* y_cost_;
};

}  // namespace

void KArmRankNet::Fit(const synth::MultiTreatmentDataset& train) {
  const int num_arms = train.num_arms();
  ROICL_CHECK_MSG(num_arms >= 1, "dataset carries no treatment arms");
  std::vector<int> counts(AsSize(num_arms + 1), 0);
  for (int t : train.treatment) {
    ROICL_CHECK_MSG(t >= 0 && t <= num_arms, "treatment label out of range");
    counts[AsSize(t)]++;
  }
  for (int t = 0; t <= num_arms; ++t) {
    ROICL_CHECK_MSG(counts[AsSize(t)] > 0,
                    "KArmRankNet requires control and every arm present");
  }

  num_arms_ = num_arms;
  feature_dim_ = train.x.cols();
  Matrix x_scaled = scaler_.FitTransform(train.x);

  arch_trunk_hidden_ = config_.trunk_hidden;
  if (arch_trunk_hidden_.empty()) {
    arch_trunk_hidden_ = {train.n() < 4000 ? 32 : 64};
  }
  arch_trunk_out_ = config_.trunk_out;
  arch_head_hidden_ = config_.head_hidden;

  KArmPairwiseLoss loss(num_arms, &train.treatment, &train.y_revenue,
                        &train.y_cost);
  std::vector<int> train_index(AsSize(train.n()));
  for (int i = 0; i < train.n(); ++i) train_index[AsSize(i)] = i;
  std::vector<int> validation_index;
  if (config_.train.patience > 0 && train.n() >= 100) {
    int n_val = std::max(1, train.n() / 10);
    validation_index.assign(train_index.end() - n_val, train_index.end());
    train_index.resize(train_index.size() - AsSize(n_val));
  }

  int restarts = std::max(1, config_.restarts);
  double best_score = std::numeric_limits<double>::infinity();
  for (int restart = 0; restart < restarts; ++restart) {
    Rng rng(config_.seed + static_cast<uint64_t>(restart) * 7919,
            /*stream=*/59);
    auto candidate =
        std::make_unique<uplift::MultiHeadNet>(uplift::MultiHeadNet::MakeKHead(
            feature_dim_, arch_trunk_hidden_, arch_trunk_out_, num_arms,
            arch_head_hidden_, config_.activation, config_.dropout, &rng));
    nn::TrainConfig train_config = config_.train;
    train_config.seed =
        config_.train.seed + static_cast<uint64_t>(restart) * 104729;
    nn::TrainResult result =
        nn::TrainNetwork(candidate.get(), x_scaled, train_index,
                         validation_index, loss, train_config);
    double score = validation_index.empty() ? result.final_train_loss
                                            : result.best_validation_loss;
    if (score < best_score) {
      best_score = score;
      net_ = std::move(candidate);
    }
  }
}

std::vector<std::vector<double>> KArmRankNet::PredictRoiPerArm(
    const Matrix& x) const {
  ROICL_CHECK_MSG(fitted(), "PredictRoiPerArm() before Fit()");
  ROICL_CHECK_MSG(x.cols() == feature_dim_, "feature dimension mismatch");
  Matrix x_scaled = scaler_.Transform(x);
  Matrix out = nn::BatchedInferForward(net_.get(), x_scaled, config_.predict);
  std::vector<std::vector<double>> per_arm(AsSize(num_arms_));
  for (int k = 0; k < num_arms_; ++k) {
    std::vector<double> scores = out.Col(k);
    // Ranking scores only; the sigmoid maps them into (0, 1) so the
    // allocator sees the same convention as every other direct scorer.
    for (double& v : scores) {
      v = Sigmoid(v);
      ROICL_DCHECK_FINITE(v);
    }
    per_arm[AsSize(k)] = std::move(scores);
  }
  return per_arm;
}

Status KArmRankNet::Save(std::ostream& out) const {
  if (!fitted()) return Status::FailedPrecondition("model not fitted");
  out << "roicl-karm-ranknet-v1\n";
  // Architecture header: everything Load needs to rebuild the identical
  // net before restoring parameters. The activation is persisted because
  // it changes inference, not just training.
  out << num_arms_ << ' ' << feature_dim_ << ' '
      << static_cast<int>(config_.activation) << '\n';
  out << arch_trunk_hidden_.size();
  for (int h : arch_trunk_hidden_) out << ' ' << h;
  out << ' ' << arch_trunk_out_ << '\n';
  out << arch_head_hidden_.size();
  for (int h : arch_head_hidden_) out << ' ' << h;
  out << '\n';
  out << std::setprecision(17);
  const std::vector<double>& means = scaler_.means();
  const std::vector<double>& stds = scaler_.stddevs();
  for (size_t i = 0; i < means.size(); ++i) {
    out << (i ? " " : "") << means[i];
  }
  out << '\n';
  for (size_t i = 0; i < stds.size(); ++i) {
    out << (i ? " " : "") << stds[i];
  }
  out << '\n';
  return nn::SaveNetworkParams(*net_, out);
}

StatusOr<KArmRankNet> KArmRankNet::Load(std::istream& in,
                                        const KArmRankNetConfig& config) {
  std::string magic;
  if (!(in >> magic)) {
    return Status::InvalidArgument(
        "empty or truncated karm-ranknet model stream");
  }
  if (magic != "roicl-karm-ranknet-v1") {
    if (magic.rfind("roicl-karm-ranknet-v", 0) == 0) {
      return Status::InvalidArgument(
          "unsupported karm-ranknet format version '" + magic +
          "' (expected roicl-karm-ranknet-v1)");
    }
    return Status::InvalidArgument("bad magic '" + magic +
                                   "' (expected roicl-karm-ranknet-v1)");
  }
  int num_arms = 0, dim = 0, activation = -1;
  if (!(in >> num_arms >> dim >> activation) || num_arms <= 0 ||
      num_arms > 1000 || dim <= 0 || dim > 1000000) {
    return Status::InvalidArgument("bad karm-ranknet architecture header");
  }
  if (activation < 0 || activation > 3) {
    return Status::InvalidArgument("unknown activation kind " +
                                   std::to_string(activation));
  }
  auto read_dims = [&in](std::vector<int>* dims) -> bool {
    size_t count = 0;
    if (!(in >> count) || count > 64) return false;
    dims->assign(count, 0);
    for (int& d : *dims) {
      if (!(in >> d) || d <= 0 || d > 1000000) return false;
    }
    return true;
  };
  std::vector<int> trunk_hidden;
  int trunk_out = 0;
  std::vector<int> head_hidden;
  if (!read_dims(&trunk_hidden) || !(in >> trunk_out) || trunk_out <= 0 ||
      !read_dims(&head_hidden)) {
    return Status::InvalidArgument("bad karm-ranknet layer dimensions");
  }
  std::vector<double> means(AsSize(dim)), stds(AsSize(dim));
  for (double& v : means) {
    if (!(in >> v)) return Status::InvalidArgument("truncated means");
  }
  for (double& v : stds) {
    if (!(in >> v)) return Status::InvalidArgument("truncated stds");
    if (v <= 0.0) return Status::InvalidArgument("non-positive stddev");
  }

  KArmRankNet model(config);
  model.num_arms_ = num_arms;
  model.feature_dim_ = dim;
  model.config_.activation = static_cast<nn::ActivationKind>(activation);
  model.arch_trunk_hidden_ = std::move(trunk_hidden);
  model.arch_trunk_out_ = trunk_out;
  model.arch_head_hidden_ = std::move(head_hidden);
  // Rebuild the architecture (initial weights are irrelevant — the
  // parameter blob overwrites them, shape-checked by LoadNetworkParams).
  Rng rng(1, /*stream=*/59);
  model.net_ =
      std::make_unique<uplift::MultiHeadNet>(uplift::MultiHeadNet::MakeKHead(
          dim, model.arch_trunk_hidden_, trunk_out, num_arms,
          model.arch_head_hidden_, model.config_.activation, config.dropout,
          &rng));
  Status params = nn::LoadNetworkParams(model.net_.get(), in);
  if (!params.ok()) return params;
  model.scaler_ =
      StandardScaler::FromMoments(std::move(means), std::move(stds));
  return model;
}

}  // namespace roicl::campaign
