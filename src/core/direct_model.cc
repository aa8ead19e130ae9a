#include "core/direct_model.h"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/math_util.h"
#include "core/mc_dropout.h"
#include "metrics/cost_curve.h"
#include "nn/dense.h"
#include "nn/serialize.h"
#include "obs/log.h"

namespace roicl::core {

void DirectRoiModel::FitNetwork(const RctDataset& train,
                                const nn::BatchLoss& loss,
                                const DirectNetConfig& config, uint64_t seed,
                                uint64_t rng_stream) {
  train.Validate();
  ROICL_CHECK_MSG(train.NumTreated() > 0 && train.NumControl() > 0,
                  "%s requires both RCT arms", name().c_str());
  Matrix x_scaled = scaler_.FitTransform(train.x);

  int hidden = config.hidden_units;
  if (hidden <= 0) {
    // Capacity scaled to data volume: big nets overfit (and train
    // unstably) on the paper's "Insufficient" RCT sizes.
    hidden = train.n() < 4000 ? 32 : 128;
  }

  std::vector<int> train_index(AsSize(train.n()));
  for (int i = 0; i < train.n(); ++i) train_index[AsSize(i)] = i;
  std::vector<int> validation_index;
  if (config.train.patience > 0 && train.n() >= 100) {
    int n_val = std::max(1, train.n() / 10);
    validation_index.assign(train_index.end() - n_val, train_index.end());
    train_index.resize(train_index.size() - AsSize(n_val));
  }

  const int restarts = std::max(1, config.restarts);
  double best_score = std::numeric_limits<double>::infinity();
  for (int restart = 0; restart < restarts; ++restart) {
    Rng rng(seed + static_cast<uint64_t>(restart) * 7919, rng_stream);
    auto candidate = std::make_unique<nn::Mlp>(nn::Mlp::MakeMlp(
        train.dim(), {hidden}, /*output_dim=*/1, config.activation,
        config.dropout, &rng));
    nn::TrainConfig train_config = config.train;
    train_config.seed =
        config.train.seed + static_cast<uint64_t>(restart) * 104729;
    nn::TrainResult result =
        nn::TrainNetwork(candidate.get(), x_scaled, train_index,
                         validation_index, loss, train_config);
    if (restarts == 1) {  // nothing to rank
      net_ = std::move(candidate);
      break;
    }
    double score;
    if (validation_index.empty()) {
      score = result.final_train_loss;
    } else {
      Matrix val_x = x_scaled.SelectRows(validation_index);
      Matrix out = candidate->Forward(val_x, nn::Mode::kInfer, nullptr);
      score = -metrics::Aucc(out.Col(0), train.Subset(validation_index));
    }
    obs::Debug("direct model restart",
               {{"model", name()}, {"restart", restart}, {"score", score}});
    if (score < best_score) {
      best_score = score;
      net_ = std::move(candidate);
    }
  }
  obs::Debug("direct model fit done", {{"model", name()},
                                       {"n", train.n()},
                                       {"hidden", hidden},
                                       {"restarts", restarts}});
}

std::vector<double> DirectRoiModel::PredictScore(const Matrix& x) const {
  ROICL_CHECK_MSG(fitted(), "PredictScore() before Fit()");
  Matrix x_scaled = scaler_.Transform(x);
  return nn::BatchedInferForward(net_.get(), x_scaled, predict_).Col(0);
}

std::vector<double> DirectRoiModel::PredictRoi(const Matrix& x) const {
  std::vector<double> scores = PredictScore(x);
  for (double& s : scores) {
    s = Sigmoid(s);
    ROICL_DCHECK_FINITE(s);
  }
  return scores;
}

McDropoutStats DirectRoiModel::PredictMcRoi(const Matrix& x, int passes,
                                            uint64_t seed) const {
  ROICL_CHECK_MSG(fitted(), "PredictMcRoi() before Fit()");
  Matrix x_scaled = scaler_.Transform(x);
  return RunMcDropout(net_.get(), x_scaled, passes, seed,
                      /*sigmoid_output=*/true, predict_);
}

Status DirectRoiModel::Save(std::ostream& out) const {
  if (blob_tag_ == nullptr) {
    return Status::FailedPrecondition(name() + " has no saved form");
  }
  if (!fitted()) return Status::FailedPrecondition("model not fitted");
  out << "roicl-" << blob_tag_ << "-v1\n";
  out << std::setprecision(17);
  const std::vector<double>& means = scaler_.means();
  const std::vector<double>& stds = scaler_.stddevs();
  out << means.size();
  for (double m : means) out << ' ' << m;
  for (double s : stds) out << ' ' << s;
  out << '\n';
  return nn::SaveMlp(*net_, out);
}

Status DirectRoiModel::LoadNetwork(std::istream& in) {
  ROICL_CHECK(blob_tag_ != nullptr);
  const std::string tag = blob_tag_;
  const std::string expected = "roicl-" + tag + "-v1";
  std::string magic;
  if (!(in >> magic)) {
    return Status::InvalidArgument("empty or truncated " + tag +
                                   " model stream");
  }
  if (magic != expected) {
    if (magic.rfind("roicl-" + tag + "-v", 0) == 0) {
      return Status::InvalidArgument("unsupported " + tag +
                                     " format version '" + magic +
                                     "' (expected " + expected + ")");
    }
    return Status::InvalidArgument("bad magic '" + magic + "' (expected " +
                                   expected + ")");
  }
  size_t dim = 0;
  if (!(in >> dim) || dim == 0 || dim > 1000000) {
    return Status::InvalidArgument("bad feature dimension");
  }
  std::vector<double> means(dim), stds(dim);
  for (double& v : means) {
    if (!(in >> v)) return Status::InvalidArgument("truncated means");
  }
  for (double& v : stds) {
    if (!(in >> v)) return Status::InvalidArgument("truncated stds");
    if (v <= 0.0) return Status::InvalidArgument("non-positive stddev");
  }
  StatusOr<nn::Mlp> net = nn::LoadMlp(in);
  if (!net.ok()) return net.status();

  // Cross-check: the network's first dense layer must consume exactly the
  // scaler's feature dimension, or predictions would index out of range.
  int net_input = -1;
  for (size_t l = 0; l < net.value().num_layers(); ++l) {
    if (const auto* dense =
            dynamic_cast<const nn::Dense*>(net.value().layer(l))) {
      net_input = dense->in_features();
      break;
    }
  }
  if (net_input != static_cast<int>(dim)) {
    return Status::InvalidArgument(
        "feature dimension mismatch: scaler has " + std::to_string(dim) +
        " features but the network expects " + std::to_string(net_input));
  }

  scaler_ = StandardScaler::FromMoments(std::move(means), std::move(stds));
  net_ = std::make_unique<nn::Mlp>(std::move(net).value());
  return Status::Ok();
}

}  // namespace roicl::core
