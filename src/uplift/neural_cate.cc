#include "uplift/neural_cate.h"

#include <cmath>
#include <iomanip>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/math_util.h"
#include "nn/batch_forward.h"
#include "nn/serialize.h"

namespace roicl::uplift {
namespace {

/// TARNet / SNet loss: squared error on the head matching the realized
/// arm. preds: [mu0, mu1].
class FactualMseLoss : public nn::BatchLoss {
 public:
  FactualMseLoss(const std::vector<int>* treatment,
                 const std::vector<double>* y)
      : treatment_(treatment), y_(y) {}

  double Compute(const Matrix& preds, const std::vector<int>& index,
                 Matrix* grad) const override {
    ROICL_CHECK(preds.cols() == 2);
    *grad = Matrix(preds.rows(), 2);
    double n = static_cast<double>(preds.rows());
    double loss = 0.0;
    for (int i = 0; i < preds.rows(); ++i) {
      int row = index[AsSize(i)];
      int col = (*treatment_)[AsSize(row)];
      double diff = preds(i, col) - (*y_)[AsSize(row)];
      loss += diff * diff;
      (*grad)(i, col) = 2.0 * diff / n;
    }
    return loss / n;
  }

 private:
  const std::vector<int>* treatment_;
  const std::vector<double>* y_;
};

/// DragonNet loss: factual MSE on [mu0, mu1] plus alpha * BCE on the
/// propensity logit column. preds: [mu0, mu1, g_logit].
class DragonnetLoss : public nn::BatchLoss {
 public:
  DragonnetLoss(const std::vector<int>* treatment,
                const std::vector<double>* y, double alpha)
      : treatment_(treatment), y_(y), alpha_(alpha) {}

  double Compute(const Matrix& preds, const std::vector<int>& index,
                 Matrix* grad) const override {
    ROICL_CHECK(preds.cols() == 3);
    *grad = Matrix(preds.rows(), 3);
    double n = static_cast<double>(preds.rows());
    double loss = 0.0;
    for (int i = 0; i < preds.rows(); ++i) {
      int row = index[AsSize(i)];
      int t = (*treatment_)[AsSize(row)];
      double diff = preds(i, t) - (*y_)[AsSize(row)];
      loss += diff * diff;
      (*grad)(i, t) = 2.0 * diff / n;

      double z = preds(i, 2);
      double yt = static_cast<double>(t);
      loss += alpha_ * (std::max(z, 0.0) - z * yt +
                        std::log1p(std::exp(-std::fabs(z))));
      (*grad)(i, 2) = alpha_ * (Sigmoid(z) - yt) / n;
    }
    return loss / n;
  }

 private:
  const std::vector<int>* treatment_;
  const std::vector<double>* y_;
  double alpha_;
};

/// OffsetNet loss: y_hat = mu0 + t * delta, squared error.
/// preds: [mu0, delta].
class OffsetLoss : public nn::BatchLoss {
 public:
  OffsetLoss(const std::vector<int>* treatment, const std::vector<double>* y)
      : treatment_(treatment), y_(y) {}

  double Compute(const Matrix& preds, const std::vector<int>& index,
                 Matrix* grad) const override {
    ROICL_CHECK(preds.cols() == 2);
    *grad = Matrix(preds.rows(), 2);
    double n = static_cast<double>(preds.rows());
    double loss = 0.0;
    for (int i = 0; i < preds.rows(); ++i) {
      int row = index[AsSize(i)];
      double t = static_cast<double>((*treatment_)[AsSize(row)]);
      double y_hat = preds(i, 0) + t * preds(i, 1);
      double diff = y_hat - (*y_)[AsSize(row)];
      loss += diff * diff;
      (*grad)(i, 0) = 2.0 * diff / n;
      (*grad)(i, 1) = 2.0 * diff * t / n;
    }
    return loss / n;
  }

 private:
  const std::vector<int>* treatment_;
  const std::vector<double>* y_;
};

/// SNet (simplified, Curth & van der Schaar 2021): three representation
/// trunks — one shared, one per arm — with each outcome head consuming
/// [shared, arm-specific]. Output: [mu0, mu1].
class SNetNetwork : public nn::Network {
 public:
  SNetNetwork(int input_dim, const NeuralCateConfig& config, Rng* rng)
      : shared_dim_(config.trunk_hidden.back()),
        specific_dim_(std::max(2, config.trunk_hidden.back() / 2)) {
    shared_ = nn::Mlp::MakeMlp(input_dim, config.trunk_hidden, shared_dim_,
                               config.activation, config.dropout, rng);
    phi0_ = nn::Mlp::MakeMlp(input_dim, config.trunk_hidden, specific_dim_,
                             config.activation, config.dropout, rng);
    phi1_ = nn::Mlp::MakeMlp(input_dim, config.trunk_hidden, specific_dim_,
                             config.activation, config.dropout, rng);
    head0_ = nn::Mlp::MakeMlp(shared_dim_ + specific_dim_,
                              config.head_hidden, 1, config.activation,
                              config.dropout, rng);
    head1_ = nn::Mlp::MakeMlp(shared_dim_ + specific_dim_,
                              config.head_hidden, 1, config.activation,
                              config.dropout, rng);
  }

  Matrix Forward(const Matrix& input, nn::Mode mode, Rng* rng) override {
    Matrix s = shared_.Forward(input, mode, rng);
    Matrix p0 = phi0_.Forward(input, mode, rng);
    Matrix p1 = phi1_.Forward(input, mode, rng);
    Matrix h0 = head0_.Forward(HStack(s, p0), mode, rng);
    Matrix h1 = head1_.Forward(HStack(s, p1), mode, rng);
    Matrix out(input.rows(), 2);
    for (int r = 0; r < input.rows(); ++r) {
      out(r, 0) = h0(r, 0);
      out(r, 1) = h1(r, 0);
    }
    return out;
  }

  Matrix Backward(const Matrix& grad_output) override {
    ROICL_CHECK(grad_output.cols() == 2);
    int n = grad_output.rows();
    Matrix g0(n, 1), g1(n, 1);
    for (int r = 0; r < n; ++r) {
      g0(r, 0) = grad_output(r, 0);
      g1(r, 0) = grad_output(r, 1);
    }
    Matrix gin0 = head0_.Backward(g0);  // n x (shared + specific)
    Matrix gin1 = head1_.Backward(g1);
    Matrix g_shared(n, shared_dim_);
    Matrix gp0(n, specific_dim_), gp1(n, specific_dim_);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < shared_dim_; ++c) {
        g_shared(r, c) = gin0(r, c) + gin1(r, c);
      }
      for (int c = 0; c < specific_dim_; ++c) {
        gp0(r, c) = gin0(r, shared_dim_ + c);
        gp1(r, c) = gin1(r, shared_dim_ + c);
      }
    }
    Matrix gx = shared_.Backward(g_shared);
    gx += phi0_.Backward(gp0);
    gx += phi1_.Backward(gp1);
    return gx;
  }

  std::vector<Matrix*> Params() override {
    return Collect(&nn::Mlp::Params);
  }
  std::vector<Matrix*> Grads() override { return Collect(&nn::Mlp::Grads); }

 private:
  std::vector<Matrix*> Collect(std::vector<Matrix*> (nn::Mlp::*getter)()) {
    std::vector<Matrix*> out;
    for (nn::Mlp* part : {&shared_, &phi0_, &phi1_, &head0_, &head1_}) {
      for (Matrix* m : (part->*getter)()) out.push_back(m);
    }
    return out;
  }

  int shared_dim_;
  int specific_dim_;
  nn::Mlp shared_, phi0_, phi1_, head0_, head1_;
};

std::unique_ptr<nn::Network> BuildNet(NeuralCateKind kind, int input_dim,
                                      const NeuralCateConfig& config,
                                      Rng* rng) {
  if (kind == NeuralCateKind::kSnet) {
    return std::make_unique<SNetNetwork>(input_dim, config, rng);
  }
  int rep_dim = config.trunk_hidden.back();
  nn::Mlp trunk = nn::Mlp::MakeMlp(input_dim, config.trunk_hidden, rep_dim,
                                   config.activation, config.dropout, rng);
  int num_heads = kind == NeuralCateKind::kDragonnet ? 3 : 2;
  std::vector<nn::Mlp> heads;
  heads.reserve(AsSize(num_heads));
  for (int h = 0; h < num_heads; ++h) {
    heads.push_back(nn::Mlp::MakeMlp(rep_dim, config.head_hidden, 1,
                                     config.activation, config.dropout,
                                     rng));
  }
  return std::make_unique<MultiHeadNet>(std::move(trunk), std::move(heads));
}

std::unique_ptr<nn::BatchLoss> BuildLoss(NeuralCateKind kind,
                                         const std::vector<int>* treatment,
                                         const std::vector<double>* y,
                                         const NeuralCateConfig& config) {
  switch (kind) {
    case NeuralCateKind::kTarnet:
    case NeuralCateKind::kSnet:
      return std::make_unique<FactualMseLoss>(treatment, y);
    case NeuralCateKind::kDragonnet:
      return std::make_unique<DragonnetLoss>(treatment, y,
                                             config.propensity_weight);
    case NeuralCateKind::kOffsetnet:
      return std::make_unique<OffsetLoss>(treatment, y);
  }
  ROICL_CHECK_MSG(false, "unknown NeuralCateKind");
  return nullptr;
}

}  // namespace

void NeuralCate::Fit(const Matrix& x, const std::vector<int>& treatment,
                     const std::vector<double>& y) {
  ROICL_CHECK(x.rows() == static_cast<int>(treatment.size()));
  ROICL_CHECK(treatment.size() == y.size());
  Matrix x_scaled = scaler_.FitTransform(x);

  Rng rng(config_.seed, /*stream=*/23);
  net_ = BuildNet(kind_, x.cols(), config_, &rng);
  std::unique_ptr<nn::BatchLoss> loss =
      BuildLoss(kind_, &treatment, &y, config_);

  // Carve a validation slice out of the training rows when early stopping
  // is requested.
  int n = x.rows();
  std::vector<int> all = rng.Permutation(n);
  std::vector<int> train_index = all;
  std::vector<int> validation_index;
  if (config_.train.patience > 0 && n >= 50) {
    int n_val = std::max(1, n / 10);
    validation_index.assign(all.begin(), all.begin() + n_val);
    train_index.assign(all.begin() + n_val, all.end());
  }
  nn::TrainNetwork(net_.get(), x_scaled, train_index, validation_index,
                   *loss, config_.train);
}

std::vector<double> NeuralCate::PredictCate(const Matrix& x) const {
  ROICL_CHECK_MSG(net_ != nullptr, "PredictCate() before Fit()");
  Matrix x_scaled = scaler_.Transform(x);
  Matrix preds = nn::BatchedInferForward(net_.get(), x_scaled);
  std::vector<double> tau(AsSize(x.rows()));
  if (kind_ == NeuralCateKind::kOffsetnet) {
    for (int i = 0; i < x.rows(); ++i) {
      tau[AsSize(i)] = preds(i, 1);  // delta head
    }
  } else {
    for (int i = 0; i < x.rows(); ++i) {
      tau[AsSize(i)] = preds(i, 1) - preds(i, 0);
    }
  }
  return tau;
}

Status NeuralCate::Save(std::ostream& out) const {
  if (net_ == nullptr) {
    return Status::FailedPrecondition("neural cate model not fitted");
  }
  const std::vector<double>& means = scaler_.means();
  const std::vector<double>& stds = scaler_.stddevs();
  out << "roicl-ncate-v1\n" << means.size() << '\n';
  out << std::setprecision(17);
  for (size_t i = 0; i < means.size(); ++i) {
    if (i > 0) out << ' ';
    out << means[i];
  }
  out << '\n';
  for (size_t i = 0; i < stds.size(); ++i) {
    if (i > 0) out << ' ';
    out << stds[i];
  }
  out << '\n';
  return nn::SaveNetworkParams(*net_, out);
}

Status NeuralCate::Load(std::istream& in) {
  std::string magic;
  if (!(in >> magic) || magic != "roicl-ncate-v1") {
    return Status::InvalidArgument("bad magic '" + magic +
                                   "' (expected roicl-ncate-v1)");
  }
  int dim = 0;
  if (!(in >> dim) || dim <= 0 || dim > 1000000) {
    return Status::InvalidArgument("bad neural cate feature dimension");
  }
  std::vector<double> means(AsSize(dim)), stds(AsSize(dim));
  for (double& m : means) {
    if (!(in >> m)) {
      return Status::InvalidArgument("truncated scaler means");
    }
  }
  for (double& s : stds) {
    if (!(in >> s)) {
      return Status::InvalidArgument("truncated scaler stddevs");
    }
    if (!(s > 0.0)) {
      return Status::InvalidArgument("scaler stddevs must be positive");
    }
  }
  // Rebuild the architecture exactly as Fit() does (same config, same
  // init stream) and then overwrite every parameter from the blob.
  Rng rng(config_.seed, /*stream=*/23);
  std::unique_ptr<nn::Network> net = BuildNet(kind_, dim, config_, &rng);
  if (Status status = nn::LoadNetworkParams(net.get(), in); !status.ok()) {
    return status;
  }
  scaler_ = StandardScaler::FromMoments(std::move(means), std::move(stds));
  net_ = std::move(net);
  return Status::Ok();
}

CateModelFactory MakeNeuralCateFactory(NeuralCateKind kind,
                                       const NeuralCateConfig& config) {
  return [kind, config] { return std::make_unique<NeuralCate>(kind, config); };
}

}  // namespace roicl::uplift
