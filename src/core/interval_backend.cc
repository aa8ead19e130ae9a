#include "core/interval_backend.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "common/macros.h"
#include "common/math_util.h"
#include "core/cqr.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace roicl::core {
namespace {

/// Weighted-conformal reference binning resolution over the served-score
/// weight variable.
constexpr std::size_t kWeightBinCount = 10;
/// Upper bound on persisted calibration rows — rejects absurd (corrupt)
/// artifact headers before allocating.
constexpr std::size_t kMaxPersistedRows = 10000000;
/// Likelihood-ratio clamp (Tibshirani et al. 2019 trim): a nearly-empty
/// reference bin cannot blow the quantile up unboundedly.
constexpr double kWeightClampLo = 1e-2;
constexpr double kWeightClampHi = 1e2;

/// The artifact magic of backend `name`, checked by Load.
std::string MagicOf(const std::string& name) {
  return "roicl-ivb-" + name + "-v1";
}

double MaxOf(const std::vector<double>& values) {
  return *std::max_element(values.begin(), values.end());
}

Status ValidateCalibrateArgs(const Matrix& x,
                             const std::vector<double>& roi_hat,
                             const std::vector<double>& r_hat,
                             const std::vector<double>& roi_star,
                             double alpha, double std_floor) {
  if (roi_hat.empty() || roi_hat.size() != r_hat.size() ||
      roi_hat.size() != roi_star.size() ||
      static_cast<std::size_t>(x.rows()) != roi_hat.size()) {
    return Status::InvalidArgument(
        "interval-backend calibration arrays must be non-empty and "
        "row-aligned with x");
  }
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return Status::InvalidArgument("alpha must be in (0, 1)");
  }
  if (!(std_floor > 0.0) || !std::isfinite(std_floor)) {
    return Status::InvalidArgument("std_floor must be positive and finite");
  }
  return Status::Ok();
}

}  // namespace

void IntervalBackend::SetWeightReference(std::vector<double> served) {
  weight_values_ = std::move(served);
  OnWeightReferenceChanged();
}

Status IntervalBackend::StreamAux(const Matrix& x, std::vector<double>* aux_lo,
                                  std::vector<double>* aux_hi) const {
  ROICL_CHECK(aux_lo != nullptr && aux_hi != nullptr);
  aux_lo->assign(AsSize(x.rows()), 0.0);
  aux_hi->assign(AsSize(x.rows()), 0.0);
  return Status::Ok();
}

std::size_t IntervalBackend::WeightBinOf(double served_score) const {
  (void)served_score;
  return 0;
}

StatusOr<double> IntervalBackend::FallbackQHat(
    double alpha, const std::vector<double>& live_bin_counts) const {
  (void)alpha;
  (void)live_bin_counts;
  return Status::FailedPrecondition("interval backend '" + name() +
                                    "' has no weighted fallback");
}

void IntervalBackend::FinishCalibration(std::vector<double> scores,
                                        double alpha, double std_floor) {
  ROICL_CHECK(!scores.empty());
  alpha_ = alpha;
  std_floor_ = std_floor;
  scores_ = std::move(scores);
  double q_hat = ConformalScoreQuantile(scores_, alpha);
  if (!std::isfinite(q_hat)) {
    // Calibration set too small for the requested alpha
    // (ceil((1-alpha)(n+1)) > n): fall back to the max score, the most
    // conservative finite quantile.
    q_hat = MaxOf(scores_);
    obs::MetricsRegistry::Global().GetGauge("conformal.q_hat")->Set(q_hat);
    obs::Warn("conformal quantile infinite; using max score",
              {{"q_hat", q_hat}, {"calibration_n", scores_.size()}});
  }
  // Floor at zero: a no-op for the non-negative Eq.(3) scores, and the
  // conservative direction (wider intervals) for CQR's signed E-scores —
  // the model's swappable atomic requires a non-negative quantile.
  q_hat_ = std::max(q_hat, 0.0);
  calibrated_ = true;
}

Status IntervalBackend::Save(std::ostream& out) const {
  if (!calibrated_) return Status::FailedPrecondition("not calibrated");
  out << MagicOf(name()) << '\n';
  out << std::setprecision(17);
  out << alpha_ << ' ' << std_floor_ << ' ' << q_hat_ << ' '
      << scores_.size() << ' ' << weight_values_.size() << '\n';
  for (double score : scores_) out << score << '\n';
  for (double value : weight_values_) out << value << '\n';
  if (!out) return Status::IoError("interval-backend write failed");
  return Status::Ok();
}

Status IntervalBackend::Load(std::istream& in) {
  const std::string expected = MagicOf(name());
  std::string magic;
  if (!(in >> magic)) {
    return Status::InvalidArgument("truncated interval-backend stream");
  }
  if (magic != expected) {
    return Status::InvalidArgument("bad interval-backend magic '" + magic +
                                   "' (expected " + expected + ")");
  }
  double alpha = 0.0;
  double std_floor = 0.0;
  double q_hat = 0.0;
  std::size_t n_scores = 0;
  std::size_t n_weights = 0;
  if (!(in >> alpha >> std_floor >> q_hat >> n_scores >> n_weights)) {
    return Status::InvalidArgument("truncated interval-backend header");
  }
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return Status::InvalidArgument("interval-backend alpha out of (0, 1)");
  }
  if (!(std_floor > 0.0) || !std::isfinite(std_floor)) {
    return Status::InvalidArgument("interval-backend std_floor invalid");
  }
  if (!std::isfinite(q_hat) || q_hat < 0.0) {
    return Status::InvalidArgument(
        "interval-backend q_hat must be finite and non-negative");
  }
  // Score/weight row alignment is only an invariant for Eq.(3)-score
  // backends (FallbackQHat indexes weight_values_[i] per score row);
  // cqr's conformity scores cover just the proper-split calibration half
  // while the weight reference spans every row.
  if (n_scores > kMaxPersistedRows || n_weights > kMaxPersistedRows ||
      (n_weights != 0 && n_weights != n_scores &&
       SharesSplitScoreSemantics())) {
    return Status::InvalidArgument("interval-backend row counts corrupt");
  }
  std::vector<double> scores(n_scores);
  for (double& score : scores) {
    if (!(in >> score) || !std::isfinite(score)) {
      return Status::InvalidArgument("interval-backend scores corrupt");
    }
  }
  std::vector<double> weights(n_weights);
  for (double& value : weights) {
    if (!(in >> value) || !std::isfinite(value)) {
      return Status::InvalidArgument(
          "interval-backend weight reference corrupt");
    }
  }
  alpha_ = alpha;
  std_floor_ = std_floor;
  q_hat_ = q_hat;
  scores_ = std::move(scores);
  weight_values_ = std::move(weights);
  calibrated_ = true;
  OnWeightReferenceChanged();
  return Status::Ok();
}

namespace {

/// Today's scalar split-conformal path (Algorithm 3), verbatim: Eq.(3)
/// scores, the ceil((1-alpha)(n+1)) quantile, symmetric intervals. The
/// bitwise reference the other backends are measured against.
class SplitBackend : public IntervalBackend {
 public:
  std::string name() const override { return "split"; }

  Status Calibrate(const Matrix& x, const std::vector<double>& roi_hat,
                   const std::vector<double>& r_hat,
                   const std::vector<double>& roi_star, double alpha,
                   double std_floor) override {
    Status valid =
        ValidateCalibrateArgs(x, roi_hat, r_hat, roi_star, alpha, std_floor);
    if (!valid.ok()) return valid;
    FinishCalibration(ConformalScores(roi_star, roi_hat, r_hat, std_floor),
                      alpha, std_floor);
    return Status::Ok();
  }

  double StreamScore(double roi_hat, double r_hat, double roi_star,
                     double aux_lo, double aux_hi) const override {
    (void)aux_lo;
    (void)aux_hi;
    return std::fabs(roi_star - roi_hat) / std::max(r_hat, std_floor_);
  }

  std::vector<metrics::Interval> Intervals(
      const Matrix& x, const std::vector<double>& roi_hat,
      const std::vector<double>& r_hat, double q_hat) const override {
    (void)x;
    return ConformalIntervals(roi_hat, r_hat, q_hat, std_floor_);
  }
};

/// Weighted conformal under covariate shift (Tibshirani et al. 2019):
/// split's Eq.(3) scores, quantile and intervals (uniform weights at
/// calibration time), plus a label-free fallback that reweights each
/// calibration score by the likelihood ratio live/reference of its
/// served-score bin before taking the quantile — repairing miscoverage
/// from a shifted input distribution without any window labels, where
/// ACI can only react to observed misses.
class WeightedBackend : public SplitBackend {
 public:
  std::string name() const override { return "weighted"; }

  std::size_t WeightBins() const override {
    return bins_ready_ ? kWeightBinCount : 0;
  }

  std::size_t WeightBinOf(double served_score) const override {
    if (!bins_ready_) return 0;
    return BinIndex(served_score);
  }

  StatusOr<double> FallbackQHat(
      double alpha, const std::vector<double>& live_bin_counts) const override {
    if (!calibrated_ || scores_.empty()) {
      return Status::FailedPrecondition("weighted fallback before Calibrate()");
    }
    if (!bins_ready_) {
      return Status::FailedPrecondition(
          "weighted backend has no weight reference");
    }
    if (!(alpha > 0.0 && alpha < 1.0)) {
      return Status::InvalidArgument("alpha must be in (0, 1)");
    }
    if (!live_bin_counts.empty() &&
        live_bin_counts.size() != kWeightBinCount) {
      return Status::InvalidArgument("live weight-count vector size mismatch");
    }
    // Per-bin likelihood ratios from smoothed live vs reference masses.
    // No live data yet -> uniform weights, which reduces the weighted
    // quantile to exactly the unweighted ceil((1-alpha)(n+1)) rank.
    std::vector<double> bin_weight(kWeightBinCount, 1.0);
    double live_total = std::accumulate(live_bin_counts.begin(),
                                        live_bin_counts.end(), 0.0);
    if (live_total > 0.0) {
      for (std::size_t b = 0; b < kWeightBinCount; ++b) {
        double live_prob =
            (live_bin_counts[b] + 0.5) /
            (live_total + 0.5 * static_cast<double>(kWeightBinCount));
        bin_weight[b] = std::clamp(live_prob / ref_prob_[b], kWeightClampLo,
                                   kWeightClampHi);
      }
    }
    std::vector<std::size_t> order(scores_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [this](std::size_t a, std::size_t b) {
                return scores_[a] < scores_[b];
              });
    double total = 0.0;
    for (std::size_t i = 0; i < scores_.size(); ++i) {
      total += bin_weight[BinIndex(weight_values_[i])];
    }
    // Conservative test-point mass: the largest ratio any bin attains.
    total += MaxOf(bin_weight);
    double cumulative = 0.0;
    for (std::size_t i : order) {
      cumulative += bin_weight[BinIndex(weight_values_[i])];
      if (cumulative / total >= 1.0 - alpha) return scores_[i];
    }
    // Level unreachable (the analogue of rank > n): the caller applies
    // the max-score convention.
    return std::numeric_limits<double>::infinity();
  }

 protected:
  void OnWeightReferenceChanged() override {
    bins_ready_ = false;
    edges_.clear();
    ref_prob_.clear();
    if (weight_values_.size() < kWeightBinCount) return;
    std::vector<double> sorted = weight_values_;
    std::sort(sorted.begin(), sorted.end());
    edges_.resize(kWeightBinCount - 1);
    for (std::size_t b = 1; b < kWeightBinCount; ++b) {
      edges_[b - 1] = sorted[b * sorted.size() / kWeightBinCount];
    }
    std::vector<double> counts(kWeightBinCount, 0.0);
    bins_ready_ = true;  // BinIndex needs the edges in place.
    for (double value : weight_values_) counts[BinIndex(value)] += 1.0;
    ref_prob_.resize(kWeightBinCount);
    double n = static_cast<double>(weight_values_.size());
    for (std::size_t b = 0; b < kWeightBinCount; ++b) {
      // Add-half smoothing keeps every reference mass positive even when
      // duplicate quantile edges empty a bin.
      ref_prob_[b] = (counts[b] + 0.5) /
                     (n + 0.5 * static_cast<double>(kWeightBinCount));
    }
  }

 private:
  std::size_t BinIndex(double value) const {
    return static_cast<std::size_t>(
        std::upper_bound(edges_.begin(), edges_.end(), value) -
        edges_.begin());
  }

  bool bins_ready_ = false;
  std::vector<double> edges_;
  std::vector<double> ref_prob_;
};

CqrConfig BackendCqrConfig(double alpha) {
  CqrConfig config;
  config.alpha = alpha;
  config.hidden = {32};
  config.train.epochs = 40;
  config.train.batch_size = 64;
  config.train.learning_rate = 5e-3;
  config.train.patience = 0;
  config.seed = 55;
  return config;
}

/// CQR (Romano et al. 2019) re-purposed onto rDRP's normalized residuals
/// e = (roi* - roi_hat) / max(r_hat, floor): quantile heads fit on the
/// first half of the calibration set, conformity scores
/// E = max(q_lo - e, e - q_hi) on the second (proper split CP), serving
/// intervals roi_hat + max(r_hat, floor) * [q_lo - q, q_hi + q]. The
/// coverage check score <= q is therefore equivalent to roi* lying in
/// the interval, matching the other backends' monitor contract.
class CqrBackend : public IntervalBackend {
 public:
  std::string name() const override { return "cqr"; }

  Status Calibrate(const Matrix& x, const std::vector<double>& roi_hat,
                   const std::vector<double>& r_hat,
                   const std::vector<double>& roi_star, double alpha,
                   double std_floor) override {
    Status valid =
        ValidateCalibrateArgs(x, roi_hat, r_hat, roi_star, alpha, std_floor);
    if (!valid.ok()) return valid;
    int n = x.rows();
    if (n < 8) {
      return Status::InvalidArgument(
          "cqr interval backend needs >= 8 calibration rows");
    }
    std::vector<double> residual(AsSize(n));
    for (int i = 0; i < n; ++i) {
      residual[AsSize(i)] = (roi_star[AsSize(i)] - roi_hat[AsSize(i)]) /
                            std::max(r_hat[AsSize(i)], std_floor);
    }
    int n_fit = n / 2;
    std::vector<int> fit_rows(AsSize(n_fit));
    std::vector<int> cal_rows(AsSize(n - n_fit));
    for (int i = 0; i < n_fit; ++i) fit_rows[AsSize(i)] = i;
    for (int i = n_fit; i < n; ++i) cal_rows[AsSize(i - n_fit)] = i;
    std::vector<double> fit_targets(residual.begin(),
                                    residual.begin() + n_fit);
    model_ = std::make_unique<CqrModel>(BackendCqrConfig(alpha));
    model_->Fit(x.SelectRows(fit_rows), fit_targets);
    std::vector<metrics::Interval> raw =
        model_->PredictRawIntervals(x.SelectRows(cal_rows));
    std::vector<double> conformity(cal_rows.size());
    for (std::size_t i = 0; i < cal_rows.size(); ++i) {
      double e = residual[AsSize(cal_rows[i])];
      conformity[i] = std::max(raw[i].lo - e, e - raw[i].hi);
    }
    FinishCalibration(std::move(conformity), alpha, std_floor);
    return Status::Ok();
  }

  Status StreamAux(const Matrix& x, std::vector<double>* aux_lo,
                   std::vector<double>* aux_hi) const override {
    ROICL_CHECK(aux_lo != nullptr && aux_hi != nullptr);
    if (model_ == nullptr || !model_->fitted()) {
      return Status::FailedPrecondition("cqr StreamAux before Calibrate()");
    }
    std::vector<metrics::Interval> raw = model_->PredictRawIntervals(x);
    aux_lo->resize(raw.size());
    aux_hi->resize(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      (*aux_lo)[i] = raw[i].lo;
      (*aux_hi)[i] = raw[i].hi;
    }
    return Status::Ok();
  }

  double StreamScore(double roi_hat, double r_hat, double roi_star,
                     double aux_lo, double aux_hi) const override {
    double e = (roi_star - roi_hat) / std::max(r_hat, std_floor_);
    return std::max(aux_lo - e, e - aux_hi);
  }

  std::vector<metrics::Interval> Intervals(
      const Matrix& x, const std::vector<double>& roi_hat,
      const std::vector<double>& r_hat, double q_hat) const override {
    ROICL_CHECK_MSG(model_ != nullptr && model_->fitted(),
                    "cqr Intervals() before Calibrate()");
    std::vector<metrics::Interval> raw = model_->PredictRawIntervals(x);
    std::vector<metrics::Interval> intervals(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      double scale = std::max(r_hat[i], std_floor_);
      intervals[i].lo = roi_hat[i] + scale * (raw[i].lo - q_hat);
      intervals[i].hi = roi_hat[i] + scale * (raw[i].hi + q_hat);
    }
    return intervals;
  }

  Status Save(std::ostream& out) const override {
    if (model_ == nullptr) return Status::FailedPrecondition("not calibrated");
    Status common = IntervalBackend::Save(out);
    if (!common.ok()) return common;
    return model_->Save(out);
  }

  Status Load(std::istream& in) override {
    Status common = IntervalBackend::Load(in);
    if (!common.ok()) return common;
    StatusOr<CqrModel> model = CqrModel::Load(in, BackendCqrConfig(alpha_));
    if (!model.ok()) return model.status();
    model_ = std::make_unique<CqrModel>(std::move(model).value());
    return Status::Ok();
  }

 protected:
  bool SharesSplitScoreSemantics() const override { return false; }

 private:
  std::unique_ptr<CqrModel> model_;
};

using BackendFactory = std::unique_ptr<IntervalBackend> (*)();

class BackendRegistry {
 public:
  void Register(const std::string& name, BackendFactory factory) {
    factories_[name] = factory;
  }
  const std::map<std::string, BackendFactory>& factories() const {
    return factories_;
  }

 private:
  std::map<std::string, BackendFactory> factories_;
};

const BackendRegistry& GlobalBackendRegistry() {
  static const BackendRegistry* registry = [] {
    auto* r = new BackendRegistry();
    r->Register("split", []() -> std::unique_ptr<IntervalBackend> {
      return std::make_unique<SplitBackend>();
    });
    r->Register("weighted", []() -> std::unique_ptr<IntervalBackend> {
      return std::make_unique<WeightedBackend>();
    });
    r->Register("cqr", []() -> std::unique_ptr<IntervalBackend> {
      return std::make_unique<CqrBackend>();
    });
    return r;
  }();
  return *registry;
}

}  // namespace

StatusOr<std::unique_ptr<IntervalBackend>> MakeIntervalBackend(
    const std::string& name) {
  const auto& factories = GlobalBackendRegistry().factories();
  auto it = factories.find(name);
  if (it == factories.end()) {
    return Status::InvalidArgument("unknown interval backend '" + name +
                                   "' (known: " + IntervalBackendNamesCsv() +
                                   ")");
  }
  return it->second();
}

std::string IntervalBackendNamesCsv() {
  std::string csv;
  for (const char* name : kIntervalBackendNames) {
    if (!csv.empty()) csv += ", ";
    csv += name;
  }
  return csv;
}

bool IsIntervalBackendName(const std::string& name) {
  const auto& factories = GlobalBackendRegistry().factories();
  return factories.find(name) != factories.end();
}

}  // namespace roicl::core
