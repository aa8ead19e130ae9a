#include "pipeline/pipeline.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/interval_backend.h"
#include "core/roi_star.h"
#include "obs/log.h"

namespace roicl::pipeline {
namespace {

// v2 added the mandatory interval_backend manifest section; v1 artifacts
// (which baked split-conformal semantics into the model blob alone) are
// rejected with a version error rather than silently defaulted.
constexpr char kMagic[] = "roicl-pipeline-v2";
constexpr char kMagicPrefix[] = "roicl-pipeline-v";

/// Reads one "<key> <rest of line>" manifest entry; the value may be
/// empty. Returns false on stream end or key mismatch.
bool ReadKeyedLine(std::istream& in, const std::string& key,
                   std::string* value) {
  std::string token;
  if (!(in >> token) || token != key) return false;
  // Consume the single separating space (if any), then take the rest of
  // the line verbatim so dataset names may contain spaces.
  if (in.peek() == ' ') in.get();
  std::getline(in, *value);
  return static_cast<bool>(in);
}

}  // namespace

StatusOr<Pipeline> Pipeline::Train(const std::string& scorer_name,
                                   const Hyperparams& hp,
                                   const RctDataset& train,
                                   const RctDataset* calibration,
                                   Provenance provenance) {
  ScorerRegistry& registry = ScorerRegistry::Global();
  StatusOr<std::string> resolved = registry.Resolve(scorer_name);
  if (!resolved.ok()) return resolved.status();
  StatusOr<std::unique_ptr<RoiScorer>> scorer =
      registry.Create(resolved.value(), hp);
  if (!scorer.ok()) return scorer.status();

  Pipeline pipeline;
  pipeline.scorer_name_ = resolved.value();
  pipeline.hp_ = hp;
  pipeline.provenance_ = std::move(provenance);
  pipeline.scorer_ = std::move(scorer).value();
  if (calibration != nullptr) {
    pipeline.scorer_->FitWithCalibration(train, *calibration);
  } else {
    pipeline.scorer_->Fit(train);
  }
  pipeline.feature_dim_ = train.dim();
  obs::Info("pipeline trained", {{"scorer", pipeline.scorer_name_},
                                 {"n", train.n()},
                                 {"dim", pipeline.feature_dim_}});
  return pipeline;
}

Status Pipeline::CheckFeatures(const Matrix& x) const {
  if (x.cols() != feature_dim_) {
    return Status::InvalidArgument(
        "feature dimension mismatch: pipeline expects " +
        std::to_string(feature_dim_) + " features but input has " +
        std::to_string(x.cols()));
  }
  // A NaN would pass through ReLU as 0 and score as a confident row.
  for (int i = 0; i < x.rows(); ++i) {
    const double* row = x.RowPtr(i);
    for (int c = 0; c < x.cols(); ++c) {
      if (!std::isfinite(row[c])) {
        return Status::InvalidArgument(
            "non-finite feature at row " + std::to_string(i) + " column " +
            std::to_string(c));
      }
    }
  }
  return Status::Ok();
}

StatusOr<std::vector<double>> Pipeline::Score(const Matrix& x) const {
  if (Status status = CheckFeatures(x); !status.ok()) return status;
  return scorer_->PredictRoi(x);
}

StatusOr<core::McDropoutStats> Pipeline::ScoreMc(const Matrix& x,
                                                 int passes,
                                                 uint64_t seed) const {
  if (Status status = CheckFeatures(x); !status.ok()) return status;
  return scorer_->ScoreMc(x, passes, seed);
}

StatusOr<std::vector<metrics::Interval>> Pipeline::ScoreIntervals(
    const Matrix& x) const {
  if (Status status = CheckFeatures(x); !status.ok()) return status;
  return scorer_->ScoreIntervals(x);
}

StatusOr<RoiScorer::ConformalInputs> Pipeline::ConformalScoreInputs(
    const Matrix& x) const {
  if (Status status = CheckFeatures(x); !status.ok()) return status;
  return scorer_->ConformalScoreInputs(x);
}

Status Pipeline::RebindIntervalBackend(const std::string& name,
                                       const RctDataset* calibration) {
  if (!scorer_->has_conformal_quantile()) {
    return Status::FailedPrecondition(
        "scorer '" + scorer_name_ + "' has no interval state to rebind");
  }
  const core::IntervalBackend* current = scorer_->interval_backend();
  if (current == nullptr) {
    return Status::FailedPrecondition(
        "pipeline carries no interval backend");
  }
  if (current->name() == name) return Status::Ok();
  StatusOr<std::unique_ptr<core::IntervalBackend>> made =
      core::MakeIntervalBackend(name);
  if (!made.ok()) return made.status();
  std::unique_ptr<core::IntervalBackend> target = std::move(made).value();
  if (calibration != nullptr) {
    // Full recalibration: the same ingredients FitWithCalibration fed the
    // original backend (point estimates, MC stds, the Algorithm-2
    // convergence point), so rebinding on the training-time calibration
    // set reproduces the would-have-been-trained backend exactly.
    StatusOr<RoiScorer::ConformalInputs> inputs =
        ConformalScoreInputs(calibration->x);
    if (!inputs.ok()) return inputs.status();
    double roi_star =
        core::BinarySearchRoiStar(*calibration, core::RdrpConfig().epsilon);
    std::vector<double> roi_star_vec(inputs.value().roi_hat.size(),
                                     roi_star);
    if (Status status = target->Calibrate(
            calibration->x, inputs.value().roi_hat, inputs.value().r_hat,
            roi_star_vec, hp_.alpha, core::kDefaultStdFloor);
        !status.ok()) {
      return status;
    }
    StatusOr<std::vector<double>> served = Score(calibration->x);
    if (!served.ok()) return served.status();
    target->SetWeightReference(std::move(served).value());
  } else {
    // Stateless conversion from the persisted calibration state; only
    // legal between backends sharing Eq.(3) score semantics.
    if (Status status = target->InitFromState(*current); !status.ok()) {
      return status;
    }
  }
  double q_hat = target->q_hat();
  if (Status status = scorer_->AdoptIntervalBackend(std::move(target));
      !status.ok()) {
    return status;
  }
  hp_.interval_backend = name;
  // Seed the live serving scalar with the rebound backend's calibration
  // quantile (one atomic swap; concurrent scoring never tears).
  return SetConformalQuantile(q_hat);
}

Status Pipeline::Save(std::ostream& out) const {
  if (scorer_ == nullptr || feature_dim_ <= 0) {
    return Status::FailedPrecondition("pipeline not trained");
  }
  out << kMagic << '\n';
  out << "scorer " << scorer_name_ << '\n';
  out << "feature_dim " << feature_dim_ << '\n';
  out << "provenance.seed " << provenance_.seed << '\n';
  out << "provenance.dataset " << provenance_.dataset << '\n';
  out << "provenance.git " << provenance_.git_describe << '\n';
  out << "provenance.tool " << provenance_.tool << '\n';
  out << "hyperparams " << SerializeHyperparams(hp_) << '\n';
  const core::IntervalBackend* backend = scorer_->interval_backend();
  if (backend != nullptr) {
    out << "interval_backend " << backend->name() << '\n';
    if (Status status = backend->Save(out); !status.ok()) return status;
  } else {
    out << "interval_backend none\n";
  }
  out << "model\n";
  if (Status status = scorer_->SaveModel(out); !status.ok()) return status;
  if (!out) return Status::IoError("stream write failed");
  return Status::Ok();
}

Status Pipeline::SaveToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  return Save(out);
}

StatusOr<Pipeline> Pipeline::Load(std::istream& in) {
  std::string magic;
  if (!(in >> magic)) {
    return Status::InvalidArgument("empty or truncated pipeline stream");
  }
  if (magic != kMagic) {
    if (magic.rfind(kMagicPrefix, 0) == 0) {
      return Status::InvalidArgument("unsupported pipeline format version '" +
                                     magic + "' (expected " + kMagic + ")");
    }
    return Status::InvalidArgument("bad magic '" + magic + "' (expected " +
                                   kMagic + ")");
  }
  std::string scorer_name;
  if (!ReadKeyedLine(in, "scorer", &scorer_name) || scorer_name.empty()) {
    return Status::InvalidArgument("missing scorer name in manifest");
  }
  std::string dim_text;
  if (!ReadKeyedLine(in, "feature_dim", &dim_text)) {
    return Status::InvalidArgument("missing feature_dim in manifest");
  }
  int feature_dim = 0;
  {
    std::istringstream dim_in(dim_text);
    if (!(dim_in >> feature_dim) || feature_dim <= 0 ||
        feature_dim > 1000000) {
      return Status::InvalidArgument("bad manifest feature_dim '" +
                                     dim_text + "'");
    }
  }
  Provenance provenance;
  std::string seed_text;
  if (!ReadKeyedLine(in, "provenance.seed", &seed_text)) {
    return Status::InvalidArgument("missing provenance.seed in manifest");
  }
  {
    std::istringstream seed_in(seed_text);
    if (!(seed_in >> provenance.seed)) {
      return Status::InvalidArgument("bad provenance.seed '" + seed_text +
                                     "'");
    }
  }
  if (!ReadKeyedLine(in, "provenance.dataset", &provenance.dataset) ||
      !ReadKeyedLine(in, "provenance.git", &provenance.git_describe) ||
      !ReadKeyedLine(in, "provenance.tool", &provenance.tool)) {
    return Status::InvalidArgument("truncated provenance block");
  }
  std::string hp_line;
  if (!ReadKeyedLine(in, "hyperparams", &hp_line)) {
    return Status::InvalidArgument("missing hyperparams in manifest");
  }
  StatusOr<Hyperparams> hp = ParseHyperparams(hp_line);
  if (!hp.ok()) return hp.status();
  std::string backend_name;
  if (!ReadKeyedLine(in, "interval_backend", &backend_name) ||
      backend_name.empty()) {
    return Status::InvalidArgument(
        "missing interval_backend section in manifest");
  }
  std::unique_ptr<core::IntervalBackend> backend;
  if (backend_name != "none") {
    StatusOr<std::unique_ptr<core::IntervalBackend>> made =
        core::MakeIntervalBackend(backend_name);
    if (!made.ok()) return made.status();
    backend = std::move(made).value();
    if (Status status = backend->Load(in); !status.ok()) return status;
    // The hyperparam knob and the persisted section must agree, or the
    // artifact was stitched together from mismatched halves.
    if (hp.value().interval_backend != backend_name) {
      return Status::InvalidArgument(
          "manifest hyperparams say interval_backend=" +
          hp.value().interval_backend + " but the interval section is '" +
          backend_name + "'");
    }
  }
  std::string marker;
  if (!(in >> marker) || marker != "model") {
    return Status::InvalidArgument("missing model section marker");
  }

  ScorerRegistry& registry = ScorerRegistry::Global();
  if (!registry.Has(scorer_name)) {
    StatusOr<std::string> resolved = registry.Resolve(scorer_name);
    if (!resolved.ok()) return resolved.status();
    scorer_name = resolved.value();
  }
  StatusOr<std::unique_ptr<RoiScorer>> scorer =
      registry.Create(scorer_name, hp.value());
  if (!scorer.ok()) return scorer.status();
  if (Status status = scorer.value()->LoadModel(in); !status.ok()) {
    return status;
  }
  // Strict manifest/model agreement: a tampered or mispaired blob must
  // not survive to prediction time.
  int model_dim = scorer.value()->feature_dim();
  if (model_dim > 0 && model_dim != feature_dim) {
    return Status::InvalidArgument(
        "manifest/model feature-dimension mismatch: manifest says " +
        std::to_string(feature_dim) + ", model expects " +
        std::to_string(model_dim));
  }
  // Interval state and scorer capability must pair up exactly: a
  // conformal scorer without its interval section (or a point scorer
  // carrying one) is a corrupt or mispaired artifact.
  if (backend != nullptr) {
    if (Status status =
            scorer.value()->AdoptIntervalBackend(std::move(backend));
        !status.ok()) {
      return Status::InvalidArgument(
          "artifact carries interval state but scorer '" + scorer_name +
          "' cannot adopt it: " + status.message());
    }
  } else if (scorer.value()->has_conformal_quantile()) {
    return Status::InvalidArgument(
        "conformal scorer '" + scorer_name +
        "' artifact is missing its interval-backend section");
  }

  Pipeline pipeline;
  pipeline.scorer_name_ = scorer_name;
  pipeline.feature_dim_ = feature_dim;
  pipeline.hp_ = hp.value();
  pipeline.provenance_ = std::move(provenance);
  pipeline.scorer_ = std::move(scorer).value();
  return pipeline;
}

StatusOr<Pipeline> Pipeline::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  return Load(in);
}

}  // namespace roicl::pipeline
