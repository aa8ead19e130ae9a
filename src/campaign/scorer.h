#ifndef ROICL_CAMPAIGN_SCORER_H_
#define ROICL_CAMPAIGN_SCORER_H_

#include <array>
#include <functional>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"
#include "campaign/karm_rank_net.h"
#include "core/rdrp.h"
#include "data/dataset.h"
#include "metrics/coverage.h"
#include "synth/multi_treatment.h"

namespace roicl::campaign {

/// Shared knobs for every registered K-arm scorer. Kept as plain configs
/// (no pipeline dependency) so the campaign layer sits beside, not on
/// top of, the binary pipeline.
struct CampaignScorerConfig {
  core::RdrpConfig rdrp;
  KArmRankNetConfig ranknet;
};

/// A K-arm campaign scorer: fits on a multi-treatment RCT sample and
/// scores every (user, arm) pair. Scorers that calibrate conformal
/// intervals additionally expose per-arm intervals; ranking-only scorers
/// report supports_intervals() == false and CHECK on interval calls.
class KArmScorer {
 public:
  virtual ~KArmScorer() = default;

  virtual void FitWithCalibration(
      const synth::MultiTreatmentDataset& train,
      const synth::MultiTreatmentDataset& calibration) = 0;

  /// result[k][i] is arm (k+1)'s score for row i of x.
  virtual std::vector<std::vector<double>> PredictRoiPerArm(
      const Matrix& x) const = 0;

  virtual bool supports_intervals() const { return false; }
  virtual std::vector<std::vector<metrics::Interval>> PredictIntervalsPerArm(
      const Matrix& x) const;

  /// Bitwise-stable serialization: save -> load -> predict must equal the
  /// fitted model's predictions exactly (campaign_pipeline_test runs the
  /// roundtrip for every name in kCampaignScorerNames).
  virtual Status Save(std::ostream& out) const = 0;
};

/// The registered K-arm scorer names, in registry (lexicographic) order.
/// Kept as a compile-time array so tests and the CLI can iterate the
/// full roster; CampaignRegistry.RosterMatchesCompileTimeNames pins it
/// against the Register() calls in scorer.cc.
inline constexpr std::array<const char*, 2> kCampaignScorerNames = {
    "dnc-ranknet", "dnc-rdrp"};

/// Name -> factory/loader registry for K-arm campaign scorers, mirroring
/// the binary pipeline's ScorerRegistry shape at campaign scope.
class CampaignScorerRegistry {
 public:
  using Factory = std::function<std::unique_ptr<KArmScorer>(
      const CampaignScorerConfig&)>;
  using Loader = std::function<StatusOr<std::unique_ptr<KArmScorer>>(
      std::istream&, const CampaignScorerConfig&)>;

  void Register(const std::string& name, Factory factory, Loader loader);

  /// Creates an unfitted scorer; InvalidArgument for unknown names.
  StatusOr<std::unique_ptr<KArmScorer>> Create(
      const std::string& name, const CampaignScorerConfig& config) const;

  /// Restores a scorer saved by KArmScorer::Save.
  StatusOr<std::unique_ptr<KArmScorer>> Load(
      const std::string& name, std::istream& in,
      const CampaignScorerConfig& config) const;

  std::vector<std::string> Names() const;

  /// The process-wide registry, populated with the built-in scorers on
  /// first use.
  static const CampaignScorerRegistry& Global();

 private:
  struct Entry {
    Factory factory;
    Loader loader;
  };
  std::map<std::string, Entry> entries_;
};

}  // namespace roicl::campaign

#endif  // ROICL_CAMPAIGN_SCORER_H_
