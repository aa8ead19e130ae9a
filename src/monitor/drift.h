#ifndef ROICL_MONITOR_DRIFT_H_
#define ROICL_MONITOR_DRIFT_H_

#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Streaming drift detection for the serving path.
///
/// Each monitored channel (a feature column, the served-score stream, the
/// conformal-score stream) compares a *reference* distribution captured at
/// calibration time against a *live window* of production traffic using
/// two binned statistics:
///
///  * PSI — the population stability index,
///    sum_b (p_live(b) - p_ref(b)) * ln(p_live(b) / p_ref(b)),
///    the industry-standard shift score (> 0.2 is "significant shift");
///  * a binned KS statistic — the maximum ECDF gap over the shared bin
///    boundaries, a discretized two-sample Kolmogorov-Smirnov distance.
///
/// Both statistics are computed from integer bin counts, and bin counts
/// are the *only* live state. Counts are mergeable (integer adds commute),
/// so the batched prediction engine can accumulate per-block partial
/// counts on worker threads and merge them in any order with a
/// bit-identical result at every thread count — the same determinism
/// contract as MakeCounterRng, achieved with counters instead of streams.
namespace roicl::monitor {

/// Trigger thresholds for one channel evaluation.
struct DriftThresholds {
  /// PSI above this triggers. 0.2 is the conventional "significant
  /// population shift" cutoff; 0.1-0.2 is "moderate".
  double psi = 0.2;
  /// Binned-KS gap above this triggers.
  double ks = 0.15;
  /// Windows smaller than this are never evaluated (both statistics are
  /// noise-dominated on tiny samples).
  uint64_t min_window = 200;
};

/// A fixed binning of one channel captured from calibration-time samples:
/// quantile bin edges plus the reference probability mass per bin
/// (floored so PSI's logarithms stay finite on empty bins).
class ReferenceDistribution {
 public:
  /// Builds `num_bins` quantile bins from calibration samples (edges at
  /// the k/num_bins empirical quantiles). Requires a non-empty sample set
  /// and num_bins >= 2. Duplicate quantile edges (heavily discrete
  /// channels) are allowed: interior empty bins simply carry floor mass.
  static ReferenceDistribution FromSamples(std::vector<double> samples,
                                           int num_bins);

  int num_bins() const;
  /// The bin index of a value, in [0, num_bins()).
  int BinOf(double value) const;
  /// Reference probability per bin (floored, renormalized).
  const std::vector<double>& probabilities() const { return probs_; }
  /// Interior bin edges, size num_bins() - 1.
  const std::vector<double>& edges() const { return edges_; }

 private:
  std::vector<double> edges_;
  std::vector<double> probs_;
};

/// Mergeable live-window state for one channel: integer bin counts.
struct WindowCounts {
  std::vector<uint64_t> counts;
  uint64_t total = 0;

  explicit WindowCounts(int num_bins = 0)
      : counts(static_cast<size_t>(num_bins), 0) {}

  void Add(int bin);
  /// Integer adds — commutative and associative, so any merge order over
  /// any partition of the stream yields identical state.
  void Merge(const WindowCounts& other);
  void Reset();
};

/// One channel's evaluation result.
struct DriftReport {
  std::string channel;
  double psi = 0.0;
  double ks = 0.0;
  double psi_threshold = 0.0;
  double ks_threshold = 0.0;
  uint64_t window_n = 0;
  bool triggered = false;
};

/// PSI between a reference and a live window (live mass floored like the
/// reference). Zero when the window is empty.
double PopulationStabilityIndex(const ReferenceDistribution& reference,
                                const WindowCounts& window);

/// Binned KS: max |CDF_live - CDF_ref| over bin boundaries. Zero when the
/// window is empty.
double BinnedKsStatistic(const ReferenceDistribution& reference,
                         const WindowCounts& window);

/// A set of named channels with their references and live windows.
/// Accumulate() is stateless with respect to the detector (it only bins),
/// so worker threads can fill thread-local WindowCounts in parallel;
/// Commit() merges them into the live window.
class DriftDetector {
 public:
  explicit DriftDetector(DriftThresholds thresholds = {})
      : thresholds_(thresholds) {}

  /// Registers a channel; returns its index.
  int AddChannel(std::string name, ReferenceDistribution reference);
  int num_channels() const;

  /// An empty, correctly sized partial-count buffer for a channel.
  WindowCounts MakeCounts(int channel) const;
  /// Bins one value into caller-owned partial counts (no detector state
  /// is touched — safe to call concurrently from any thread).
  void Accumulate(int channel, double value, WindowCounts* counts) const;
  /// Merges partial counts into the channel's live window.
  void Commit(int channel, const WindowCounts& counts);
  /// Replaces a channel's reference and clears its live window, whose
  /// counts were binned against the old one.
  void ReplaceReference(int channel, ReferenceDistribution reference);

  /// Smallest live-window count across channels (windows can differ: the
  /// conformal-score channel is fed from the sparser feedback stream).
  uint64_t min_window_n() const;

  /// Evaluates every channel against the thresholds. Channels below
  /// min_window report triggered = false with their current statistics.
  /// `reset` clears the live windows afterwards (tumbling windows).
  std::vector<DriftReport> Evaluate(bool reset);

 private:
  struct Channel {
    std::string name;
    ReferenceDistribution reference;
    WindowCounts window;
  };

  DriftThresholds thresholds_;
  std::vector<Channel> channels_;
};

}  // namespace roicl::monitor

#endif  // ROICL_MONITOR_DRIFT_H_
