#include "monitor/drift.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/macros.h"
#include "common/math_util.h"

namespace roicl::monitor {
namespace {

/// Probability floor for PSI: empty bins on either side would make the
/// logarithm infinite, so both distributions are floored and renormalized.
constexpr double kProbFloor = 1e-4;

std::vector<double> FloorAndNormalize(std::vector<double> probs) {
  double total = 0.0;
  for (double& p : probs) {
    p = std::max(p, kProbFloor);
    total += p;
  }
  ROICL_CHECK(total > 0.0);
  for (double& p : probs) p /= total;
  return probs;
}

}  // namespace

ReferenceDistribution ReferenceDistribution::FromSamples(
    std::vector<double> samples, int num_bins) {
  ROICL_CHECK_MSG(!samples.empty(), "reference needs samples");
  ROICL_CHECK_MSG(num_bins >= 2, "reference needs >= 2 bins");
  std::sort(samples.begin(), samples.end());
  ReferenceDistribution reference;
  reference.edges_.reserve(AsSize(num_bins - 1));
  for (int b = 1; b < num_bins; ++b) {
    double p = static_cast<double>(b) / static_cast<double>(num_bins);
    // Quantile over a sorted vector; type-7 interpolation like
    // common/stats, computed inline to avoid re-sorting per edge.
    double pos = p * static_cast<double>(samples.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = pos - static_cast<double>(lo);
    reference.edges_.push_back(samples[lo] +
                               frac * (samples[hi] - samples[lo]));
  }
  // Count the calibration mass per bin with the same BinOf the live path
  // uses, so ties on duplicate edges resolve identically on both sides.
  std::vector<double> probs(AsSize(num_bins), 0.0);
  for (double v : samples) {
    probs[AsSize(reference.BinOf(v))] += 1.0;
  }
  for (double& p : probs) p /= static_cast<double>(samples.size());
  reference.probs_ = FloorAndNormalize(std::move(probs));
  return reference;
}

int ReferenceDistribution::num_bins() const {
  return AsInt(probs_.size());
}

int ReferenceDistribution::BinOf(double value) const {
  // First edge >= value; values on an edge fall in the lower bin.
  auto it = std::lower_bound(edges_.begin(), edges_.end(), value);
  return AsInt(static_cast<size_t>(it - edges_.begin()));
}

void WindowCounts::Add(int bin) {
  ROICL_DCHECK(bin >= 0 && AsSize(bin) < counts.size());
  ++counts[AsSize(bin)];
  ++total;
}

void WindowCounts::Merge(const WindowCounts& other) {
  ROICL_CHECK(counts.size() == other.counts.size());
  for (size_t b = 0; b < counts.size(); ++b) counts[b] += other.counts[b];
  total += other.total;
}

void WindowCounts::Reset() {
  std::fill(counts.begin(), counts.end(), 0);
  total = 0;
}

double PopulationStabilityIndex(const ReferenceDistribution& reference,
                                const WindowCounts& window) {
  if (window.total == 0) return 0.0;
  ROICL_CHECK(window.counts.size() == reference.probabilities().size());
  std::vector<double> live(window.counts.size());
  for (size_t b = 0; b < live.size(); ++b) {
    live[b] = static_cast<double>(window.counts[b]) /
              static_cast<double>(window.total);
  }
  live = FloorAndNormalize(std::move(live));
  double psi = 0.0;
  const std::vector<double>& ref = reference.probabilities();
  for (size_t b = 0; b < live.size(); ++b) {
    psi += (live[b] - ref[b]) * std::log(live[b] / ref[b]);
  }
  ROICL_DCHECK_FINITE(psi);
  return psi;
}

double BinnedKsStatistic(const ReferenceDistribution& reference,
                         const WindowCounts& window) {
  if (window.total == 0) return 0.0;
  ROICL_CHECK(window.counts.size() == reference.probabilities().size());
  const std::vector<double>& ref = reference.probabilities();
  double cdf_live = 0.0;
  double cdf_ref = 0.0;
  double ks = 0.0;
  for (size_t b = 0; b < window.counts.size(); ++b) {
    cdf_live += static_cast<double>(window.counts[b]) /
                static_cast<double>(window.total);
    cdf_ref += ref[b];
    ks = std::max(ks, std::fabs(cdf_live - cdf_ref));
  }
  ROICL_DCHECK_FINITE(ks);
  return ks;
}

int DriftDetector::AddChannel(std::string name,
                              ReferenceDistribution reference) {
  Channel channel;
  channel.name = std::move(name);
  channel.window = WindowCounts(reference.num_bins());
  channel.reference = std::move(reference);
  channels_.push_back(std::move(channel));
  return AsInt(channels_.size()) - 1;
}

int DriftDetector::num_channels() const {
  return AsInt(channels_.size());
}

WindowCounts DriftDetector::MakeCounts(int channel) const {
  return WindowCounts(channels_[AsSize(channel)].reference.num_bins());
}

void DriftDetector::Accumulate(int channel, double value,
                               WindowCounts* counts) const {
  counts->Add(channels_[AsSize(channel)].reference.BinOf(value));
}

void DriftDetector::Commit(int channel, const WindowCounts& counts) {
  channels_[AsSize(channel)].window.Merge(counts);
}

void DriftDetector::ReplaceReference(int channel,
                                     ReferenceDistribution reference) {
  Channel& target = channels_[AsSize(channel)];
  target.window = WindowCounts(reference.num_bins());
  target.reference = std::move(reference);
}

uint64_t DriftDetector::min_window_n() const {
  uint64_t min_n = 0;
  bool first = true;
  for (const Channel& channel : channels_) {
    if (first || channel.window.total < min_n) min_n = channel.window.total;
    first = false;
  }
  return min_n;
}

std::vector<DriftReport> DriftDetector::Evaluate(bool reset) {
  std::vector<DriftReport> reports;
  reports.reserve(channels_.size());
  for (Channel& channel : channels_) {
    DriftReport report;
    report.channel = channel.name;
    report.psi = PopulationStabilityIndex(channel.reference, channel.window);
    report.ks = BinnedKsStatistic(channel.reference, channel.window);
    report.psi_threshold = thresholds_.psi;
    report.ks_threshold = thresholds_.ks;
    report.window_n = channel.window.total;
    report.triggered = channel.window.total >= thresholds_.min_window &&
                       (report.psi > thresholds_.psi ||
                        report.ks > thresholds_.ks);
    reports.push_back(std::move(report));
    if (reset) channel.window.Reset();
  }
  return reports;
}

}  // namespace roicl::monitor
