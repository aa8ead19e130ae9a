#ifndef ROICL_OBS_METRIC_CATALOGUE_H_
#define ROICL_OBS_METRIC_CATALOGUE_H_

#include <span>
#include <string_view>

/// \file
/// The catalogue of every standard metric: one row per instrument with its
/// name, kind and, for histograms, bucket bounds. It is the one list of
/// metric names. `MetricsRegistry::GetCounter/GetGauge/GetHistogram` take
/// the name types below, whose string-literal constructor is `consteval`
/// and accepts only a name this catalogue lists with that kind, so a
/// misspelt or unlisted literal is a build error. A histogram site takes
/// its bounds from its row, so every site and `PreregisterStandardMetrics`
/// resolve to the same bucket layout.

namespace roicl::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

struct MetricSpec {
  std::string_view name;
  MetricKind kind;
  /// Histogram bucket upper bounds, strictly increasing; empty otherwise.
  std::span<const double> bounds;
};

/// 10us .. 10s, decades.
inline constexpr double kLatencyMicrosBounds[] = {10.0, 100.0, 1e3, 1e4,
                                                  1e5,  1e6,   1e7};
/// 0.25 .. 512, octaves.
inline constexpr double kConformalScoreBounds[] = {
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0};
/// Requests per dispatched serving batch, powers of two up to 64.
inline constexpr double kOccupancyBounds[] = {1.0,  2.0,  4.0, 8.0,
                                              16.0, 32.0, 64.0};

inline constexpr MetricSpec kStandardMetrics[] = {
    {"train.epochs", MetricKind::kCounter, {}},
    {"train.early_stops", MetricKind::kCounter, {}},
    {"mc_dropout.samples", MetricKind::kCounter, {}},
    {"roi_star.searches", MetricKind::kCounter, {}},
    {"allocate.calls", MetricKind::kCounter, {}},
    {"threadpool.tasks", MetricKind::kCounter, {}},
    {"serve.requests", MetricKind::kCounter, {}},
    {"serve.rejected", MetricKind::kCounter, {}},
    {"serve.deadline_exceeded", MetricKind::kCounter, {}},
    {"serve.errors", MetricKind::kCounter, {}},
    {"serve.invalid_rows", MetricKind::kCounter, {}},
    {"conformal.qhat_infinite", MetricKind::kCounter, {}},
    {"monitor.windows", MetricKind::kCounter, {}},
    {"monitor.drift_triggers", MetricKind::kCounter, {}},
    {"monitor.recalibrations", MetricKind::kCounter, {}},
    {"monitor.coverage_alerts", MetricKind::kCounter, {}},
    {"monitor.outcomes", MetricKind::kCounter, {}},
    {"slo.events", MetricKind::kCounter, {}},
    {"slo.warn_transitions", MetricKind::kCounter, {}},
    {"slo.breach_transitions", MetricKind::kCounter, {}},
    {"alloc.streaming_calls", MetricKind::kCounter, {}},
    {"alloc.rows_streamed", MetricKind::kCounter, {}},
    {"alloc.frontier_evictions", MetricKind::kCounter, {}},
    {"alloc.threshold_overflow", MetricKind::kCounter, {}},
    {"campaign.runs", MetricKind::kCounter, {}},
    {"campaign.streaming_calls", MetricKind::kCounter, {}},
    {"campaign.users_streamed", MetricKind::kCounter, {}},
    {"campaign.frontier_evictions", MetricKind::kCounter, {}},
    {"train.loss", MetricKind::kGauge, {}},
    {"train.final_loss", MetricKind::kGauge, {}},
    {"train.grad_norm", MetricKind::kGauge, {}},
    {"train.lr", MetricKind::kGauge, {}},
    {"conformal.q_hat", MetricKind::kGauge, {}},
    {"conformal.calibration_n", MetricKind::kGauge, {}},
    {"mc_dropout.samples_per_sec", MetricKind::kGauge, {}},
    {"exp.predict_samples_per_sec", MetricKind::kGauge, {}},
    {"roi_star.iterations", MetricKind::kGauge, {}},
    {"roi_star.bracket_width", MetricKind::kGauge, {}},
    {"allocate.budget_used_frac", MetricKind::kGauge, {}},
    {"allocate.selected", MetricKind::kGauge, {}},
    {"threadpool.queue_depth", MetricKind::kGauge, {}},
    {"serve.queue_depth", MetricKind::kGauge, {}},
    {"serve.interval_width", MetricKind::kGauge, {}},
    {"monitor.coverage", MetricKind::kGauge, {}},
    {"monitor.q_hat_before", MetricKind::kGauge, {}},
    {"monitor.q_hat_after", MetricKind::kGauge, {}},
    {"monitor.roi_star_window", MetricKind::kGauge, {}},
    {"monitor.alpha_effective", MetricKind::kGauge, {}},
    {"monitor.max_psi", MetricKind::kGauge, {}},
    {"monitor.max_ks", MetricKind::kGauge, {}},
    {"slo.worst_state", MetricKind::kGauge, {}},
    {"alloc.shards", MetricKind::kGauge, {}},
    {"alloc.selected", MetricKind::kGauge, {}},
    {"alloc.merge_candidates", MetricKind::kGauge, {}},
    {"alloc.peak_memory_bytes", MetricKind::kGauge, {}},
    {"alloc.dual_threshold", MetricKind::kGauge, {}},
    {"alloc.dual_gap", MetricKind::kGauge, {}},
    {"campaign.arms", MetricKind::kGauge, {}},
    {"campaign.shards", MetricKind::kGauge, {}},
    {"campaign.assigned", MetricKind::kGauge, {}},
    {"campaign.spent", MetricKind::kGauge, {}},
    {"campaign.merge_candidates", MetricKind::kGauge, {}},
    {"campaign.peak_memory_bytes", MetricKind::kGauge, {}},
    {"campaign.coverage_min", MetricKind::kGauge, {}},
    {"campaign.dual_gap", MetricKind::kGauge, {}},
    {"conformal.score", MetricKind::kHistogram, kConformalScoreBounds},
    {"threadpool.task_us", MetricKind::kHistogram, kLatencyMicrosBounds},
    {"mc_dropout.batch_us", MetricKind::kHistogram, kLatencyMicrosBounds},
    {"serve.batch_occupancy", MetricKind::kHistogram, kOccupancyBounds},
    {"serve.latency_micros", MetricKind::kHistogram, kLatencyMicrosBounds},
    {"serve.stage.queue_us", MetricKind::kHistogram, kLatencyMicrosBounds},
    {"serve.stage.assemble_us", MetricKind::kHistogram, kLatencyMicrosBounds},
    {"serve.stage.score_us", MetricKind::kHistogram, kLatencyMicrosBounds},
    {"serve.stage.conformal_us", MetricKind::kHistogram, kLatencyMicrosBounds},
    {"serve.stage.observe_us", MetricKind::kHistogram, kLatencyMicrosBounds},
    {"monitor.update_us", MetricKind::kHistogram, kLatencyMicrosBounds},
    {"monitor.recalibrate_us", MetricKind::kHistogram, kLatencyMicrosBounds},
};

/// Deliberately not constexpr: CatalogueRow calls it only for a name the
/// catalogue does not list, which makes the consteval call ill-formed, and
/// the compiler's diagnostic names this function.
inline void MetricNotInCatalogue() {}

/// The catalogue row listing `name` with `kind`; compile error otherwise.
consteval const MetricSpec& CatalogueRow(std::string_view name,
                                         MetricKind kind) {
  for (const MetricSpec& row : kStandardMetrics) {
    if (row.name == name && row.kind == kind) return row;
  }
  MetricNotInCatalogue();
  return kStandardMetrics[0];
}

/// A metric name of one kind, as the registry getters take it.
template <MetricKind kKind>
class MetricName {
 public:
  /// Implicit from a string literal the catalogue lists with this kind;
  /// any other literal fails to compile.
  consteval MetricName(const char* literal)
      : MetricName(CatalogueRow(literal, kKind)) {}
  /// From a catalogue row of this kind.
  explicit constexpr MetricName(const MetricSpec& row)
      : MetricName(row.name, row.bounds) {}

  /// The explicit spelling for an instrument outside the catalogue
  /// (ad-hoc test fixtures). `name` and `bounds` need only outlive the
  /// getter call: the registry copies both on first registration.
  static constexpr MetricName Unlisted(std::string_view name,
                                       std::span<const double> bounds = {}) {
    return MetricName(name, bounds);
  }

  constexpr std::string_view name() const { return name_; }
  constexpr std::span<const double> bounds() const { return bounds_; }

 private:
  constexpr MetricName(std::string_view name, std::span<const double> bounds)
      : name_(name), bounds_(bounds) {}

  std::string_view name_;
  std::span<const double> bounds_;
};

using CounterName = MetricName<MetricKind::kCounter>;
using GaugeName = MetricName<MetricKind::kGauge>;
using HistogramName = MetricName<MetricKind::kHistogram>;

}  // namespace roicl::obs

#endif  // ROICL_OBS_METRIC_CATALOGUE_H_
