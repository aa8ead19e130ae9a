#ifndef ROICL_OBS_SLO_H_
#define ROICL_OBS_SLO_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotated_mutex.h"

/// \file
/// Declarative SLO engine: specs parsed from a `.slo` config are evaluated
/// over rolling event-count windows with multi-window burn-rate alerting.
///
/// Each spec names an objective kind, a target, and two windows. An event
/// is *bad* when it violates the objective (latency over target, rejected
/// submit, uncovered outcome, drift-triggered window). The *burn rate* is
/// the bad fraction of a window divided by the objective's error budget:
/// burn 1.0 means the budget is being consumed exactly as fast as allowed,
/// 2.0 twice as fast. A state trips only when BOTH the short and the long
/// window burn past the threshold — the short window makes alerts fast,
/// the long window keeps one transient spike from paging (the classic
/// multi-window burn-rate rule, with event counts standing in for wall
/// time so replays stay deterministic).
///
/// Spec file format (one record per line, `#` comments allowed):
///
///   slo <name> kind=<kind> target=<num> short_window=<n>
///       long_window=<n> warn_burn=<x> breach_burn=<x>   (one line)
///
/// Kinds and their bad-event/budget semantics:
///   p99_latency_us     bad: latency > target (us); budget fixed at 0.01
///   reject_rate        bad: submit rejected;       budget = target
///   coverage_floor     bad: outcome uncovered;     budget = 1 - target
///   drift_alert_budget bad: window drift-flagged;  budget = target
///
/// `configs/serving.slo` is the canonical serving config consumed by the
/// `load-replay` subcommand; slo_test parses every committed `*.slo`.

namespace roicl::obs {

enum class SloKind {
  kP99LatencyUs,
  kRejectRate,
  kCoverageFloor,
  kDriftAlertBudget,
};

enum class SloState { kOk, kWarn, kBreach };

std::string_view SloKindName(SloKind kind);
std::string_view SloStateName(SloState state);

struct SloSpec {
  std::string name;
  SloKind kind = SloKind::kP99LatencyUs;
  /// Latency threshold in microseconds for p99_latency_us; an allowed /
  /// required fraction for the rate kinds (see the budget table above).
  double target = 0.0;
  size_t short_window = 0;  ///< events; must be >= 1
  size_t long_window = 0;   ///< events; must be > short_window
  double warn_burn = 1.0;
  double breach_burn = 2.0;
};

/// Parses spec text; on malformed input returns false and describes the
/// first offending line in `*error`. `*specs` is replaced on success.
bool ParseSloSpecs(std::string_view text, std::vector<SloSpec>* specs,
                   std::string* error);

/// Reads `path` and delegates to ParseSloSpecs; false on I/O failure too.
bool LoadSloSpecs(const std::string& path, std::vector<SloSpec>* specs,
                  std::string* error);

/// Evaluates a set of SloSpecs against a live event stream. Record* calls
/// are routed to every spec of the matching kind; each call updates the
/// spec's rolling windows and recomputes its state, so StateOf() and
/// VerdictJson() are always current. Thread-safe (one mutex; SLO events
/// are orders of magnitude rarer than metric increments).
///
/// State transitions feed the process-wide metrics registry:
/// `slo.events` / `slo.warn_transitions` / `slo.breach_transitions`
/// counters and the `slo.worst_state` gauge (0 OK, 1 WARN, 2 BREACH).
class SloEngine {
 public:
  explicit SloEngine(std::vector<SloSpec> specs);

  void RecordLatency(double latency_us)  ///< kP99LatencyUs specs
      ROICL_EXCLUDES(mutex_);
  void RecordAdmission(bool admitted)  ///< kRejectRate specs
      ROICL_EXCLUDES(mutex_);
  void RecordCoverage(bool covered)  ///< kCoverageFloor specs
      ROICL_EXCLUDES(mutex_);
  void RecordDriftWindow(bool triggered)  ///< kDriftAlertBudget specs
      ROICL_EXCLUDES(mutex_);

  /// Current state of the named spec; kOk for unknown names (an absent
  /// spec cannot breach).
  SloState StateOf(std::string_view name) const ROICL_EXCLUDES(mutex_);

  /// Worst state across all specs.
  SloState WorstState() const ROICL_EXCLUDES(mutex_);

  /// Worst state any spec has *ever* reached — a breach that recovered
  /// still reads BREACH here. Replay reports use this: the verdict at
  /// the end of a run must not forget a mid-run page.
  SloState PeakWorstState() const ROICL_EXCLUDES(mutex_);

  /// {"slos":[{"name":...,"kind":...,"target":...,"state":"OK",
  ///   "peak":"OK","short_burn":...,"long_burn":...,"events":N,
  ///   "bad_events":N}],"worst":"OK","worst_peak":"OK"} — the verdict
  /// snapshot written next to metrics. `state`/`worst` are current;
  /// `peak`/`worst_peak` latch the worst ever reached.
  std::string VerdictJson() const ROICL_EXCLUDES(mutex_);

 private:
  struct Tracker {
    SloSpec spec;
    double budget = 0.01;
    std::deque<bool> window;  ///< most recent long_window outcomes
    uint64_t events = 0;
    uint64_t bad_events = 0;
    SloState state = SloState::kOk;
    SloState peak = SloState::kOk;  ///< worst state ever reached
    double short_burn = 0.0;
    double long_burn = 0.0;
  };

  void RecordKind(SloKind kind, bool bad) ROICL_EXCLUDES(mutex_);
  void EvaluateLocked(Tracker* tracker) ROICL_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::vector<Tracker> trackers_ ROICL_GUARDED_BY(mutex_);
};

}  // namespace roicl::obs

#endif  // ROICL_OBS_SLO_H_
