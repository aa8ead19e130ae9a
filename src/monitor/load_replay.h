#ifndef ROICL_MONITOR_LOAD_REPLAY_H_
#define ROICL_MONITOR_LOAD_REPLAY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "monitor/monitor.h"
#include "obs/slo.h"
#include "pipeline/pipeline.h"
#include "pipeline/service.h"

/// \file
/// Adversarial load-replay harness: drives a live ScoringService +
/// ServingMonitor through a fixed sequence of hostile traffic phases and
/// reports what the observability stack saw — client latency percentiles,
/// reject / deadline rates, the per-stage serve.stage.* breakdown, and
/// the SLO engine's verdict. The phases:
///
///   baseline        well-behaved traffic; establishes the floor
///   burst           fire-and-forget floods that overflow the queue
///   deadline_heavy  tight per-request deadlines that expire in queue
///   oversized       requests many times the normal row count (the
///                   deliberate p99-latency SLO breach)
///   swap_storm      baseline traffic racing mid-flight conformal
///                   quantile swaps (the TSan target)
///
/// Labeled feedback from the stream is replayed to the monitor between
/// phases so the coverage and drift SLOs see events too. The `load-replay`
/// CLI subcommand wraps this and writes LoadReplayResult::ToJson to its
/// `--out` file.
namespace roicl::monitor {

struct LoadReplayOptions {
  /// Rows per well-behaved request.
  int rows_per_request = 64;
  /// Requests per phase (before burst_factor multiplication).
  int requests_per_phase = 128;
  /// Concurrent client threads submitting traffic.
  int client_threads = 4;
  /// The burst phase submits requests_per_phase * burst_factor requests
  /// without waiting for completions.
  int burst_factor = 8;
  /// Deadline applied by the deadline_heavy phase (microseconds).
  int64_t tight_deadline_micros = 50;
  /// Oversized requests carry rows_per_request * oversized_factor rows.
  int oversized_factor = 64;
  /// Conformal quantile swaps performed by the swap_storm phase.
  int swap_storm_swaps = 64;
  /// Labeled feedback rows handed to the monitor after each phase.
  int feedback_rows = 256;
  /// Seed for traffic materialization.
  uint64_t seed = 7;
  /// SLO specs evaluated over the replay (empty = no SLO engine).
  std::vector<obs::SloSpec> slos;
  MonitorOptions monitor;
  pipeline::ServiceOptions service;
  /// Polled between submissions; returning true stops the replay early
  /// (the signal-flush path). The partial result is still returned.
  std::function<bool()> cancelled;
};

/// Range-checks the replay's own knobs, whose out-of-range values would
/// otherwise run a phase vacuously or not at all: rows_per_request,
/// requests_per_phase, client_threads, burst_factor,
/// tight_deadline_micros, oversized_factor and swap_storm_swaps >= 1;
/// feedback_rows >= 0. Then runs pipeline::ValidateServiceOptions over
/// `service`; `monitor` is checked by ServingMonitor::FromCalibration when
/// the replay starts. InvalidArgument names the first knob out of range by
/// its field name, or by `names[field]` where given (the CLI passes its
/// flag names).
Status ValidateLoadReplayOptions(
    const LoadReplayOptions& options,
    const std::map<std::string, std::string>& names = {});

/// Per-phase outcome counts and client-observed latency percentiles
/// (exact, from the sorted completion latencies of the phase).
struct LoadPhaseStat {
  std::string phase;
  int submitted = 0;
  int ok = 0;
  int rejected = 0;           ///< queue-full rejections
  int deadline_exceeded = 0;  ///< expired while queued
  int errors = 0;             ///< any other failure
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

/// One serve.stage.* histogram read back from the metrics registry.
struct StageBreakdown {
  std::string stage;  ///< e.g. "queue", "score"
  uint64_t count = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  /// Trace IDs of the exemplars retained by this stage's histogram —
  /// each must resolve to a complete serve.request flow in the trace.
  std::vector<uint64_t> exemplar_trace_ids;
};

struct LoadReplayResult {
  std::vector<LoadPhaseStat> phases;
  std::vector<StageBreakdown> stages;
  int total_submitted = 0;
  int total_ok = 0;
  int total_rejected = 0;
  int total_deadline_exceeded = 0;
  int total_errors = 0;
  double reject_rate = 0.0;  ///< rejected / submitted
  double p50_us = 0.0;       ///< overall client-observed latency
  double p95_us = 0.0;
  double p99_us = 0.0;
  int quantile_swaps = 0;  ///< swaps performed by swap_storm
  /// SloEngine::VerdictJson() at replay end ("{}" without SLO specs).
  std::string slo_verdict_json = "{}";
  /// Worst SLO state *observed at any point* during the replay
  /// (SloEngine::PeakWorstState) — a burst-phase breach that recovered
  /// by swap_storm still reads BREACH in the report.
  std::string slo_worst_state = "OK";
  bool interrupted = false;  ///< cancelled() fired mid-replay

  /// Full machine-readable report (what `load-replay --out` writes).
  std::string ToJson() const;
};

/// Runs the replay. `pipeline` is consumed (the service owns it);
/// `calibration` anchors the monitor's references; `stream` supplies
/// labeled traffic (requests slice its rows cyclically). The scorer must
/// carry a conformal quantile (rDRP) — swap_storm and the coverage SLO
/// depend on it.
StatusOr<LoadReplayResult> RunLoadReplay(pipeline::Pipeline pipeline,
                                         const RctDataset& calibration,
                                         const RctDataset& stream,
                                         const LoadReplayOptions& options);

}  // namespace roicl::monitor

#endif  // ROICL_MONITOR_LOAD_REPLAY_H_
