#include "monitor/load_replay.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/macros.h"
#include "common/math_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace roicl::monitor {
namespace {

/// Late-bound monitor target for on_scored (same pattern as replay.cc:
/// the service must exist before the monitor that watches its pipeline).
struct LoadMonitorHook {
  std::atomic<ServingMonitor*> monitor{nullptr};
};

/// `count` rows of `source` starting at `begin`, wrapping around — the
/// replay slices one finite labeled stream into unbounded traffic.
Matrix TakeRows(const RctDataset& source, uint64_t begin, int count) {
  std::vector<int> indices(AsSize(count));
  for (int i = 0; i < count; ++i) {
    indices[AsSize(i)] = static_cast<int>(
        (begin + static_cast<uint64_t>(i)) %
        static_cast<uint64_t>(source.n()));
  }
  return source.Subset(indices).x;
}

RctDataset TakeFeedback(const RctDataset& source, uint64_t begin,
                        int count) {
  std::vector<int> indices(AsSize(count));
  for (int i = 0; i < count; ++i) {
    indices[AsSize(i)] = static_cast<int>(
        (begin + static_cast<uint64_t>(i)) %
        static_cast<uint64_t>(source.n()));
  }
  return source.Subset(indices);
}

/// Exact order statistic over a copy (the "higher" convention at the
/// boundary, matching Histogram::ApproxQuantile's rank rule).
double ExactQuantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

bool MessageContains(const Status& status, std::string_view needle) {
  return status.message().find(needle) != std::string::npos;
}

struct PhaseOutcome {
  std::vector<double> latencies;  ///< client-observed, ok requests only
  int submitted = 0;
  int ok = 0;
  int rejected = 0;
  int deadline_exceeded = 0;
  int errors = 0;
  bool interrupted = false;
};

/// Fires `requests` requests of `rows` rows each from `client_threads`
/// threads. `wait_each` waits for every completion before the next
/// submit (closed loop); otherwise all requests are in flight at once
/// (open loop — the burst shape that overflows the queue).
PhaseOutcome RunTraffic(pipeline::ScoringService* service,
                        const RctDataset& stream, int requests, int rows,
                        int64_t deadline_us, bool wait_each,
                        int client_threads, std::atomic<uint64_t>* cursor,
                        obs::SloEngine* slo,
                        const std::function<bool()>& cancelled) {
  PhaseOutcome merged;
  Mutex merge_mu;
  std::atomic<bool> stop{false};
  auto worker = [&](int share) {
    PhaseOutcome local;
    std::vector<std::pair<uint64_t,
                          std::future<StatusOr<std::vector<double>>>>>
        in_flight;
    auto settle = [&](uint64_t t0,
                      StatusOr<std::vector<double>> result) {
      const double latency =
          static_cast<double>(obs::MonotonicMicros() - t0);
      if (result.ok()) {
        local.ok += 1;
        local.latencies.push_back(latency);
        if (slo != nullptr) slo->RecordLatency(latency);
      } else if (MessageContains(result.status(), "queue full")) {
        local.rejected += 1;
      } else if (MessageContains(result.status(), "deadline exceeded")) {
        local.deadline_exceeded += 1;
      } else {
        local.errors += 1;
      }
      if (slo != nullptr) {
        slo->RecordAdmission(
            !(!result.ok() &&
              MessageContains(result.status(), "queue full")));
      }
    };
    for (int i = 0; i < share; ++i) {
      if (stop.load(std::memory_order_relaxed)) break;
      if (cancelled && cancelled()) {
        local.interrupted = true;
        stop.store(true, std::memory_order_relaxed);
        break;
      }
      uint64_t begin = cursor->fetch_add(static_cast<uint64_t>(rows),
                                         std::memory_order_relaxed);
      Matrix x = TakeRows(stream, begin, rows);
      local.submitted += 1;
      uint64_t t0 = obs::MonotonicMicros();
      std::future<StatusOr<std::vector<double>>> future =
          service->Submit(std::move(x), deadline_us);
      if (wait_each) {
        settle(t0, future.get());
      } else {
        in_flight.emplace_back(t0, std::move(future));
      }
    }
    for (auto& [t0, future] : in_flight) settle(t0, future.get());
    MutexLock lock(merge_mu);
    merged.submitted += local.submitted;
    merged.ok += local.ok;
    merged.rejected += local.rejected;
    merged.deadline_exceeded += local.deadline_exceeded;
    merged.errors += local.errors;
    merged.interrupted |= local.interrupted;
    merged.latencies.insert(merged.latencies.end(),
                            local.latencies.begin(),
                            local.latencies.end());
  };
  std::vector<std::thread> pool;
  pool.reserve(AsSize(client_threads));
  for (int t = 0; t < client_threads; ++t) {
    int share = requests / client_threads +
                (t < requests % client_threads ? 1 : 0);
    pool.emplace_back(worker, share);
  }
  for (std::thread& t : pool) t.join();
  return merged;
}

LoadPhaseStat ToStat(const std::string& phase,
                     const PhaseOutcome& outcome) {
  LoadPhaseStat stat;
  stat.phase = phase;
  stat.submitted = outcome.submitted;
  stat.ok = outcome.ok;
  stat.rejected = outcome.rejected;
  stat.deadline_exceeded = outcome.deadline_exceeded;
  stat.errors = outcome.errors;
  stat.p50_us = ExactQuantile(outcome.latencies, 0.50);
  stat.p95_us = ExactQuantile(outcome.latencies, 0.95);
  stat.p99_us = ExactQuantile(outcome.latencies, 0.99);
  return stat;
}

std::string RenderNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.10g", v);
  return buffer;
}

}  // namespace

std::string LoadReplayResult::ToJson() const {
  std::string out = "{\"phases\":[";
  for (size_t i = 0; i < phases.size(); ++i) {
    const LoadPhaseStat& p = phases[i];
    if (i > 0) out += ',';
    out += "{\"phase\":\"" + p.phase + "\"";
    out += ",\"submitted\":" + std::to_string(p.submitted);
    out += ",\"ok\":" + std::to_string(p.ok);
    out += ",\"rejected\":" + std::to_string(p.rejected);
    out += ",\"deadline_exceeded\":" +
           std::to_string(p.deadline_exceeded);
    out += ",\"errors\":" + std::to_string(p.errors);
    out += ",\"p50_us\":" + RenderNumber(p.p50_us);
    out += ",\"p95_us\":" + RenderNumber(p.p95_us);
    out += ",\"p99_us\":" + RenderNumber(p.p99_us);
    out += '}';
  }
  out += "],\"stages\":[";
  for (size_t i = 0; i < stages.size(); ++i) {
    const StageBreakdown& s = stages[i];
    if (i > 0) out += ',';
    out += "{\"stage\":\"" + s.stage + "\"";
    out += ",\"count\":" + std::to_string(s.count);
    out += ",\"p50_us\":" + RenderNumber(s.p50_us);
    out += ",\"p99_us\":" + RenderNumber(s.p99_us);
    out += ",\"exemplar_trace_ids\":[";
    for (size_t j = 0; j < s.exemplar_trace_ids.size(); ++j) {
      if (j > 0) out += ',';
      out += std::to_string(s.exemplar_trace_ids[j]);
    }
    out += "]}";
  }
  out += "],\"totals\":{";
  out += "\"submitted\":" + std::to_string(total_submitted);
  out += ",\"ok\":" + std::to_string(total_ok);
  out += ",\"rejected\":" + std::to_string(total_rejected);
  out += ",\"deadline_exceeded\":" +
         std::to_string(total_deadline_exceeded);
  out += ",\"errors\":" + std::to_string(total_errors);
  out += ",\"reject_rate\":" + RenderNumber(reject_rate);
  out += ",\"p50_us\":" + RenderNumber(p50_us);
  out += ",\"p95_us\":" + RenderNumber(p95_us);
  out += ",\"p99_us\":" + RenderNumber(p99_us);
  out += ",\"quantile_swaps\":" + std::to_string(quantile_swaps);
  out += "},\"slo\":" + slo_verdict_json;
  out += ",\"slo_worst_state\":\"" + slo_worst_state + "\"";
  out += ",\"interrupted\":";
  out += interrupted ? "true" : "false";
  out += '}';
  return out;
}

Status ValidateLoadReplayOptions(
    const LoadReplayOptions& options,
    const std::map<std::string, std::string>& names) {
  RangeCheck require(names);
  require("rows_per_request", options.rows_per_request,
          options.rows_per_request >= 1, ">= 1");
  require("requests_per_phase", options.requests_per_phase,
          options.requests_per_phase >= 1, ">= 1");
  require("client_threads", options.client_threads,
          options.client_threads >= 1, ">= 1");
  require("burst_factor", options.burst_factor, options.burst_factor >= 1,
          ">= 1");
  require("tight_deadline_micros",
          static_cast<double>(options.tight_deadline_micros),
          options.tight_deadline_micros >= 1, ">= 1");
  require("oversized_factor", options.oversized_factor,
          options.oversized_factor >= 1, ">= 1");
  require("swap_storm_swaps", options.swap_storm_swaps,
          options.swap_storm_swaps >= 1, ">= 1");
  require("feedback_rows", options.feedback_rows, options.feedback_rows >= 0,
          ">= 0");
  if (Status status = require.status(); !status.ok()) return status;
  return pipeline::ValidateServiceOptions(options.service, names);
}

StatusOr<LoadReplayResult> RunLoadReplay(pipeline::Pipeline pipeline,
                                         const RctDataset& calibration,
                                         const RctDataset& stream,
                                         const LoadReplayOptions& options) {
  if (Status valid = ValidateLoadReplayOptions(options); !valid.ok()) {
    return valid;
  }
  if (stream.n() == 0) {
    return Status::InvalidArgument("empty load-replay stream");
  }
  if (!pipeline.has_conformal_quantile()) {
    return Status::FailedPrecondition(
        "load-replay requires a scorer with a conformal quantile (rDRP); "
        "scorer '" +
        pipeline.scorer_name() + "' has none");
  }

  std::unique_ptr<obs::SloEngine> slo;
  if (!options.slos.empty()) {
    slo = std::make_unique<obs::SloEngine>(options.slos);
  }

  auto hook = std::make_shared<LoadMonitorHook>();
  pipeline::ServiceOptions service_options = options.service;
  service_options.on_scored = [hook](const pipeline::ServeContext&,
                                     const Matrix& x,
                                     const std::vector<double>& scores) {
    ServingMonitor* monitor = hook->monitor.load();
    if (monitor != nullptr) monitor->ObserveScored(x, scores);
  };
  pipeline::ScoringService service(std::move(pipeline), service_options);

  StatusOr<std::unique_ptr<ServingMonitor>> monitor_or =
      ServingMonitor::FromCalibration(&service.pipeline(), calibration,
                                      options.monitor);
  if (!monitor_or.ok()) return monitor_or.status();
  ServingMonitor& monitor = *monitor_or.value();
  monitor.BindQuantileSwap([&service](double q_hat) {
    return service.SetConformalQuantile(q_hat);
  });
  if (slo != nullptr) monitor.BindSlo(slo.get());
  hook->monitor.store(&monitor);

  LoadReplayResult result;
  std::atomic<uint64_t> cursor{options.seed % 97};
  std::vector<double> all_latencies;
  uint64_t feedback_cursor = 0;

  struct PhasePlan {
    const char* name;
    int requests;
    int rows;
    int64_t deadline_us;
    bool wait_each;
    bool storm;
  };
  const std::vector<PhasePlan> plan = {
      {"baseline", options.requests_per_phase, options.rows_per_request, 0,
       true, false},
      {"burst", options.requests_per_phase * options.burst_factor,
       options.rows_per_request, 0, false, false},
      {"deadline_heavy", options.requests_per_phase,
       options.rows_per_request, options.tight_deadline_micros, false,
       false},
      {"oversized", std::max(1, options.requests_per_phase / 4),
       options.rows_per_request * options.oversized_factor, 0, true,
       false},
      {"swap_storm", options.requests_per_phase, options.rows_per_request,
       0, true, true},
  };

  for (const PhasePlan& phase : plan) {
    if (result.interrupted) break;
    // The swap storm races mid-flight quantile swaps against live
    // scoring (the TSan target); the final swap restores the original
    // quantile so later phases score under the same interval.
    std::thread storm;
    int swaps_done = 0;
    if (phase.storm) {
      storm = std::thread([&service, &swaps_done, &options] {
        StatusOr<double> q0 = service.pipeline().conformal_quantile();
        if (!q0.ok()) return;
        for (int i = 0; i < options.swap_storm_swaps; ++i) {
          double q = q0.value() * (i % 2 == 0 ? 1.1 : 0.9);
          if (!service.SetConformalQuantile(q).ok()) break;
          ++swaps_done;
          std::this_thread::yield();
        }
        Status restored = service.SetConformalQuantile(q0.value());
        (void)restored;
      });
    }
    PhaseOutcome outcome = RunTraffic(
        &service, stream, phase.requests, phase.rows, phase.deadline_us,
        phase.wait_each, options.client_threads, &cursor, slo.get(),
        options.cancelled);
    if (storm.joinable()) storm.join();
    result.quantile_swaps += swaps_done;

    result.phases.push_back(ToStat(phase.name, outcome));
    result.total_submitted += outcome.submitted;
    result.total_ok += outcome.ok;
    result.total_rejected += outcome.rejected;
    result.total_deadline_exceeded += outcome.deadline_exceeded;
    result.total_errors += outcome.errors;
    result.interrupted |= outcome.interrupted;
    all_latencies.insert(all_latencies.end(), outcome.latencies.begin(),
                         outcome.latencies.end());

    // Labeled feedback between phases keeps the coverage and drift SLOs
    // fed and lets the recalibrator react to what the phase did.
    if (options.feedback_rows > 0 && !result.interrupted) {
      RctDataset feedback =
          TakeFeedback(stream, feedback_cursor, options.feedback_rows);
      feedback_cursor += static_cast<uint64_t>(options.feedback_rows);
      if (Status status = monitor.AddOutcomes(feedback); !status.ok()) {
        return status;
      }
      StatusOr<RecalibrationResult> recal = monitor.MaybeRecalibrate();
      if (!recal.ok()) return recal.status();
    }
  }

  result.reject_rate =
      result.total_submitted == 0
          ? 0.0
          : static_cast<double>(result.total_rejected) /
                static_cast<double>(result.total_submitted);
  result.p50_us = ExactQuantile(all_latencies, 0.50);
  result.p95_us = ExactQuantile(all_latencies, 0.95);
  result.p99_us = ExactQuantile(all_latencies, 0.99);

  struct StageMetric {
    const char* stage;
    obs::HistogramName histogram;
  };
  static constexpr StageMetric kStages[] = {
      {"queue", "serve.stage.queue_us"},
      {"assemble", "serve.stage.assemble_us"},
      {"score", "serve.stage.score_us"},
      {"conformal", "serve.stage.conformal_us"},
      {"observe", "serve.stage.observe_us"}};
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  for (const StageMetric& stage : kStages) {
    obs::Histogram* histogram = metrics.GetHistogram(stage.histogram);
    StageBreakdown breakdown;
    breakdown.stage = stage.stage;
    breakdown.count = histogram->count();
    breakdown.p50_us = histogram->ApproxQuantile(0.50);
    breakdown.p99_us = histogram->ApproxQuantile(0.99);
    for (const obs::Exemplar& exemplar : histogram->Exemplars()) {
      if (exemplar.valid) {
        breakdown.exemplar_trace_ids.push_back(exemplar.trace_id);
      }
    }
    result.stages.push_back(std::move(breakdown));
  }

  if (slo != nullptr) {
    result.slo_verdict_json = slo->VerdictJson();
    result.slo_worst_state = obs::SloStateName(slo->PeakWorstState());
  }
  obs::Info("load replay done",
            {{"submitted", result.total_submitted},
             {"ok", result.total_ok},
             {"rejected", result.total_rejected},
             {"deadline_exceeded", result.total_deadline_exceeded},
             {"p99_us", result.p99_us},
             {"slo_worst", result.slo_worst_state},
             {"interrupted", result.interrupted}});
  return result;
}

}  // namespace roicl::monitor
