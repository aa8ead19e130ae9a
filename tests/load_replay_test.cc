// Load-replay harness tests: option validation, the five-phase adversarial
// smoke run against a live ScoringService + ServingMonitor (phase ordering,
// count conservation, deliberate SLO breach, JSON report shape), exemplar
// trace IDs resolving to complete flows in the exported trace, and the
// swap_storm phase racing mid-flight conformal-quantile swaps against
// scoring — the latter runs under ThreadSanitizer via
// tools/run_sanitizer.sh thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "monitor/load_replay.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "synth/synthetic_generator.h"

namespace {

using namespace roicl;
using namespace roicl::monitor;

RctDataset Gen(int n, uint64_t seed) {
  synth::SyntheticGenerator generator(synth::CriteoSynthConfig());
  Rng rng(seed);
  return generator.Generate(n, /*shifted=*/false, &rng);
}

/// Small-budget rDRP pipeline with a real conformal quantile.
pipeline::Pipeline TrainSmallRdrp(uint64_t seed = 21) {
  pipeline::Hyperparams hp;
  hp.neural_epochs = 4;
  hp.restarts = 1;
  hp.mc_passes = 5;
  hp.seed = seed;
  RctDataset train = Gen(300, seed);
  RctDataset calib = Gen(150, seed + 1);
  return std::move(
             pipeline::Pipeline::Train("rDRP", hp, train, &calib, {}))
      .value();
}

obs::SloSpec MakeSpec(std::string name, obs::SloKind kind, double target,
                      size_t short_window, size_t long_window) {
  obs::SloSpec spec;
  spec.name = std::move(name);
  spec.kind = kind;
  spec.target = target;
  spec.short_window = short_window;
  spec.long_window = long_window;
  return spec;
}

/// Small, fast option set: tiny queue so the burst phase actually
/// overflows, high exemplar rate so every stage retains exemplars.
LoadReplayOptions SmallOptions() {
  LoadReplayOptions options;
  options.rows_per_request = 8;
  options.requests_per_phase = 8;
  options.client_threads = 2;
  options.burst_factor = 4;
  options.tight_deadline_micros = 20;
  options.oversized_factor = 8;
  options.swap_storm_swaps = 32;
  options.feedback_rows = 64;
  options.service.max_batch_requests = 4;
  options.service.max_queue = 8;
  options.service.exemplar_rate = 0.5;
  options.service.shadow_interval_every = 3;
  return options;
}

TEST(LoadReplayTest, ValidatesOptionsAndScorer) {
  RctDataset stream = Gen(64, 5);
  RctDataset calib = Gen(64, 6);
  {
    LoadReplayOptions options = SmallOptions();
    options.rows_per_request = 0;
    StatusOr<LoadReplayResult> result =
        RunLoadReplay(TrainSmallRdrp(), calib, stream, options);
    EXPECT_FALSE(result.ok());
  }
  {
    RctDataset empty = Gen(1, 7).Subset({});
    StatusOr<LoadReplayResult> result =
        RunLoadReplay(TrainSmallRdrp(), calib, empty, SmallOptions());
    EXPECT_FALSE(result.ok());
  }
  {
    // A dispatcher that takes zero requests per cycle would spin forever.
    LoadReplayOptions options = SmallOptions();
    options.service.max_batch_requests = 0;
    StatusOr<LoadReplayResult> result =
        RunLoadReplay(TrainSmallRdrp(), calib, stream, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("max_batch_requests"),
              std::string::npos)
        << result.status().ToString();
  }
}

// Each knob that used to run its phase vacuously (a swap storm with no
// swaps, a deadline that never expires) or be clamped silently is refused
// with an InvalidArgument naming it, and RunLoadReplay returns that error.
TEST(LoadReplayTest, RejectsOutOfRangeKnobsByName) {
  struct Case {
    const char* field;
    void (*apply)(LoadReplayOptions*);
  };
  const Case cases[] = {
      {"rows_per_request",
       [](LoadReplayOptions* o) { o->rows_per_request = 0; }},
      {"requests_per_phase",
       [](LoadReplayOptions* o) { o->requests_per_phase = 0; }},
      {"client_threads", [](LoadReplayOptions* o) { o->client_threads = 0; }},
      {"burst_factor", [](LoadReplayOptions* o) { o->burst_factor = -1; }},
      {"tight_deadline_micros",
       [](LoadReplayOptions* o) { o->tight_deadline_micros = -50; }},
      {"oversized_factor",
       [](LoadReplayOptions* o) { o->oversized_factor = 0; }},
      {"swap_storm_swaps",
       [](LoadReplayOptions* o) { o->swap_storm_swaps = -1; }},
      {"feedback_rows", [](LoadReplayOptions* o) { o->feedback_rows = -5; }},
      {"exemplar_rate",
       [](LoadReplayOptions* o) { o->service.exemplar_rate = 2.0; }},
      {"exemplar_rate",
       [](LoadReplayOptions* o) { o->service.exemplar_rate = std::nan(""); }},
      {"shadow_interval_every",
       [](LoadReplayOptions* o) { o->service.shadow_interval_every = -1; }},
  };
  for (const Case& c : cases) {
    LoadReplayOptions options = SmallOptions();
    c.apply(&options);
    Status status = ValidateLoadReplayOptions(options);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.field;
    EXPECT_EQ(status.message().rfind(c.field, 0), 0u) << status.ToString();
  }
  LoadReplayOptions quiet = SmallOptions();
  quiet.feedback_rows = 0;  // no feedback between phases is a valid replay
  EXPECT_TRUE(ValidateLoadReplayOptions(quiet).ok());

  LoadReplayOptions options = SmallOptions();
  options.swap_storm_swaps = -1;
  EXPECT_EQ(ValidateLoadReplayOptions(
                options, {{"swap_storm_swaps", "--swap-storm-swaps"}})
                .message(),
            "--swap-storm-swaps must be >= 1, got -1");
  StatusOr<LoadReplayResult> result =
      RunLoadReplay(TrainSmallRdrp(), Gen(64, 6), Gen(64, 5), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.status().message().rfind("swap_storm_swaps", 0), 0u)
      << result.status().ToString();
}

TEST(LoadReplayTest, SmokeRunBreachesSlosAndResolvesExemplarsToFlows) {
  obs::MetricsRegistry::Global().Reset();
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  collector.Clear();
  collector.SetEnabled(true);

  LoadReplayOptions options = SmallOptions();
  // A 1us latency target cannot be met: the latency SLO must BREACH (the
  // report is required to demonstrate at least one deliberate breach).
  options.slos.push_back(MakeSpec("latency_p99",
                                  obs::SloKind::kP99LatencyUs, 1.0,
                                  /*short_window=*/4, /*long_window=*/8));
  options.slos.push_back(MakeSpec("admission", obs::SloKind::kRejectRate,
                                  0.2, /*short_window=*/8,
                                  /*long_window=*/16));

  RctDataset stream = Gen(256, 11);
  RctDataset calib = Gen(128, 12);
  StatusOr<LoadReplayResult> result_or =
      RunLoadReplay(TrainSmallRdrp(), calib, stream, options);
  collector.SetEnabled(false);
  ASSERT_TRUE(result_or.ok()) << result_or.status().message();
  const LoadReplayResult& result = result_or.value();

  // All five phases ran, in order.
  ASSERT_EQ(result.phases.size(), 5u);
  const char* expected[] = {"baseline", "burst", "deadline_heavy",
                            "oversized", "swap_storm"};
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result.phases[i].phase, expected[i]);
  }

  // Every submitted request is accounted for, per phase and in total.
  int submitted_sum = 0;
  for (const LoadPhaseStat& phase : result.phases) {
    EXPECT_EQ(phase.ok + phase.rejected + phase.deadline_exceeded +
                  phase.errors,
              phase.submitted)
        << phase.phase;
    submitted_sum += phase.submitted;
  }
  EXPECT_EQ(submitted_sum, result.total_submitted);
  EXPECT_EQ(result.total_errors, 0);
  EXPECT_GT(result.total_ok, 0);
  EXPECT_GE(result.reject_rate, 0.0);
  EXPECT_LE(result.reject_rate, 1.0);
  EXPECT_GT(result.p99_us, 0.0);
  EXPECT_GE(result.p99_us, result.p50_us);
  EXPECT_GT(result.quantile_swaps, 0) << "swap_storm did not race";
  EXPECT_FALSE(result.interrupted);
  // Every phase fed the monitor labeled outcomes, and each feedback batch
  // forces one recalibration through the bound quantile swap.
  ASSERT_GT(options.feedback_rows, 0);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetCounter("monitor.recalibrations")
                ->value(),
            result.phases.size());

  // Stage breakdown covers the whole request lane, and every
  // serve.stage.* histogram was written by the service: a stage whose
  // observe site is gone reads zero here (conformal samples every third
  // request).
  ASSERT_EQ(result.stages.size(), 5u);
  std::set<std::string> stage_names;
  for (const StageBreakdown& stage : result.stages) {
    stage_names.insert(stage.stage);
  }
  EXPECT_EQ(stage_names, (std::set<std::string>{
                             "queue", "assemble", "score", "conformal",
                             "observe"}));
  for (const StageBreakdown& stage : result.stages) {
    EXPECT_GT(stage.count, 0u) << stage.stage;
  }

  // The deliberate breach surfaced.
  EXPECT_EQ(result.slo_worst_state, "BREACH");
  EXPECT_NE(result.slo_verdict_json.find("\"name\":\"latency_p99\""),
            std::string::npos);

  // Acceptance invariant: every exemplar trace ID must resolve to a
  // complete flow ('s' start and 'f' finish) in the exported trace.
  std::set<uint64_t> starts;
  std::set<uint64_t> finishes;
  for (const obs::TraceEvent& event : collector.Snapshot()) {
    if (event.phase == 's') starts.insert(event.flow_id);
    if (event.phase == 'f') finishes.insert(event.flow_id);
  }
  int exemplars_seen = 0;
  for (const StageBreakdown& stage : result.stages) {
    for (uint64_t trace_id : stage.exemplar_trace_ids) {
      ++exemplars_seen;
      EXPECT_TRUE(starts.count(trace_id) == 1)
          << stage.stage << " exemplar " << trace_id << " has no flow start";
      EXPECT_TRUE(finishes.count(trace_id) == 1)
          << stage.stage << " exemplar " << trace_id
          << " has no flow finish";
    }
  }
  EXPECT_GT(exemplars_seen, 0) << "exemplar rate 0.5 retained nothing";

  // The JSON report carries every section the bench harness reads.
  const std::string json = result.ToJson();
  for (const char* needle :
       {"\"phases\":[", "\"stages\":[", "\"totals\":{", "\"reject_rate\":",
        "\"p99_us\":", "\"quantile_swaps\":", "\"slo\":",
        "\"slo_worst_state\":\"BREACH\"", "\"interrupted\":false"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  collector.Clear();
}

TEST(LoadReplayTest, CancellationStopsEarlyAndStillReports) {
  obs::MetricsRegistry::Global().Reset();
  LoadReplayOptions options = SmallOptions();
  options.cancelled = [] { return true; };  // cancel at the first poll
  RctDataset stream = Gen(128, 13);
  RctDataset calib = Gen(64, 14);
  StatusOr<LoadReplayResult> result_or =
      RunLoadReplay(TrainSmallRdrp(), calib, stream, options);
  ASSERT_TRUE(result_or.ok()) << result_or.status().message();
  const LoadReplayResult& result = result_or.value();
  EXPECT_TRUE(result.interrupted);
  EXPECT_LT(result.phases.size(), 5u);
  EXPECT_NE(result.ToJson().find("\"interrupted\":true"),
            std::string::npos);
}

}  // namespace
