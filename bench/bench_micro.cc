// Micro-benchmarks backing the time-complexity analysis of §IV-D:
//   - Algorithm 2 binary search: O(log(1/eps)) derivative evaluations,
//     each a linear pass over the calibration set.
//   - Conformal quantile: O(n) selection over calibration scores.
//   - MC-dropout inference: linear in the number of passes.
//   - AUCC: O(n log n) sort + linear scan.
//   - Greedy C-BTAP allocation: O(n log n).
//   - Forest / DRP training for context.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <future>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "alloc/row_source.h"
#include "alloc/streaming.h"
#include "campaign/karm_source.h"
#include "campaign/karm_streaming.h"
#include "common/macros.h"
#include "common/stats.h"
#include "core/drp_model.h"
#include "core/greedy.h"
#include "core/rdrp.h"
#include "core/roi_star.h"
#include "exp/datasets.h"
#include "metrics/cost_curve.h"
#include "monitor/monitor.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "pipeline/service.h"
#include "trees/causal_forest.h"
#include "common/math_util.h"

namespace roicl {
namespace {

const synth::SyntheticGenerator& Generator() {
  static const synth::SyntheticGenerator& generator =
      *new synth::SyntheticGenerator(synth::CriteoSynthConfig());
  return generator;
}

RctDataset MakeData(int n) {
  Rng rng(42);
  return Generator().Generate(n, false, &rng);
}

void BM_BinarySearchRoiStar(benchmark::State& state) {
  RctDataset data = MakeData(static_cast<int>(state.range(0)));
  double epsilon = 1.0 / static_cast<double>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BinarySearchRoiStar(data, epsilon));
  }
  state.SetComplexityN(state.range(0));
}

void BM_ConformalQuantile(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(7);
  std::vector<double> scores(roicl::AsSize(n));
  for (double& s : scores) s = rng.Exponential(1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ConformalQuantile(scores, 0.1));
  }
  state.SetComplexityN(n);
}

core::DrpModel& SharedSmallDrp() {
  static core::DrpModel& model = *[] {
    core::DrpConfig config;
    config.train.epochs = 3;
    auto* drp = new core::DrpModel(config);
    RctDataset train = MakeData(3000);
    drp->Fit(train);
    return drp;
  }();
  return model;
}

void BM_McDropoutInference(benchmark::State& state) {
  core::DrpModel& drp = SharedSmallDrp();
  RctDataset test = MakeData(1000);
  int passes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(drp.PredictMcRoi(test.x, passes, 1));
  }
  state.SetComplexityN(passes);
}

// Batched inference forward vs. the naive one-row-at-a-time loop. Arg 0
// is the batch size; 1 means "forward each row alone", i.e. the per-row
// baseline the batched engine replaces. Serial (num_threads = 1) so the
// measured ratio isolates the batching win from any threading win.
void BM_BatchForward(benchmark::State& state) {
  core::DrpModel& drp = SharedSmallDrp();
  RctDataset test = MakeData(4000);
  core::DrpConfig config;
  config.predict.batch_size = static_cast<int>(state.range(0));
  config.predict.num_threads = 1;
  core::DrpModel runner(config);
  {
    // Clone the fitted weights by round-tripping the serialized model so
    // every batch size measures the same network.
    std::stringstream stream;
    ROICL_CHECK(drp.Save(stream).ok());
    StatusOr<core::DrpModel> loaded =
        core::DrpModel::Load(stream, config);
    ROICL_CHECK(loaded.ok());
    runner = std::move(loaded).value();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.PredictRoi(test.x));
  }
  state.SetItemsProcessed(state.iterations() * test.n());
}

// The parallel MC-dropout engine across thread counts (arg 0; 1 = inline
// serial). Single-core containers show ~1x here by construction — the
// determinism tests prove the knob is safe, this records the throughput.
void BM_ParallelMcDropout(benchmark::State& state) {
  core::DrpModel& drp = SharedSmallDrp();
  RctDataset test = MakeData(2000);
  nn::BatchOptions opts;
  opts.batch_size = 128;
  opts.num_threads = static_cast<int>(state.range(0));
  drp.set_predict_options(opts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(drp.PredictMcRoi(test.x, /*passes=*/20,
                                              /*seed=*/1));
  }
  drp.set_predict_options(nn::BatchOptions());  // the shared default
  state.SetItemsProcessed(state.iterations() * test.n() * 20);
}

void BM_Aucc(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  RctDataset data = MakeData(n);
  Rng rng(9);
  std::vector<double> scores(roicl::AsSize(n));
  for (double& s : scores) s = rng.Uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::Aucc(scores, data));
  }
  state.SetComplexityN(n);
}

void BM_GreedyAllocate(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  Rng rng(11);
  std::vector<double> roi(roicl::AsSize(n)), cost(roicl::AsSize(n));
  for (int i = 0; i < n; ++i) {
    roi[roicl::AsSize(i)] = rng.Uniform();
    cost[roicl::AsSize(i)] = rng.Uniform(0.1, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::GreedyAllocate(roi, cost, 0.2 * n, true));
  }
  state.SetComplexityN(n);
}

// Planet-scale allocation: Arg(0) is the row count, Arg(1) the mode
// (0 = greedy frontier merge, 1 = dual threshold). The synthetic
// population is a pure function of (seed, index) — no materialization —
// and the whole allocation runs inside a hard 64 MiB accounted cap,
// where the in-memory reference would need ~229 MiB for the raw arrays
// alone at 10M rows. Config mirrors EXPERIMENTS.md ("Streaming
// allocation at 10M rows"): pinned seed, 8 shards, budget 0.2% of
// all-in spend.
void BM_StreamingAllocate(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const uint64_t seed = 20240942;
  alloc::SyntheticRowSource source(rows, seed, /*chunk_rows=*/65536);
  StatusOr<double> total = alloc::StreamingTotalCost(&source);
  ROICL_CHECK(total.ok());
  double budget = 0.002 * total.value();
  alloc::StreamingOptions options;
  options.mode = state.range(1) == 0 ? alloc::AllocMode::kGreedy
                                     : alloc::AllocMode::kDual;
  options.num_shards = 8;
  options.memory_cap_bytes = size_t{64} << 20;
  size_t peak = 0;
  int64_t selected = 0;
  for (auto _ : state) {
    StatusOr<alloc::StreamingResult> result =
        alloc::StreamingAllocate(&source, budget, options);
    ROICL_CHECK(result.ok());
    ROICL_CHECK(result.value().peak_memory_bytes <=
                options.memory_cap_bytes);
    peak = std::max(peak, result.value().peak_memory_bytes);
    selected = static_cast<int64_t>(result.value().selected.size());
    benchmark::DoNotOptimize(result.value().spent);
  }
  state.SetItemsProcessed(state.iterations() * rows);
  state.counters["peak_mib"] =
      static_cast<double>(peak) / (1024.0 * 1024.0);
  state.counters["cap_mib"] =
      static_cast<double>(options.memory_cap_bytes) / (1024.0 * 1024.0);
  state.counters["selected"] = static_cast<double>(selected);
}

// K-arm campaign allocation: Arg(0) is the user count, Arg(1) the arm
// count. Every (user, arm) pair is a pure function of (seed, user, arm)
// — no materialization — and the sharded scan runs inside a hard 64 MiB
// accounted cap, where the in-memory reference would hold K roi + K
// cost arrays (~488 MiB at 4M users x 8 arms). The global budget is
// 0.2% of all-in spend with unbounded per-arm budgets — same fraction
// as BM_StreamingAllocate, and the frontier it implies peaks at
// ~55 MiB on the 32M-pair row, deterministically inside the cap.
void BM_CampaignAllocate(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int num_arms = static_cast<int>(state.range(1));
  const uint64_t seed = 20240819;
  const int chunk_rows = 65536;
  double total = 0.0;
  {
    campaign::SyntheticKArmRowSource scan(rows, num_arms, seed, chunk_rows);
    campaign::KArmRowChunk chunk;
    while (scan.Next(&chunk)) {
      for (const std::vector<double>& arm : chunk.cost) {
        total = std::accumulate(arm.begin(), arm.end(), total);
      }
    }
  }
  campaign::KArmBudgets budgets;
  budgets.global = 0.002 * total;
  budgets.per_arm.assign(roicl::AsSize(num_arms),
                         std::numeric_limits<double>::infinity());
  campaign::KArmStreamingOptions options;
  options.num_shards = 8;
  options.memory_cap_bytes = size_t{64} << 20;
  size_t peak = 0;
  int64_t selected = 0;
  for (auto _ : state) {
    campaign::SyntheticKArmRowSource source(rows, num_arms, seed,
                                            chunk_rows);
    StatusOr<campaign::KArmStreamingResult> result =
        campaign::StreamingKArmAllocate(&source, budgets, options);
    ROICL_CHECK(result.ok());
    ROICL_CHECK(result.value().peak_memory_bytes <=
                options.memory_cap_bytes);
    peak = std::max(peak, result.value().peak_memory_bytes);
    selected = static_cast<int64_t>(result.value().selected_pairs.size());
    benchmark::DoNotOptimize(result.value().spent);
  }
  state.SetItemsProcessed(state.iterations() * rows * num_arms);
  state.counters["peak_mib"] =
      static_cast<double>(peak) / (1024.0 * 1024.0);
  state.counters["cap_mib"] =
      static_cast<double>(options.memory_cap_bytes) / (1024.0 * 1024.0);
  state.counters["selected"] = static_cast<double>(selected);
}

void BM_DrpTrainEpoch(benchmark::State& state) {
  RctDataset train = MakeData(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    core::DrpConfig config;
    config.train.epochs = 1;
    config.train.patience = 0;
    core::DrpModel drp(config);
    drp.Fit(train);
  }
  state.SetComplexityN(state.range(0));
}

// Instrumentation-overhead measurement: the full rDRP train + predict
// pipeline with observability quiet (arg 0: log level off, tracing off),
// at the default INFO level (arg 1), and with tracing collecting spans
// (arg 2). The acceptance bar is arg1 within 3% of arg0.
void BM_RdrpTrainPredictObsOverhead(benchmark::State& state) {
  RctDataset train = MakeData(2000);
  RctDataset calib = MakeData(600);
  RctDataset test = MakeData(800);
  obs::Logger& logger = obs::Logger::Global();
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  obs::LogLevel saved_level = logger.level();
  int mode = static_cast<int>(state.range(0));
  logger.SetLevel(mode == 0 ? obs::LogLevel::kOff : obs::LogLevel::kInfo);
  collector.SetEnabled(mode == 2);

  core::RdrpConfig config;
  config.drp.train.epochs = 8;
  config.drp.restarts = 1;
  config.mc_passes = 10;
  for (auto _ : state) {
    core::RdrpModel model(config);
    model.FitWithCalibration(train, calib);
    benchmark::DoNotOptimize(model.PredictRoi(test.x));
    collector.Clear();
  }

  collector.SetEnabled(false);
  collector.Clear();
  logger.SetLevel(saved_level);
}

void BM_CausalForestFit(benchmark::State& state) {
  RctDataset train = MakeData(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    trees::CausalForestConfig config;
    config.num_trees = 10;
    trees::CausalForest forest(config);
    forest.Fit(train.x, train.treatment, train.y_revenue);
    benchmark::DoNotOptimize(forest);
  }
  state.SetComplexityN(state.range(0));
}

/// End-to-end serving throughput: a ScoringService fed micro-batched
/// requests (128 rows each), swept over engine thread counts. The
/// pipeline is trained once and reloaded from its artifact per run, so
/// the benchmark covers the exact train-once/serve-many path the CLI
/// `serve` subcommand uses. Recorded to BENCH_serve.json by
/// tools/bench_to_json.sh.
void BM_ScoringServiceThroughput(benchmark::State& state) {
  static const std::string& blob = [] {
    pipeline::Hyperparams hp;
    hp.neural_epochs = 4;
    hp.restarts = 1;
    RctDataset train = MakeData(2000);
    pipeline::Pipeline trained =
        std::move(pipeline::Pipeline::Train("DRP", hp, train,
                                            /*calibration=*/nullptr, {}))
            .value();
    std::ostringstream out;
    ROICL_CHECK(trained.Save(out).ok());
    return *new std::string(out.str());
  }();
  std::istringstream in(blob);
  pipeline::Pipeline loaded =
      std::move(pipeline::Pipeline::Load(in)).value();
  pipeline::ServiceOptions options;
  options.engine.num_threads = static_cast<int>(state.range(0));
  pipeline::ScoringService service(std::move(loaded), options);

  RctDataset data = MakeData(4096);
  constexpr int kRequestRows = 128;
  std::vector<Matrix> requests;
  for (int start = 0; start < data.x.rows(); start += kRequestRows) {
    int end = std::min(start + kRequestRows, data.x.rows());
    std::vector<int> rows(AsSize(end - start));
    std::iota(rows.begin(), rows.end(), start);
    requests.push_back(data.x.SelectRows(rows));
  }

  for (auto _ : state) {
    std::vector<std::future<StatusOr<std::vector<double>>>> futures;
    futures.reserve(requests.size());
    for (const Matrix& request : requests) {
      futures.push_back(service.Submit(request));
    }
    for (auto& future : futures) {
      StatusOr<std::vector<double>> result = future.get();
      ROICL_CHECK(result.ok());
      benchmark::DoNotOptimize(result.value().data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.x.rows()));
}

// Shared conformal fixture for the monitor benchmarks: one trained rDRP
// pipeline plus the calibration set its references were captured from.
struct MonitorFixture {
  pipeline::Pipeline pipeline;
  RctDataset calibration;
};

MonitorFixture& SharedMonitorFixture() {
  static MonitorFixture& fixture = *[] {
    pipeline::Hyperparams hp;
    hp.neural_epochs = 4;
    hp.restarts = 1;
    hp.mc_passes = 6;
    RctDataset train = MakeData(2000);
    Rng rng(43);
    RctDataset calib = Generator().Generate(600, false, &rng);
    pipeline::Pipeline trained =
        std::move(pipeline::Pipeline::Train("rDRP", hp, train, &calib, {}))
            .value();
    return new MonitorFixture{std::move(trained), std::move(calib)};
  }();
  return fixture;
}

/// Serving-path overhead of drift monitoring: ObserveScored bins every
/// feature column and the score stream into the live windows (plus a
/// detector evaluation each time `window_rows` accumulate), fanned out
/// over engine threads (arg 0). Items = rows ingested; recorded to
/// BENCH_monitor.json by tools/bench_to_json.sh.
void BM_MonitorUpdate(benchmark::State& state) {
  MonitorFixture& fixture = SharedMonitorFixture();
  monitor::MonitorOptions options;
  options.engine.batch_size = 128;
  options.engine.num_threads = static_cast<int>(state.range(0));
  std::unique_ptr<monitor::ServingMonitor> mon =
      std::move(monitor::ServingMonitor::FromCalibration(
                    &fixture.pipeline, fixture.calibration, options))
          .value();
  RctDataset data = MakeData(2048);
  std::vector<double> scores = fixture.pipeline.Score(data.x).value();
  for (auto _ : state) {
    mon->ObserveScored(data.x, scores);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.x.rows()));
}

/// One forced rolling recalibration over a full labeled feedback window
/// of arg-0 rows: the Eq. (3) MC sweep over the window, the Algorithm 2
/// roi* search, the windowed quantile, and the atomic q_hat swap.
void BM_RollingRecalibrate(benchmark::State& state) {
  MonitorFixture& fixture = SharedMonitorFixture();
  int window = static_cast<int>(state.range(0));
  monitor::MonitorOptions options;
  options.recalibrator.min_labeled = 50;
  options.recalibrator.max_window = static_cast<size_t>(window);
  std::unique_ptr<monitor::ServingMonitor> mon =
      std::move(monitor::ServingMonitor::FromCalibration(
                    &fixture.pipeline, fixture.calibration, options))
          .value();
  mon->BindQuantileSwap([&fixture](double q_hat) {
    return fixture.pipeline.SetConformalQuantile(q_hat);
  });
  RctDataset feedback = MakeData(window);
  ROICL_CHECK(mon->AddOutcomes(feedback).ok());
  for (auto _ : state) {
    StatusOr<monitor::RecalibrationResult> result =
        mon->MaybeRecalibrate(/*force=*/true);
    ROICL_CHECK(result.ok());
    benchmark::DoNotOptimize(result.value());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(window));
}

BENCHMARK(BM_BinarySearchRoiStar)
    ->Args({1000, 100})
    ->Args({1000, 10000})
    ->Args({10000, 10000})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ConformalQuantile)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Complexity()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_McDropoutInference)
    ->Arg(10)
    ->Arg(30)
    ->Arg(100)
    ->Complexity(benchmark::oN)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BatchForward)
    ->Arg(1)     // per-row baseline
    ->Arg(64)
    ->Arg(256)
    ->Arg(4000)  // whole set in one block
    ->Unit(benchmark::kMillisecond);
// UseRealTime: the pool's workers do the scoring, so the main thread's
// CPU time undercounts the work at 2 and 8 threads.
BENCHMARK(BM_ParallelMcDropout)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Aucc)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(50000)
    ->Complexity(benchmark::oNLogN)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GreedyAllocate)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Complexity(benchmark::oNLogN)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_StreamingAllocate)
    ->Args({1000000, 0})
    ->Args({10000000, 0})   // the acceptance row: >= 10M users, 64 MiB cap
    ->Args({10000000, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CampaignAllocate)
    ->Args({1000000, 3})
    ->Args({4000000, 8})    // K*n = 32M pairs inside the 64 MiB cap
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DrpTrainEpoch)
    ->Arg(2000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CausalForestFit)
    ->Arg(2000)
    ->Arg(8000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RdrpTrainPredictObsOverhead)
    ->Arg(0)   // observability quiet
    ->Arg(1)   // log level INFO (the default)
    ->Arg(2)   // + trace collection
    ->Unit(benchmark::kMillisecond);
// UseRealTime: the client thread mostly waits on futures while the
// dispatcher scores, so CPU-time-based rates would overstate throughput.
BENCHMARK(BM_ScoringServiceThroughput)
    ->Arg(1)   // serial engine
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MonitorUpdate)
    ->Arg(1)   // inline serial binning
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RollingRecalibrate)
    ->Arg(200)
    ->Arg(400)
    ->Arg(800)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace roicl

BENCHMARK_MAIN();
