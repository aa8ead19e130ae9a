// Micro-benchmarks backing the time-complexity analysis of §IV-D:
//   - Algorithm 2 binary search: O(log(1/eps)) derivative evaluations,
//     each a linear pass over the calibration set.
//   - Conformal quantile: O(n) selection over calibration scores.
//   - MC-dropout inference: linear in the number of passes.
//   - AUCC: O(n log n) sort + linear scan.
//   - Greedy C-BTAP allocation: O(n log n).
//   - Forest / DRP training for context.
//   - The log-level cost of instrumentation (the <2% budget).
// Serving, monitoring and allocation at scale are measured end to end by
// perfbench/ (see BENCHMARK.json), not here.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/stats.h"
#include "core/drp_model.h"
#include "core/greedy.h"
#include "core/rdrp.h"
#include "core/roi_star.h"
#include "exp/datasets.h"
#include "metrics/cost_curve.h"
#include "obs/log.h"
#include "obs/trace.h"
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
// (arg 2). The acceptance bar is arg1 within 3% of arg0. perfbench's
// trace.overhead_frac measures only its own span tracing; this is the one
// measurement of the log-level half of the budget.
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

}  // namespace
}  // namespace roicl

BENCHMARK_MAIN();
