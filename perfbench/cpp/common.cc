#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "pipeline/registry.h"
#include "synth/synthetic_generator.h"

namespace perfbench {
namespace {

/// Pinned fixture: independent of the workload seed.
constexpr uint64_t kFixtureSeed = 20241016;
constexpr int kTrainRows = 4000;
constexpr int kCalibrationRows = 2000;

/// Every per-layer metric, with its unit. Must match BENCHMARK.json.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kPerLayerMetrics[] = {
    {"data.read_csv_ms", "ms"},
    {"data.scale_ms", "ms"},
    {"linalg.matmul_us", "us"},
    {"linalg.matmul_gflops", "GFLOP/s"},
    {"nn.dense_us", "us"},
    {"nn.relu_us", "us"},
    {"nn.dropout_us", "us"},
    {"nn.out_dense_us", "us"},
    {"nn.block_mib_moved", "MiB"},
    {"nn.infer_forward_ms", "ms"},
    {"common.counter_rng_ns", "ns"},
    {"core.mc_dropout_ms", "ms"},
    {"core.mc_samples_per_s", "samples/s"},
    {"core.calibration_form_us", "us"},
    {"core.intervals_us", "us"},
    {"core.interval_coverage", "share"},
    {"core.interval_width", "roi"},
    {"pipeline.score_ms", "ms"},
    {"pipeline.intervals_ms", "ms"},
    {"serve.latency_p50_ms", "ms"},
    {"serve.latency_p99_ms", "ms"},
    {"serve.queue_us_p50", "us"},
    {"serve.queue_us_p99", "us"},
    {"serve.score_us_p50", "us"},
    {"serve.score_us_p99", "us"},
    {"serve.occupancy_mean", "requests"},
    {"serve.conformal_us_p50", "us"},
    {"serve.conformal_us_mean", "us"},
    {"serve.rejected", "count"},
    {"serve.deadline_exceeded", "count"},
    {"serve.errors", "count"},
    {"serve.gen_lag_p99_ms", "ms"},
    {"monitor.observe_us_p50", "us"},
    {"monitor.observe_us_p99", "us"},
    {"monitor.add_outcomes_ms", "ms"},
    {"monitor.recalibrate_us", "us"},
    {"monitor.coverage", "share"},
    {"alloc.total_cost_ms", "ms"},
    {"alloc.greedy_ms", "ms"},
    {"alloc.dual_ms", "ms"},
    {"alloc.frontier_evictions", "count"},
    {"alloc.dual_gap", "value"},
    {"campaign.stream_ms", "ms"},
    {"campaign.peak_mib", "MiB"},
    {"threadpool.tasks", "count/op"},
    {"trace.overhead_frac", "frac"},
    {"trace.unattributed_frac", "frac"},
};

}  // namespace

void Result::Fail(const std::string& why) {
  correct = false;
  notes.push_back("CHECK FAILED: " + why);
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double TailQuantile(std::vector<double> values, std::string* note) {
  const double n = static_cast<double>(values.size());
  const double q = n >= 1000.0 ? 0.99 : n > 10.0 ? 1.0 - 10.0 / n : 1.0;
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer), "p%.2f of %zu samples", 100.0 * q,
                values.size());
  *note += buffer;
  return Quantile(std::move(values), q);
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void Sink(double value) {
  static std::atomic<double> sink{0.0};
  sink.store(value, std::memory_order_relaxed);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::unique_ptr<roicl::pipeline::Pipeline> LoadPipeline(
    const std::string& artifact, Result* result) {
  std::istringstream in(artifact);
  roicl::StatusOr<roicl::pipeline::Pipeline> loaded =
      roicl::pipeline::Pipeline::Load(in);
  if (!loaded.ok()) {
    result->Fail("artifact load: " + loaded.status().ToString());
    return nullptr;
  }
  return std::make_unique<roicl::pipeline::Pipeline>(
      std::move(loaded).value());
}

std::unique_ptr<Fixture> BuildFixture(const RunConfig& config,
                                      Result* result) {
  using namespace roicl;
  auto fixture = std::make_unique<Fixture>();
  synth::SyntheticGenerator generator(synth::CriteoSynthConfig());
  Rng train_rng(kFixtureSeed);
  fixture->train = generator.Generate(kTrainRows, /*shifted=*/false,
                                      &train_rng);
  Rng calibration_rng(kFixtureSeed + 1);
  fixture->calibration = generator.Generate(kCalibrationRows,
                                            /*shifted=*/true,
                                            &calibration_rng);

  pipeline::Hyperparams hp;
  hp.neural_epochs = 10;
  hp.restarts = 1;
  hp.mc_passes = 30;
  hp.alpha = 0.1;
  hp.interval_backend = "split";
  hp.seed = kFixtureSeed;
  StatusOr<std::string> method =
      pipeline::ScorerRegistry::Global().Resolve("rdrp");
  if (!method.ok()) {
    result->Fail("resolve rdrp: " + method.status().ToString());
    return nullptr;
  }
  pipeline::Provenance provenance;
  provenance.seed = kFixtureSeed;
  provenance.dataset = "synth:criteo";
  provenance.tool = "perfbench";
  StatusOr<pipeline::Pipeline> trained =
      pipeline::Pipeline::Train(method.value(), hp, fixture->train,
                                &fixture->calibration, provenance);
  if (!trained.ok()) {
    result->Fail("fixture training: " + trained.status().ToString());
    return nullptr;
  }

  // Round trip through the artifact file, as `roicl score` and
  // `roicl serve` load it.
  const std::string path = config.out_dir + "/fixture.pipeline";
  if (Status saved = trained.value().SaveToFile(path); !saved.ok()) {
    result->Fail("artifact save: " + saved.ToString());
    return nullptr;
  }
  StatusOr<pipeline::Pipeline> loaded = pipeline::Pipeline::LoadFromFile(path);
  if (!loaded.ok()) {
    result->Fail("artifact load: " + loaded.status().ToString());
    return nullptr;
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  fixture->artifact = bytes.str();
  fixture->pipeline =
      std::make_unique<pipeline::Pipeline>(std::move(loaded).value());
  fixture->pipeline->set_batch_options({256, config.threads});
  if (fixture->pipeline->feature_dim() != 12) {
    result->Fail("fixture feature dimension is not 12");
    return nullptr;
  }
  return fixture;
}

roicl::RctDataset MakePopulation(int rows, uint64_t seed) {
  roicl::synth::SyntheticGenerator generator(
      roicl::synth::CriteoSynthConfig());
  roicl::Rng rng(seed);
  return generator.Generate(rows, /*shifted=*/true, &rng);
}

void FillUnexercisedLayers(Result* result) {
  for (const LayerMetric& metric : kPerLayerMetrics) {
    if (result->per_layer.count(metric.name) == 0) {
      result->Layer(metric.name, 0.0, metric.unit);
    }
  }
}

}  // namespace perfbench
