#ifndef PERFBENCH_CPP_COMMON_H_
#define PERFBENCH_CPP_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "linalg/matrix.h"
#include "pipeline/pipeline.h"
#include "spans.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisSince(Clock::time_point start) {
  return 1e3 * SecondsSince(start);
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  int threads = 1;      ///< engine threads: the host's CPU count (nproc)
  std::string out_dir;  ///< fixture artifact, population CSV, trace file
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. Metric names and units are checked
/// against BENCHMARK.json by run.py.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<SelfTimeTable> tables;
  std::vector<std::string> notes;

  /// Marks the run incorrect and records why.
  void Fail(const std::string& why);
  void Note(const std::string& line) { notes.push_back(line); }
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = {value, unit};
  }
};

/// Number of in-process set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
/// The tail latency reported as serve.latency_p99_ms: the 99th percentile
/// when at least ten samples lie beyond it (>= 1000 samples), otherwise the
/// highest percentile that has ten samples beyond it (the maximum below 11
/// samples). Appends the percentile and sample count to `note`.
double TailQuantile(std::vector<double> values, std::string* note);
/// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMib();
/// Keeps a computed value alive so timed calls are not optimized away.
void Sink(double value);
/// Bitwise equality of two double vectors.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b);

/// The fixture every model-bearing workload serves: rDRP (split backend,
/// alpha 0.1, T = 30 MC passes) trained from a pinned seed on synthetic
/// Criteo (12 features, 4000 rows, so the auto width is H = 128), saved
/// as a v2 pipeline artifact and loaded back from that file.
struct Fixture {
  roicl::RctDataset train;
  roicl::RctDataset calibration;
  std::string artifact;  ///< the artifact bytes the pipeline was loaded from
  std::unique_ptr<roicl::pipeline::Pipeline> pipeline;
};

/// Trains, saves and reloads the fixture. The workload seed never reaches
/// the fixture. Fails `result` on any error.
std::unique_ptr<Fixture> BuildFixture(const RunConfig& config, Result* result);

/// Loads a fresh pipeline from artifact bytes (in-process reference).
std::unique_ptr<roicl::pipeline::Pipeline> LoadPipeline(
    const std::string& artifact, Result* result);

/// Synthetic Criteo rows drawn from the shifted (test) distribution, with
/// ground-truth tau columns, from the workload seed.
roicl::RctDataset MakePopulation(int rows, uint64_t seed);

/// Per-call timings of the model-free kernels one MC pass runs on a
/// 256-row block (matmul, each layer's ForwardRows, counter RNG, the
/// calibration form, the interval backend). Same procedure in every
/// workload's traced run.
void RunKernelProbes(Result* result);

/// Layer probes on a workload's feature matrix: StandardScaler::Transform,
/// BatchedInferForward of a net of the served shape, Pipeline::ScoreMc,
/// and (when `with_intervals`) Pipeline::ScoreIntervals with its coverage
/// of the matrix's roi*.
void RunModelProbes(const RunConfig& config, const Fixture& fixture,
                    const roicl::RctDataset& data, bool with_intervals,
                    Result* result);

/// Share of `intervals` holding `data`'s roi* (Algorithm 2 on its labels)
/// and their mean width, as core.interval_coverage / core.interval_width.
void ReportIntervalQuality(
    const std::vector<roicl::metrics::Interval>& intervals,
    const roicl::RctDataset& data, Result* result);

/// Fills every per-layer metric a workload did not exercise with 0, so
/// each traced run reports the full set.
void FillUnexercisedLayers(Result* result);

Result RunBatchScore(const RunConfig& config);
Result RunServeMixed(const RunConfig& config);
Result RunAllocateStream(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_COMMON_H_
