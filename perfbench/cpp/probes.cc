#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/calibration.h"
#include "core/conformal.h"
#include "core/interval_backend.h"
#include "core/roi_star.h"
#include "data/scaler.h"
#include "nn/activation.h"
#include "nn/batch_forward.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/mlp.h"

namespace perfbench {
namespace {

using roicl::Matrix;

constexpr uint64_t kProbeSeed = 777;
constexpr int kBlockRows = 256;  // one engine block
constexpr int kFeatures = 12;
constexpr int kHidden = 128;
constexpr int kProbeReps = 301;
constexpr double kDropoutRate = 0.2;  // Hyperparams::drp_dropout

/// Median wall time of `body` in microseconds over `reps` calls; `prepare`
/// runs untimed before each call.
double MedianMicros(int reps, const std::function<void()>& prepare,
                    const std::function<void()>& body) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    prepare();
    const Clock::time_point start = Clock::now();
    body();
    us.push_back(1e3 * MillisSince(start));
  }
  return Median(us);
}

Matrix RandomMatrix(int rows, int cols, roicl::Rng* rng) {
  Matrix m(rows, cols);
  for (double& v : m.data()) v = rng->Normal();
  return m;
}

}  // namespace

void RunKernelProbes(Result* result) {
  using namespace roicl;
  ScopedSpan probes_span("probe.kernels");
  Rng rng(kProbeSeed);
  const Matrix x = RandomMatrix(kBlockRows, kFeatures, &rng);
  nn::Mlp net = nn::Mlp::MakeMlp(kFeatures, {kHidden}, 1,
                                 nn::ActivationKind::kRelu, kDropoutRate,
                                 &rng);
  if (net.num_layers() != 4 ||
      dynamic_cast<nn::Dense*>(net.layer(0)) == nullptr ||
      dynamic_cast<nn::Activation*>(net.layer(1)) == nullptr ||
      dynamic_cast<nn::Dropout*>(net.layer(2)) == nullptr ||
      dynamic_cast<nn::Dense*>(net.layer(3)) == nullptr) {
    result->Fail("MakeMlp no longer builds Dense-ReLU-Dropout-Dense");
    return;
  }
  const Matrix& w = dynamic_cast<nn::Dense*>(net.layer(0))->weights();

  nn::RowRngs rngs;
  uint64_t pass = 0;
  auto fresh_rngs = [&] {
    rngs.clear();
    for (int r = 0; r < kBlockRows; ++r) {
      rngs.push_back(MakeCounterRng(kProbeSeed,
                                    pass * kBlockRows + static_cast<uint64_t>(r)));
    }
    ++pass;
  };
  auto none = [] {};

  Matrix hidden, activated, dropped;
  {
    ScopedSpan span("linalg.matmul");
    const double us = MedianMicros(kProbeReps, none, [&] {
      Matrix c = Matmul(x, w);
      Sink(c(0, 0));
    });
    result->Layer("linalg.matmul_us", us, "us");
    const double flops = 2.0 * kBlockRows * kFeatures * kHidden;
    result->Layer("linalg.matmul_gflops", flops / (us * 1e3), "GFLOP/s");
  }
  {
    ScopedSpan span("nn.dense");
    result->Layer("nn.dense_us", MedianMicros(kProbeReps, fresh_rngs, [&] {
      hidden = net.layer(0)->ForwardRows(x, nn::Mode::kMcSample, &rngs);
    }), "us");
  }
  {
    ScopedSpan span("nn.relu");
    result->Layer("nn.relu_us", MedianMicros(kProbeReps, fresh_rngs, [&] {
      activated = net.layer(1)->ForwardRows(hidden, nn::Mode::kMcSample,
                                            &rngs);
    }), "us");
  }
  {
    ScopedSpan span("nn.dropout");
    result->Layer("nn.dropout_us", MedianMicros(kProbeReps, fresh_rngs, [&] {
      dropped = net.layer(2)->ForwardRows(activated, nn::Mode::kMcSample,
                                          &rngs);
    }), "us");
  }
  {
    ScopedSpan span("nn.out_dense");
    result->Layer("nn.out_dense_us", MedianMicros(kProbeReps, fresh_rngs, [&] {
      Matrix out = net.layer(3)->ForwardRows(dropped, nn::Mode::kMcSample,
                                             &rngs);
      Sink(out(0, 0));
    }), "us");
  }
  // Bytes one MC pass over the block moves, computed from tensor sizes:
  // Dense reads x, W, b and writes H; ReLU and dropout each read and write
  // H; the output Dense reads H, its weights and bias and writes a column.
  {
    const double h = static_cast<double>(kBlockRows) * kHidden;
    const double elements =
        (kBlockRows * kFeatures + kFeatures * kHidden + kHidden + h) +
        2.0 * h + 2.0 * h + (h + kHidden + 1 + kBlockRows);
    result->Layer("nn.block_mib_moved", elements * 8.0 / (1024.0 * 1024.0),
                  "MiB");
  }
  {
    // One (row, pass) unit of the MC engine: derive the counter stream and
    // draw one keep/drop decision per hidden unit.
    ScopedSpan span("common.counter_rng");
    uint64_t counter = 0;
    const double us = MedianMicros(kProbeReps, none, [&] {
      double kept = 0.0;
      for (int r = 0; r < kBlockRows; ++r) {
        Rng row_rng = MakeCounterRng(kProbeSeed, counter++);
        for (int u = 0; u < kHidden; ++u) {
          kept += row_rng.Bernoulli(1.0 - kDropoutRate) ? 1.0 : 0.0;
        }
      }
      Sink(kept);
    });
    result->Layer("common.counter_rng_ns", us * 1e3 / kBlockRows, "ns");
  }

  std::vector<double> roi_hat(kBlockRows), r_hat(kBlockRows),
      rq(kBlockRows);
  for (int i = 0; i < kBlockRows; ++i) {
    roi_hat[static_cast<size_t>(i)] = rng.Uniform(0.1, 0.9);
    r_hat[static_cast<size_t>(i)] = rng.Uniform(0.01, 0.2);
    rq[static_cast<size_t>(i)] = 1.5 * r_hat[static_cast<size_t>(i)];
  }
  {
    ScopedSpan span("core.calibration_form");
    result->Layer("core.calibration_form_us",
                  MedianMicros(kProbeReps, none, [&] {
                    std::vector<double> out = core::ApplyCalibrationForm(
                        core::CalibrationForm::kProduct, roi_hat, rq);
                    Sink(out[0]);
                  }), "us");
  }
  {
    ScopedSpan span("core.intervals");
    const int calibration_rows = 2000;
    const Matrix xc = RandomMatrix(calibration_rows, kFeatures, &rng);
    std::vector<double> c_roi(calibration_rows), c_r(calibration_rows),
        c_star(calibration_rows, 0.4);
    for (int i = 0; i < calibration_rows; ++i) {
      c_roi[static_cast<size_t>(i)] = rng.Uniform(0.1, 0.9);
      c_r[static_cast<size_t>(i)] = rng.Uniform(0.01, 0.2);
    }
    StatusOr<std::unique_ptr<core::IntervalBackend>> backend =
        core::MakeIntervalBackend("split");
    if (!backend.ok()) {
      result->Fail("split backend: " + backend.status().ToString());
      return;
    }
    core::IntervalBackend& split = *backend.value();
    if (Status calibrated = split.Calibrate(xc, c_roi, c_r, c_star, 0.1,
                                            core::kDefaultStdFloor);
        !calibrated.ok()) {
      result->Fail("split calibration: " + calibrated.ToString());
      return;
    }
    const double q_hat = split.q_hat();
    result->Layer("core.intervals_us", MedianMicros(kProbeReps, none, [&] {
      std::vector<metrics::Interval> out =
          split.Intervals(x, roi_hat, r_hat, q_hat);
      Sink(out[0].lo);
    }), "us");
  }
}

void ReportIntervalQuality(
    const std::vector<roicl::metrics::Interval>& intervals,
    const roicl::RctDataset& data, Result* result) {
  const double roi_star = roicl::core::BinarySearchRoiStar(data);
  double covered = 0.0, width = 0.0;
  for (const roicl::metrics::Interval& interval : intervals) {
    covered += interval.Contains(roi_star) ? 1.0 : 0.0;
    width += interval.width();
  }
  const double n = static_cast<double>(intervals.size());
  result->Layer("core.interval_coverage", covered / n, "share");
  result->Layer("core.interval_width", width / n, "roi");
}

void RunModelProbes(const RunConfig& config, const Fixture& fixture,
                    const roicl::RctDataset& data, bool with_intervals,
                    Result* result) {
  using namespace roicl;
  ScopedSpan probes_span("probe.model");
  StandardScaler scaler;
  scaler.Fit(fixture.train.x);
  Matrix scaled;
  {
    ScopedSpan span("data.scale");
    const Clock::time_point start = Clock::now();
    scaled = scaler.Transform(data.x);
    result->Layer("data.scale_ms", MillisSince(start), "ms");
  }

  Rng rng(kProbeSeed);
  nn::Mlp net = nn::Mlp::MakeMlp(kFeatures, {kHidden}, 1,
                                 nn::ActivationKind::kRelu, kDropoutRate,
                                 &rng);
  {
    ScopedSpan span("nn.infer_forward");
    const Clock::time_point start = Clock::now();
    Matrix out = nn::BatchedInferForward(&net, scaled, {256, config.threads});
    result->Layer("nn.infer_forward_ms", MillisSince(start), "ms");
    Sink(out(0, 0));
  }
  {
    ScopedSpan span("core.mc_dropout");
    const Clock::time_point start = Clock::now();
    StatusOr<core::McDropoutStats> mc =
        fixture.pipeline->ScoreMc(data.x, 30, kProbeSeed);
    const double ms = MillisSince(start);
    if (!mc.ok()) {
      result->Fail("ScoreMc: " + mc.status().ToString());
      return;
    }
    result->Layer("core.mc_dropout_ms", ms, "ms");
    result->Layer("core.mc_samples_per_s",
                  static_cast<double>(data.n()) * 30.0 / (ms / 1e3),
                  "samples/s");
  }
  if (with_intervals) {
    ScopedSpan span("pipeline.intervals");
    const Clock::time_point start = Clock::now();
    StatusOr<std::vector<metrics::Interval>> intervals =
        fixture.pipeline->ScoreIntervals(data.x);
    const double ms = MillisSince(start);
    if (!intervals.ok()) {
      result->Fail("ScoreIntervals: " + intervals.status().ToString());
      return;
    }
    result->Layer("pipeline.intervals_ms", ms, "ms");
    ReportIntervalQuality(intervals.value(), data, result);
  }
}

}  // namespace perfbench
