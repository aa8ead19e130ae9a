#include "core/mc_dropout.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/math_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace roicl::core {

McDropoutStats RunMcDropout(nn::Mlp* net, const Matrix& x, int passes,
                            uint64_t seed, bool sigmoid_output,
                            const nn::BatchOptions& opts) {
  ROICL_CHECK(net != nullptr);
  ROICL_CHECK(passes >= 2);
  obs::ScopedSpan span("mc_dropout");
  uint64_t wall_start_us = obs::MonotonicMicros();
  int n = x.rows();

  McDropoutStats stats;
  stats.mean.resize(AsSize(n));
  stats.stddev.resize(AsSize(n));

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Histogram* batch_latency = registry.GetHistogram(
      "mc_dropout.batch_us", obs::LatencyMicrosBuckets());

  // Each block task owns the accumulators for its rows and applies passes
  // in ascending order; with per-(sample, pass) counter streams this makes
  // the result independent of block scheduling.
  nn::ForEachRowBlock(n, opts, [&](int /*block*/, int row_begin,
                                   int row_end) {
    uint64_t block_start_us = obs::MonotonicMicros();
    int rows = row_end - row_begin;
    Matrix x_block(rows, x.cols());
    std::copy_n(x.RowPtr(row_begin), x_block.size(), x_block.data().data());

    std::vector<double> sum(AsSize(rows), 0.0);
    std::vector<double> sum_sq(AsSize(rows), 0.0);
    nn::RowRngs rngs;
    rngs.reserve(AsSize(rows));
    nn::Mlp::Workspace workspace;
    for (int pass = 0; pass < passes; ++pass) {
      rngs.clear();
      uint64_t pass_base =
          static_cast<uint64_t>(pass) * static_cast<uint64_t>(n);
      for (int r = row_begin; r < row_end; ++r) {
        rngs.push_back(
            MakeCounterRng(seed, pass_base + static_cast<uint64_t>(r)));
      }
      const Matrix& out = net->ForwardRowsInto(x_block, nn::Mode::kMcSample,
                                               &rngs, &workspace);
      ROICL_CHECK_MSG(out.cols() == 1,
                      "MC dropout expects a single-output network");
      for (int r = 0; r < rows; ++r) {
        double v = out(r, 0);
        if (sigmoid_output) v = Sigmoid(v);
        sum[AsSize(r)] += v;
        sum_sq[AsSize(r)] += v * v;
      }
    }

    double inv = 1.0 / static_cast<double>(passes);
    for (int r = 0; r < rows; ++r) {
      double mean = sum[AsSize(r)] * inv;
      double var = std::max(0.0, sum_sq[AsSize(r)] * inv - mean * mean);
      stats.mean[AsSize(row_begin + r)] = mean;
      stats.stddev[AsSize(row_begin + r)] = std::sqrt(var);
    }
    batch_latency->Observe(
        static_cast<double>(obs::MonotonicMicros() - block_start_us));
  });

  double seconds =
      static_cast<double>(obs::MonotonicMicros() - wall_start_us) * 1e-6;
  uint64_t samples =
      static_cast<uint64_t>(n) * static_cast<uint64_t>(passes);
  registry.GetCounter("mc_dropout.samples")->Increment(samples);
  double rate = seconds > 0.0 ? static_cast<double>(samples) / seconds : 0.0;
  registry.GetGauge("mc_dropout.samples_per_sec")->Set(rate);
  obs::Debug("mc dropout", {{"n", n},
                            {"passes", passes},
                            {"batch_size", opts.batch_size},
                            {"num_threads", opts.num_threads},
                            {"samples_per_sec", rate},
                            {"seconds", seconds}});
  return stats;
}

}  // namespace roicl::core
