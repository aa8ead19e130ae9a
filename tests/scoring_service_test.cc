// ScoringService contract: N client threads submitting interleaved
// requests get exactly the scores a serial in-process pass produces,
// bit for bit. Also covers queue rejection, deadlines, and clean
// shutdown. This test runs under ThreadSanitizer
// (tools/run_sanitizer.sh thread) as the data-race gate for the serving
// layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "core/interval_backend.h"
#include "metrics/coverage.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "pipeline/service.h"
#include "synth/synthetic_generator.h"

namespace {

using namespace roicl;

RctDataset Gen(int n, uint64_t seed) {
  synth::SyntheticGenerator generator(synth::CriteoSynthConfig());
  Rng rng(seed);
  return generator.Generate(n, /*shifted=*/false, &rng);
}

pipeline::Pipeline TrainSmallDrp() {
  pipeline::Hyperparams hp;
  hp.neural_epochs = 3;
  hp.restarts = 1;
  RctDataset train = Gen(200, 7);
  return std::move(pipeline::Pipeline::Train("DRP", hp, train,
                                             /*calibration=*/nullptr, {}))
      .value();
}

pipeline::Pipeline TrainSmallRdrp() {
  pipeline::Hyperparams hp;
  hp.neural_epochs = 3;
  hp.restarts = 1;
  hp.mc_passes = 4;
  RctDataset train = Gen(200, 7);
  RctDataset calib = Gen(120, 8);
  return std::move(
             pipeline::Pipeline::Train("rDRP", hp, train, &calib, {}))
      .value();
}

double MeanWidth(const std::vector<metrics::Interval>& intervals) {
  double width_sum = 0.0;
  for (const metrics::Interval& iv : intervals) width_sum += iv.width();
  return width_sum / static_cast<double>(intervals.size());
}

TEST(ScoringService, InterleavedThreadsMatchSerialBitwise) {
  pipeline::Pipeline pipeline = TrainSmallDrp();

  // Distinct request payloads, each with its own serial reference score.
  constexpr int kRequests = 24;
  std::vector<Matrix> payloads;
  std::vector<std::vector<double>> expected;
  for (int i = 0; i < kRequests; ++i) {
    RctDataset data = Gen(17 + i % 5, 100 + static_cast<uint64_t>(i));
    expected.push_back(pipeline.Score(data.x).value());
    payloads.push_back(data.x);
  }

  pipeline::ServiceOptions options;
  options.engine.batch_size = 8;
  options.engine.num_threads = 2;
  pipeline::ScoringService service(std::move(pipeline), options);

  // N threads submit interleaved slices of the request list.
  constexpr int kThreads = 6;
  std::vector<std::future<StatusOr<std::vector<double>>>> futures(
      kRequests);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = t; i < kRequests; i += kThreads) {
        futures[AsSize(i)] = service.Submit(payloads[AsSize(i)]);
      }
    });
  }
  for (std::thread& client : clients) client.join();

  for (int i = 0; i < kRequests; ++i) {
    StatusOr<std::vector<double>> result = futures[AsSize(i)].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.value().size(), expected[AsSize(i)].size());
    for (size_t r = 0; r < expected[AsSize(i)].size(); ++r) {
      ASSERT_EQ(result.value()[r], expected[AsSize(i)][r])
          << "request " << i << " row " << r;
    }
  }
  EXPECT_EQ(service.requests_served(), static_cast<uint64_t>(kRequests));
}

TEST(ScoringService, BlockingScoreMatchesSubmit) {
  pipeline::Pipeline pipeline = TrainSmallDrp();
  RctDataset data = Gen(20, 55);
  std::vector<double> expected = pipeline.Score(data.x).value();

  pipeline::ScoringService service(std::move(pipeline), {});
  StatusOr<std::vector<double>> got = service.Score(data.x);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), expected);
}

TEST(ScoringService, RejectsWrongDimensionWithoutCrashing) {
  pipeline::ScoringService service(TrainSmallDrp(), {});
  int dim = service.pipeline().feature_dim();
  Matrix wrong(3, dim + 1, 0.25);
  StatusOr<std::vector<double>> result = service.Score(wrong);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("feature dimension mismatch"),
            std::string::npos)
      << result.status().ToString();
  // The service stays usable after a bad request.
  RctDataset data = Gen(5, 66);
  EXPECT_TRUE(service.Score(data.x).ok());
}

TEST(ScoringService, SubmitRejectsInvalidRequestsBeforeTheQueue) {
  pipeline::Pipeline pipeline = TrainSmallDrp();
  const int dim = pipeline.feature_dim();
  RctDataset before = Gen(9, 81);
  RctDataset after = Gen(11, 82);
  std::vector<double> expected_before = pipeline.Score(before.x).value();
  std::vector<double> expected_after = pipeline.Score(after.x).value();
  Matrix nan_request = after.x;
  nan_request(3, 1) = std::numeric_limits<double>::quiet_NaN();
  Matrix wrong_width(4, dim + 1, 0.25);

  pipeline::ScoringService service(std::move(pipeline), {});
  obs::Counter* invalid_rows =
      obs::MetricsRegistry::Global().GetCounter("serve.invalid_rows");
  const uint64_t invalid_at_start = invalid_rows->value();

  StatusOr<std::vector<double>> first = service.Score(before.x);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.value(), expected_before);
  const uint64_t served = service.requests_served();
  std::future<StatusOr<std::vector<double>>> nan_future =
      service.Submit(nan_request);
  std::future<StatusOr<std::vector<double>>> wrong_future =
      service.Submit(wrong_width);
  // Rejected inside Submit: both futures are resolved on return, and the
  // dispatcher never sees them.
  ASSERT_EQ(nan_future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  ASSERT_EQ(wrong_future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(service.requests_served(), served);
  StatusOr<std::vector<double>> nan_result = nan_future.get();
  ASSERT_FALSE(nan_result.ok());
  EXPECT_EQ(nan_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nan_result.status().message().find("row 3 column 1"),
            std::string::npos)
      << nan_result.status().ToString();
  StatusOr<std::vector<double>> wrong_result = wrong_future.get();
  ASSERT_FALSE(wrong_result.ok());
  EXPECT_EQ(wrong_result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(invalid_rows->value() - invalid_at_start,
            static_cast<uint64_t>(nan_request.rows() + wrong_width.rows()));

  // The valid requests on either side are served exactly as in process.
  StatusOr<std::vector<double>> last = service.Score(after.x);
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(last.value(), expected_after);
  EXPECT_EQ(service.requests_served(), served + 1);
}

TEST(ScoringService, QueueOverflowRejectsInsteadOfBlocking) {
  pipeline::ServiceOptions options;
  options.max_queue = 1;
  pipeline::ScoringService service(TrainSmallDrp(), options);

  // A large blocker request keeps the dispatcher busy while the burst
  // lands, so the one-slot queue overflows. A fast machine could in
  // principle still drain between submits, so retry a bounded number of
  // times rather than assume timing.
  RctDataset blocker_data = Gen(60000, 76);
  RctDataset data = Gen(8, 77);
  constexpr int kBurst = 64;
  int ok = 0, rejected = 0;
  for (int attempt = 0; attempt < 5 && rejected == 0; ++attempt) {
    ok = rejected = 0;
    std::future<StatusOr<std::vector<double>>> blocker =
        service.Submit(blocker_data.x);
    std::vector<std::future<StatusOr<std::vector<double>>>> futures;
    futures.reserve(kBurst);
    for (int i = 0; i < kBurst; ++i) {
      futures.push_back(service.Submit(data.x));
    }
    for (auto& future : futures) {
      StatusOr<std::vector<double>> result = future.get();
      if (result.ok()) {
        ++ok;
      } else {
        ASSERT_NE(result.status().message().find("queue full"),
                  std::string::npos)
            << result.status().ToString();
        ++rejected;
      }
    }
    ASSERT_TRUE(blocker.get().ok());
    ASSERT_EQ(ok + rejected, kBurst);
  }
  EXPECT_GE(rejected, 1);
  // Overflow rejections never wedge the service.
  EXPECT_TRUE(service.Score(data.x).ok());
}

TEST(ScoringService, ExpiredDeadlinesFailWithDescriptiveStatus) {
  pipeline::ScoringService service(TrainSmallDrp(), {});
  RctDataset data = Gen(32, 88);
  constexpr int kBurst = 32;
  std::vector<std::future<StatusOr<std::vector<double>>>> futures;
  futures.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(service.Submit(data.x, /*deadline_micros=*/1));
  }
  for (auto& future : futures) {
    StatusOr<std::vector<double>> result = future.get();
    // Each request either made its (1us) deadline or failed with the
    // deadline status — never anything else, and never a hang.
    if (!result.ok()) {
      EXPECT_NE(result.status().message().find("deadline exceeded"),
                std::string::npos)
          << result.status().ToString();
    }
  }
}

TEST(ScoringService, ConcurrentSubmittersAndDestructorRaceCleanly) {
  // Shutdown while clients are still submitting: every future must
  // resolve (scored or "shut down"), nothing hangs, nothing races.
  RctDataset data = Gen(16, 99);
  std::vector<std::future<StatusOr<std::vector<double>>>> futures;
  std::mutex futures_mu;
  {
    pipeline::ScoringService service(TrainSmallDrp(), {});
    std::atomic<bool> stop{false};
    std::vector<std::thread> clients;
    for (int t = 0; t < 4; ++t) {
      clients.emplace_back([&] {
        while (!stop.load()) {
          auto future = service.Submit(data.x);
          std::lock_guard<std::mutex> lock(futures_mu);
          futures.push_back(std::move(future));
          if (futures.size() > 64) return;
        }
      });
    }
    while (true) {
      {
        std::lock_guard<std::mutex> lock(futures_mu);
        if (futures.size() >= 32) break;
      }
      std::this_thread::yield();
    }
    stop.store(true);
    for (std::thread& client : clients) client.join();
    // Service destructor runs here with requests possibly still queued.
  }
  for (auto& future : futures) {
    StatusOr<std::vector<double>> result = future.get();
    if (!result.ok()) {
      EXPECT_NE(result.status().message().find("shut down"),
                std::string::npos)
          << result.status().ToString();
    }
  }
}

// With the shadow stage on every request, an rDRP request is scored by
// one PredictRdrp: its response is Pipeline::Score's, and the
// serve.interval_width it publishes is the mean width of
// Pipeline::ScoreIntervals on the same matrix, both bit for bit.
TEST(ScoringService, ShadowStageServesScoresAndWidthOfOnePrediction) {
  pipeline::Pipeline pipeline = TrainSmallRdrp();
  constexpr int kRequests = 6;
  std::vector<Matrix> payloads;
  std::vector<std::vector<double>> expected;
  std::vector<double> expected_width;
  for (int i = 0; i < kRequests; ++i) {
    RctDataset data = Gen(9 + 7 * i, 300 + static_cast<uint64_t>(i));
    expected.push_back(pipeline.Score(data.x).value());
    expected_width.push_back(
        MeanWidth(pipeline.ScoreIntervals(data.x).value()));
    payloads.push_back(data.x);
  }

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  pipeline::ServiceOptions options;
  options.engine.batch_size = 8;
  options.engine.num_threads = 2;
  options.shadow_interval_every = 1;
  pipeline::ScoringService service(std::move(pipeline), options);
  const obs::Gauge* width = metrics.GetGauge("serve.interval_width");
  for (int i = 0; i < kRequests; ++i) {
    SCOPED_TRACE(i);
    StatusOr<std::vector<double>> got = service.Score(payloads[AsSize(i)]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const std::vector<double>& want = expected[AsSize(i)];
    ASSERT_EQ(got.value().size(), want.size());
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got.value()[r], want[r]) << "row " << r;
    }
    // The gauge is set before the response resolves.
    EXPECT_EQ(width->value(), expected_width[AsSize(i)]);
  }
  EXPECT_EQ(metrics.GetHistogram("serve.stage.conformal_us")->count(),
            static_cast<uint64_t>(kRequests));
  EXPECT_EQ(metrics.GetCounter("serve.errors")->value(), 0u);
}

// A point scorer has no intervals: asking for the shadow stage leaves it
// off, and every request is served without an error.
TEST(ScoringService, ShadowStageOnPointScorerServesWithoutErrors) {
  pipeline::Pipeline pipeline = TrainSmallDrp();
  RctDataset data = Gen(20, 77);
  const std::vector<double> expected = pipeline.Score(data.x).value();

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.Reset();
  pipeline::ServiceOptions options;
  options.shadow_interval_every = 1;
  pipeline::ScoringService service(std::move(pipeline), options);
  for (int i = 0; i < 5; ++i) {
    StatusOr<std::vector<double>> got = service.Score(data.x);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value(), expected);
  }
  EXPECT_EQ(metrics.GetCounter("serve.errors")->value(), 0u);
  EXPECT_EQ(metrics.GetHistogram("serve.stage.conformal_us")->count(), 0u);
}

// The monitor's quantile swap races live traffic by design: q_hat is an
// atomic inside the rDRP scorer and its point score depends on it
// (Algorithm 4 folds q_hat * r_hat into the calibrated ROI). The
// no-tearing contract: every concurrently scored row must be bitwise
// equal to the score at SOME quantile that was actually written — a torn
// double would produce a score matching none of them. Exercised for
// every interval backend: the live quantile stays the model's single
// atomic scalar regardless of which backend calibrated it, which is
// exactly what makes the swap backend-agnostic. TSan-covered by the
// tsan suite.
void RunQuantileSwapTearTest(const std::string& backend_name) {
  pipeline::Hyperparams hp;
  hp.neural_epochs = 3;
  hp.restarts = 1;
  hp.mc_passes = 4;
  hp.interval_backend = backend_name;
  RctDataset train = Gen(200, 7);
  RctDataset calib = Gen(120, 8);
  pipeline::Pipeline pipeline =
      std::move(pipeline::Pipeline::Train("rDRP", hp, train, &calib, {}))
          .value();
  ASSERT_NE(pipeline.interval_backend(), nullptr);
  ASSERT_EQ(pipeline.interval_backend()->name(), backend_name);
  RctDataset data = Gen(24, 55);

  // Serial references: the score vector at the trained quantile and at
  // each value the swapper will write.
  constexpr int kSwaps = 16;
  const double q_initial = pipeline.conformal_quantile().value();
  std::vector<double> quantiles = {q_initial};
  for (int i = 1; i <= kSwaps; ++i) {
    quantiles.push_back(q_initial * (1.0 + 0.25 * i));
  }
  std::vector<std::vector<double>> references;
  for (double q : quantiles) {
    ASSERT_TRUE(pipeline.SetConformalQuantile(q).ok());
    references.push_back(pipeline.Score(data.x).value());
  }
  ASSERT_TRUE(pipeline.SetConformalQuantile(q_initial).ok());

  pipeline::ServiceOptions options;
  options.engine.batch_size = 8;
  options.engine.num_threads = 2;
  pipeline::ScoringService service(std::move(pipeline), options);

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      while (!stop.load()) {
        StatusOr<std::vector<double>> got = service.Score(data.x);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got.value().size(), references[0].size());
        for (size_t r = 0; r < got.value().size(); ++r) {
          bool matches_some_written_quantile = false;
          for (const std::vector<double>& reference : references) {
            matches_some_written_quantile |=
                got.value()[r] == reference[r];
          }
          EXPECT_TRUE(matches_some_written_quantile)
              << "row " << r << " scored " << got.value()[r]
              << " which matches no written quantile (torn q_hat?)";
        }
      }
    });
  }
  std::thread swapper([&] {
    for (size_t i = 1; i < quantiles.size(); ++i) {
      ASSERT_TRUE(service.SetConformalQuantile(quantiles[i]).ok());
      std::this_thread::yield();
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      StatusOr<double> q = service.pipeline().conformal_quantile();
      ASSERT_TRUE(q.ok());
      // Readers may only ever observe exactly-written values.
      EXPECT_NE(std::find(quantiles.begin(), quantiles.end(), q.value()),
                quantiles.end())
          << "observed quantile " << q.value() << " was never written";
      std::this_thread::yield();
    }
  });
  swapper.join();
  reader.join();
  for (std::thread& client : clients) client.join();
  EXPECT_DOUBLE_EQ(service.pipeline().conformal_quantile().value(),
                   quantiles.back());
}

TEST(ScoringService, QuantileSwapNeverTearsConcurrentSubmits) {
  for (const char* backend_name : core::kIntervalBackendNames) {
    SCOPED_TRACE(backend_name);
    RunQuantileSwapTearTest(backend_name);
  }
}

}  // namespace
