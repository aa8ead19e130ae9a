// rDRP serving outputs pinned across commits. golden_bits_test pins the
// inference engine and direct_model_golden_test pins direct-model
// training; these digests pin what Pipeline serves for rDRP under each
// interval backend: Score, ScoreIntervals and ScoreMc on a test set, the
// intervals after rebinding a split pipeline to cqr on its calibration
// set, and the quantile the serving monitor swaps in after one feedback
// batch. A refactor of the serving path must leave them alone; a change
// that is meant to move them must re-record them and say so. They were
// recorded with the serving path that ran a second MC sweep for every
// interval and conformal input, and hold for the one-sweep path.
//
// Training runs through libm (exp and log1p in the DRP loss, the sigmoid
// of every prediction), so these digests hold only for the C math library
// they were recorded with.

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "metrics/coverage.h"
#include "monitor/monitor.h"
#include "pipeline/pipeline.h"
#include "synth/synthetic_generator.h"

namespace roicl {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// FNV-1a (64-bit) over the little-endian bytes of one double.
uint64_t Fnv1a(uint64_t hash, double value) {
  const uint64_t word = std::bit_cast<uint64_t>(value);
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t ValuesDigest(const std::vector<double>& values) {
  uint64_t hash = kFnvOffset;
  for (double v : values) hash = Fnv1a(hash, v);
  return hash;
}

// Each interval's lo, then its hi.
uint64_t IntervalsDigest(const std::vector<metrics::Interval>& intervals) {
  uint64_t hash = kFnvOffset;
  for (const metrics::Interval& iv : intervals) {
    hash = Fnv1a(Fnv1a(hash, iv.lo), iv.hi);
  }
  return hash;
}

RctDataset Generate(int n, uint64_t seed, bool shifted) {
  synth::SyntheticGenerator generator(synth::CriteoSynthConfig());
  Rng rng(seed);
  return generator.Generate(n, shifted, &rng);
}

// On these sets every backend selects calibration form 5b, which reads
// r_hat * q_hat: Score pins the MC sweep and the quantile, not only the
// point forward.
struct Data {
  RctDataset train = Generate(1200, 711, /*shifted=*/false);
  RctDataset calibration = Generate(500, 712, /*shifted=*/true);
  RctDataset test = Generate(300, 713, /*shifted=*/false);
  RctDataset feedback = Generate(400, 714, /*shifted=*/true);
};

const Data& SharedData() {
  static const Data& data = *new Data();
  return data;
}

pipeline::Pipeline TrainRdrp(const std::string& backend) {
  pipeline::Hyperparams hp;
  hp.neural_epochs = 4;
  hp.restarts = 1;
  hp.mc_passes = 10;
  hp.interval_backend = backend;
  const Data& data = SharedData();
  StatusOr<pipeline::Pipeline> trained = pipeline::Pipeline::Train(
      "rDRP", hp, data.train, &data.calibration, {});
  EXPECT_TRUE(trained.ok()) << trained.status().ToString();
  return std::move(trained).value();
}

struct ServedCase {
  const char* backend;
  uint64_t score;
  uint64_t intervals;
  uint64_t mc_mean;
  uint64_t mc_stddev;
};

constexpr ServedCase kServedCases[] = {
    {"split", 0x56f98f08785f862fULL,
     0x3796f5bc208d0de3ULL, 0x9b477987b1499386ULL,
     0x365be3aefc5a0fd9ULL},
    {"weighted", 0x56f98f08785f862fULL,
     0x3796f5bc208d0de3ULL, 0x9b477987b1499386ULL,
     0x365be3aefc5a0fd9ULL},
    {"cqr", 0x8d853a6592378e8bULL,
     0x0e3de723adcb9928ULL, 0x9b477987b1499386ULL,
     0x365be3aefc5a0fd9ULL},
};

TEST(RdrpServingGolden, ScoresIntervalsAndMcPinned) {
  const Matrix& x = SharedData().test.x;
  for (const ServedCase& c : kServedCases) {
    SCOPED_TRACE(c.backend);
    const pipeline::Pipeline pipeline = TrainRdrp(c.backend);
    EXPECT_EQ(ValuesDigest(pipeline.Score(x).value()), c.score);
    EXPECT_EQ(IntervalsDigest(pipeline.ScoreIntervals(x).value()),
              c.intervals);
    const core::McDropoutStats mc =
        pipeline.ScoreMc(x, /*passes=*/20, /*seed=*/705).value();
    EXPECT_EQ(ValuesDigest(mc.mean), c.mc_mean);
    EXPECT_EQ(ValuesDigest(mc.stddev), c.mc_stddev);
  }
}

constexpr uint64_t kCqrRebindIntervals = 0x0e3de723adcb9928ULL;
constexpr uint64_t kCqrRebindQuantileBits = 0x3fe7eee556295964ULL;

TEST(RdrpServingGolden, CqrRebindFromSplitPinned) {
  const Data& data = SharedData();
  pipeline::Pipeline pipeline = TrainRdrp("split");
  ASSERT_TRUE(pipeline.RebindIntervalBackend("cqr", data.calibration).ok());
  EXPECT_EQ(IntervalsDigest(pipeline.ScoreIntervals(data.test.x).value()),
            kCqrRebindIntervals);
  EXPECT_EQ(std::bit_cast<uint64_t>(pipeline.conformal_quantile().value()),
            kCqrRebindQuantileBits);
}

struct MonitorCase {
  const char* backend;
  uint64_t q_hat_bits;     // after the forced recalibration
  uint64_t coverage_bits;  // the tracker's coverage of the feedback batch
};

constexpr MonitorCase kMonitorCases[] = {
    {"split", 0x40327e8f48af1945ULL, 0x3fee28f5c28f5c29ULL},
    {"weighted", 0x40327e8f48af1945ULL, 0x3fee28f5c28f5c29ULL},
    {"cqr", 0x3ff91ccdd329224fULL, 0x3fe9eb851eb851ecULL},
};

TEST(RdrpServingGolden, MonitorRecalibratedQuantilePinned) {
  const Data& data = SharedData();
  for (const MonitorCase& c : kMonitorCases) {
    SCOPED_TRACE(c.backend);
    pipeline::Pipeline pipeline = TrainRdrp(c.backend);
    StatusOr<std::unique_ptr<monitor::ServingMonitor>> made =
        monitor::ServingMonitor::FromCalibration(
            &pipeline, data.calibration, monitor::MonitorOptions());
    ASSERT_TRUE(made.ok()) << made.status().ToString();
    monitor::ServingMonitor& monitor = *made.value();
    monitor.BindQuantileSwap([&pipeline](double q_hat) {
      return pipeline.SetConformalQuantile(q_hat);
    });
    ASSERT_TRUE(monitor.AddOutcomes(data.feedback).ok());
    StatusOr<monitor::RecalibrationResult> recalibrated =
        monitor.MaybeRecalibrate(/*force=*/true);
    ASSERT_TRUE(recalibrated.ok()) << recalibrated.status().ToString();
    EXPECT_EQ(std::bit_cast<uint64_t>(pipeline.conformal_quantile().value()),
              c.q_hat_bits);
    EXPECT_EQ(std::bit_cast<uint64_t>(monitor.coverage()), c.coverage_bits);
  }
}

}  // namespace
}  // namespace roicl
