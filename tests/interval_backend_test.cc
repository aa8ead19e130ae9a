#include "core/interval_backend.h"

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/macros.h"
#include "common/status.h"
#include "core/conformal.h"
#include "linalg/matrix.h"
#include "metrics/coverage.h"

namespace roicl::core {
namespace {

struct CalibrationFixture {
  Matrix x;
  std::vector<double> roi_hat;
  std::vector<double> r_hat;
  std::vector<double> roi_star;
};

/// 20 rows, distinct roi_hat values (so the weighted backend's 10
/// reference quantile bins hold exactly two rows each — the flat-mass
/// reduction below needs equal reference masses), varied stds, scalar
/// roi*.
CalibrationFixture MakeFixture() {
  CalibrationFixture fixture;
  for (int i = 0; i < 20; ++i) {
    fixture.x.AppendRow({0.1 * i, 1.0 - 0.04 * i});
    fixture.roi_hat.push_back(0.30 + 0.02 * i);
    fixture.r_hat.push_back(0.08 + 0.01 * (i % 4));
    fixture.roi_star.push_back(0.5);
  }
  return fixture;
}

std::unique_ptr<IntervalBackend> Calibrated(const std::string& name) {
  StatusOr<std::unique_ptr<IntervalBackend>> backend =
      MakeIntervalBackend(name);
  ROICL_CHECK(backend.ok());
  CalibrationFixture fixture = MakeFixture();
  ROICL_CHECK(backend.value()
                  ->Calibrate(fixture.x, fixture.roi_hat, fixture.r_hat,
                              fixture.roi_star, /*alpha=*/0.2,
                              kDefaultStdFloor)
                  .ok());
  // The served weight variable, row-aligned with the calibration scores.
  backend.value()->SetWeightReference(fixture.roi_hat);
  return std::move(backend).value();
}

/// Save -> Load into a fresh backend of the same name, then assert the
/// persisted calibration state and every serving-path output is the
/// exact same double (17-digit text serialization is lossless). Run for
/// every registered backend name.
class IntervalBackendRoundtrip
    : public ::testing::TestWithParam<const char*> {};

TEST_P(IntervalBackendRoundtrip, SaveLoadIsBitwise) {
  const std::string name = GetParam();
  std::unique_ptr<IntervalBackend> original = Calibrated(name);
  std::stringstream stream;
  ASSERT_TRUE(original->Save(stream).ok()) << name;

  StatusOr<std::unique_ptr<IntervalBackend>> fresh = MakeIntervalBackend(name);
  ASSERT_TRUE(fresh.ok());
  std::unique_ptr<IntervalBackend> loaded = std::move(fresh).value();
  ASSERT_TRUE(loaded->Load(stream).ok()) << name;

  EXPECT_EQ(loaded->name(), name);
  EXPECT_TRUE(loaded->calibrated());
  EXPECT_EQ(loaded->q_hat(), original->q_hat());
  EXPECT_EQ(loaded->alpha(), original->alpha());
  EXPECT_EQ(loaded->std_floor(), original->std_floor());
  EXPECT_EQ(loaded->calibration_scores(), original->calibration_scores());
  EXPECT_EQ(loaded->weight_reference(), original->weight_reference());
  EXPECT_EQ(loaded->WeightBins(), original->WeightBins());

  CalibrationFixture fixture = MakeFixture();
  std::vector<double> aux_lo_a;
  std::vector<double> aux_hi_a;
  std::vector<double> aux_lo_b;
  std::vector<double> aux_hi_b;
  ASSERT_TRUE(original->StreamAux(fixture.x, &aux_lo_a, &aux_hi_a).ok());
  ASSERT_TRUE(loaded->StreamAux(fixture.x, &aux_lo_b, &aux_hi_b).ok());
  EXPECT_EQ(aux_lo_a, aux_lo_b);
  EXPECT_EQ(aux_hi_a, aux_hi_b);
  for (std::size_t i = 0; i < fixture.roi_hat.size(); ++i) {
    EXPECT_EQ(loaded->StreamScore(fixture.roi_hat[i], fixture.r_hat[i], 0.5,
                                  aux_lo_b[i], aux_hi_b[i]),
              original->StreamScore(fixture.roi_hat[i], fixture.r_hat[i],
                                    0.5, aux_lo_a[i], aux_hi_a[i]))
        << name << " row " << i;
  }
  std::vector<metrics::Interval> a = original->Intervals(
      fixture.x, fixture.roi_hat, fixture.r_hat, original->q_hat());
  std::vector<metrics::Interval> b = loaded->Intervals(
      fixture.x, fixture.roi_hat, fixture.r_hat, loaded->q_hat());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].lo, b[i].lo) << name << " row " << i;
    EXPECT_EQ(a[i].hi, b[i].hi) << name << " row " << i;
  }

  // A backend with a weighted fallback repairs a skewed live mass to the
  // same quantile after the roundtrip.
  if (original->WeightBins() > 0) {
    std::vector<double> skewed(original->WeightBins(), 0.0);
    skewed.back() = 64.0;
    StatusOr<double> want = original->FallbackQHat(0.2, skewed);
    StatusOr<double> got = loaded->FallbackQHat(0.2, skewed);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(want.value(), got.value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, IntervalBackendRoundtrip,
    ::testing::ValuesIn(kIntervalBackendNames),
    [](const ::testing::TestParamInfo<const char*>& param) {
      return std::string(param.param);
    });

TEST(IntervalBackend, RegistryResolvesEveryNameAndRejectsUnknown) {
  for (const char* name : kIntervalBackendNames) {
    StatusOr<std::unique_ptr<IntervalBackend>> backend =
        MakeIntervalBackend(name);
    ASSERT_TRUE(backend.ok()) << name;
    EXPECT_EQ(backend.value()->name(), name);
    EXPECT_FALSE(backend.value()->calibrated());
    EXPECT_TRUE(IsIntervalBackendName(name));
  }
  StatusOr<std::unique_ptr<IntervalBackend>> unknown =
      MakeIntervalBackend("jackknife");
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find(IntervalBackendNamesCsv()),
            std::string::npos);
  EXPECT_FALSE(IsIntervalBackendName("jackknife"));
  EXPECT_FALSE(IsIntervalBackendName(""));
  for (const char* name : kIntervalBackendNames) {
    EXPECT_NE(IntervalBackendNamesCsv().find(name), std::string::npos);
  }
}

TEST(IntervalBackend, LoadRejectsWrongMagicAndTruncation) {
  for (const char* name : kIntervalBackendNames) {
    StatusOr<std::unique_ptr<IntervalBackend>> backend =
        MakeIntervalBackend(name);
    ASSERT_TRUE(backend.ok());
    std::istringstream wrong("roicl-ivb-nonsense-v1\n");
    Status status = backend.value()->Load(wrong);
    EXPECT_FALSE(status.ok()) << name;
    EXPECT_NE(status.message().find(std::string("expected roicl-ivb-") +
                                    name + "-v1"),
              std::string::npos)
        << name;
    std::istringstream empty("");
    EXPECT_FALSE(backend.value()->Load(empty).ok()) << name;
  }
  // Eq.(3)-score backends keep one weight value per calibration score.
  for (const char* name : {"split", "weighted"}) {
    StatusOr<std::unique_ptr<IntervalBackend>> backend =
        MakeIntervalBackend(name);
    ASSERT_TRUE(backend.ok());
    std::istringstream misaligned(std::string("roicl-ivb-") + name +
                                  "-v1\n0.2 0.001 1 2 3\n1\n2\n1\n2\n3\n");
    Status status = backend.value()->Load(misaligned);
    EXPECT_FALSE(status.ok()) << name;
    EXPECT_NE(status.message().find("row counts"), std::string::npos)
        << name;
  }
  // A valid header with the body chopped off must fail cleanly, not crash.
  std::unique_ptr<IntervalBackend> calibrated = Calibrated("split");
  std::stringstream stream;
  ASSERT_TRUE(calibrated->Save(stream).ok());
  std::string text = stream.str();
  std::istringstream truncated(text.substr(0, text.size() / 2));
  StatusOr<std::unique_ptr<IntervalBackend>> fresh =
      MakeIntervalBackend("split");
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value()->Load(truncated).ok());
}

TEST(IntervalBackend, SaveBeforeCalibrateIsAnError) {
  for (const char* name : kIntervalBackendNames) {
    StatusOr<std::unique_ptr<IntervalBackend>> backend =
        MakeIntervalBackend(name);
    ASSERT_TRUE(backend.ok());
    std::stringstream stream;
    EXPECT_FALSE(backend.value()->Save(stream).ok()) << name;
  }
}

TEST(IntervalBackend, WeightedCalibrationMatchesSplitBitwise) {
  // Uniform weights at calibration time: the weighted backend's scores
  // and quantile are the split backend's, bit for bit. The weighting
  // only enters the label-free fallback.
  std::unique_ptr<IntervalBackend> split = Calibrated("split");
  std::unique_ptr<IntervalBackend> weighted = Calibrated("weighted");
  EXPECT_EQ(weighted->q_hat(), split->q_hat());
  EXPECT_EQ(weighted->calibration_scores(), split->calibration_scores());
}

TEST(IntervalBackend, WeightedUniformLiveMassMatchesUnweightedQuantile) {
  std::unique_ptr<IntervalBackend> weighted = Calibrated("weighted");
  ASSERT_GT(weighted->WeightBins(), 0u);
  double unweighted =
      ConformalScoreQuantile(weighted->calibration_scores(), 0.2);
  // No live mass -> uniform likelihood ratios -> the exact unweighted
  // ceil((1-alpha)(n+1)) rank.
  StatusOr<double> empty = weighted->FallbackQHat(0.2, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value(), unweighted);
  // Flat live counts over non-degenerate reference bins: every ratio is
  // exactly 1.0, same reduction.
  std::vector<double> flat(weighted->WeightBins(), 5.0);
  StatusOr<double> uniform = weighted->FallbackQHat(0.2, flat);
  ASSERT_TRUE(uniform.ok());
  EXPECT_EQ(uniform.value(), unweighted);
  // Mass concentrated in the top bin up-weights large scores: the
  // repaired quantile can only widen.
  std::vector<double> skewed(weighted->WeightBins(), 0.0);
  skewed.back() = 64.0;
  StatusOr<double> shifted = weighted->FallbackQHat(0.2, skewed);
  ASSERT_TRUE(shifted.ok());
  EXPECT_GE(shifted.value(), unweighted);
}

TEST(IntervalBackend, WeightedFallbackValidatesItsInputs) {
  std::unique_ptr<IntervalBackend> weighted = Calibrated("weighted");
  EXPECT_FALSE(weighted->FallbackQHat(0.0, {}).ok());
  EXPECT_FALSE(weighted->FallbackQHat(1.0, {}).ok());
  std::vector<double> wrong_size(3, 1.0);
  EXPECT_FALSE(weighted->FallbackQHat(0.2, wrong_size).ok());
  // An unreachable level reports +inf (the caller's max-score
  // convention), not an error.
  std::vector<double> flat(weighted->WeightBins(), 5.0);
  StatusOr<double> starved = weighted->FallbackQHat(0.01, flat);
  ASSERT_TRUE(starved.ok());
  EXPECT_TRUE(std::isinf(starved.value()));
  // Without a weight reference there is nothing to bin against.
  StatusOr<std::unique_ptr<IntervalBackend>> bare =
      MakeIntervalBackend("weighted");
  ASSERT_TRUE(bare.ok());
  CalibrationFixture fixture = MakeFixture();
  ASSERT_TRUE(bare.value()
                  ->Calibrate(fixture.x, fixture.roi_hat, fixture.r_hat,
                              fixture.roi_star, 0.2, kDefaultStdFloor)
                  .ok());
  EXPECT_EQ(bare.value()->WeightBins(), 0u);
  EXPECT_FALSE(bare.value()->FallbackQHat(0.2, {}).ok());
}

TEST(IntervalBackend, SplitHasNoWeightedFallback) {
  std::unique_ptr<IntervalBackend> split = Calibrated("split");
  EXPECT_EQ(split->WeightBins(), 0u);
  EXPECT_FALSE(split->FallbackQHat(0.2, {}).ok());
}

TEST(IntervalBackend, CalibrateValidatesItsArguments) {
  CalibrationFixture fixture = MakeFixture();
  for (const char* name : kIntervalBackendNames) {
    StatusOr<std::unique_ptr<IntervalBackend>> backend =
        MakeIntervalBackend(name);
    ASSERT_TRUE(backend.ok());
    std::vector<double> short_roi_hat(fixture.roi_hat.begin(),
                                      fixture.roi_hat.end() - 1);
    EXPECT_FALSE(backend.value()
                     ->Calibrate(fixture.x, short_roi_hat, fixture.r_hat,
                                 fixture.roi_star, 0.2, kDefaultStdFloor)
                     .ok())
        << name;
    EXPECT_FALSE(backend.value()
                     ->Calibrate(fixture.x, fixture.roi_hat, fixture.r_hat,
                                 fixture.roi_star, 1.5, kDefaultStdFloor)
                     .ok())
        << name;
  }
  // cqr needs enough rows for its fit/calibrate split.
  StatusOr<std::unique_ptr<IntervalBackend>> cqr = MakeIntervalBackend("cqr");
  ASSERT_TRUE(cqr.ok());
  Matrix tiny;
  tiny.AppendRow({1.0, 2.0});
  Status status = cqr.value()->Calibrate(tiny, {0.5}, {0.1}, {0.5}, 0.2,
                                         kDefaultStdFloor);
  EXPECT_FALSE(status.ok());
}

TEST(IntervalBackend, CqrCoverageContractMatchesScoreThreshold) {
  // The monitor's covered <=> score <= q_hat check must coincide with
  // roi* lying inside the served interval, for cqr exactly like split.
  std::unique_ptr<IntervalBackend> cqr = Calibrated("cqr");
  CalibrationFixture fixture = MakeFixture();
  std::vector<double> aux_lo;
  std::vector<double> aux_hi;
  ASSERT_TRUE(cqr->StreamAux(fixture.x, &aux_lo, &aux_hi).ok());
  std::vector<metrics::Interval> intervals = cqr->Intervals(
      fixture.x, fixture.roi_hat, fixture.r_hat, cqr->q_hat());
  for (std::size_t i = 0; i < fixture.roi_hat.size(); ++i) {
    double score = cqr->StreamScore(fixture.roi_hat[i], fixture.r_hat[i],
                                    0.5, aux_lo[i], aux_hi[i]);
    bool by_score = score <= cqr->q_hat();
    bool by_interval = intervals[i].lo <= 0.5 && 0.5 <= intervals[i].hi;
    EXPECT_EQ(by_score, by_interval) << "row " << i;
  }
}

}  // namespace
}  // namespace roicl::core
