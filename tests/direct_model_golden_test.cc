// Direct-model training pinned across commits. golden_bits_test pins the
// inference engine; these digests pin a whole fit of DRP, DR, RankNet and
// IPW-DRP: weight init, the restart loop and its seeds, minibatch
// shuffling, the losses, Adam, early stopping, and the restart ranking
// (by held-out AUCC with patience > 0, by final training loss without).
// A change that is meant to move them (a new initializer, a different
// ranking) must re-record them and say so; a refactor must leave them
// alone.
//
// Unlike golden_bits_test, these digests run through libm (exp and log1p
// in the losses, the sigmoid of every prediction), so they hold only for
// the C math library they were recorded with.

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dr_model.h"
#include "core/drp_model.h"
#include "core/ipw_drp.h"
#include "core/rank_net.h"
#include "synth/synthetic_generator.h"

namespace roicl {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// FNV-1a (64-bit) over the bytes of a saved blob.
uint64_t BlobDigest(const std::string& blob) {
  uint64_t hash = kFnvOffset;
  for (char byte : blob) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= kFnvPrime;
  }
  return hash;
}

// FNV-1a over the little-endian bytes of each double.
uint64_t ValuesDigest(const std::vector<double>& values) {
  uint64_t hash = kFnvOffset;
  for (double v : values) {
    const uint64_t word = std::bit_cast<uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= kFnvPrime;
    }
  }
  return hash;
}

RctDataset Generate(const synth::SyntheticConfig& config, int n,
                    uint64_t seed) {
  synth::SyntheticGenerator generator(config);
  Rng rng(seed);
  return generator.Generate(n, /*shifted=*/false, &rng);
}

// Default config with a short budget and two restarts, so the ranking
// picks one. With patience > 0 the last tenth of the rows is held out and
// ranks them by AUCC; with patience 0 the final training loss does.
template <typename Config>
Config ShortConfig(int patience) {
  Config config;
  config.train.epochs = 6;
  config.train.patience = patience;
  config.restarts = 2;
  return config;
}

template <typename Model, typename Config>
uint64_t SavedDigest(const RctDataset& train, int patience) {
  Model model(ShortConfig<Config>(patience));
  model.Fit(train);
  std::ostringstream blob;
  EXPECT_TRUE(model.Save(blob).ok());
  return BlobDigest(blob.str());
}

// n < 4000 trains the automatic 32-unit net, n >= 4000 the 128-unit one.
struct BlobCase {
  int n;
  int patience;
  uint64_t drp;
  uint64_t dr;
  uint64_t ranknet;
};

constexpr BlobCase kBlobCases[] = {
    {600, 5, 0x9b46021deeaf276aULL,
     0xd468429a2ff2ac18ULL, 0xeab0e44875e40106ULL},
    {600, 0, 0x011df772f077b02eULL,
     0x4dc67b198c1e9fb2ULL, 0xa8833241907defadULL},
    {5000, 5, 0xd9881ec3be87f31aULL,
     0x1478dd1d05ed38f3ULL, 0x448d4632cefff767ULL},
};

TEST(DirectModelGolden, SavedBlobsPinned) {
  for (const BlobCase& c : kBlobCases) {
    SCOPED_TRACE(::testing::Message()
                 << "n=" << c.n << " patience=" << c.patience);
    const RctDataset train =
        Generate(synth::CriteoSynthConfig(), c.n, 601);
    EXPECT_EQ((SavedDigest<core::DrpModel, core::DrpConfig>(train,
                                                             c.patience)),
              c.drp);
    EXPECT_EQ((SavedDigest<core::DirectRankModel, core::DirectRankConfig>(
                  train, c.patience)),
              c.dr);
    EXPECT_EQ((SavedDigest<core::RankNetModel, core::RankNetConfig>(
                  train, c.patience)),
              c.ranknet);
  }
}

struct IpwCase {
  int patience;
  uint64_t roi;
  uint64_t mc_mean;
  uint64_t mc_stddev;
};

constexpr IpwCase kIpwCases[] = {
    {5, 0x9593fa41917d3b27ULL, 0x4e3a85deaefe8d67ULL,
     0x9ecde67128b924ddULL},
    {0, 0x20a93494b832ab4dULL, 0x80fba9b4d781a85bULL,
     0x3d8c9b6b1a8b61f8ULL},
};

TEST(DirectModelGolden, IpwDrpPredictionsPinned) {
  synth::SyntheticConfig confounded = synth::CriteoSynthConfig();
  confounded.confounded_treatment = true;
  confounded.propensity_lo = 0.15;
  confounded.propensity_hi = 0.85;
  const RctDataset train = Generate(confounded, 600, 602);
  const RctDataset test = Generate(confounded, 300, 603);
  for (const IpwCase& c : kIpwCases) {
    SCOPED_TRACE(::testing::Message() << "patience=" << c.patience);
    core::IpwDrpConfig config;
    config.drp.train.epochs = 6;
    config.drp.train.patience = c.patience;
    config.propensity.train.epochs = 5;
    core::IpwDrpModel model(config);
    model.Fit(train);
    EXPECT_EQ(ValuesDigest(model.PredictRoi(test.x)), c.roi);
    const core::McDropoutStats mc =
        model.PredictMcRoi(test.x, /*passes=*/30, /*seed=*/604);
    EXPECT_EQ(ValuesDigest(mc.mean), c.mc_mean);
    EXPECT_EQ(ValuesDigest(mc.stddev), c.mc_stddev);
  }
}

}  // namespace
}  // namespace roicl
