// Bits pinned across commits. determinism_test compares engine settings
// within one build, so a kernel change that moved every output bit the
// same way would pass it; these tests compare against constants recorded
// from an earlier build instead. A change that is meant to move the bits
// (a new RNG, a different accumulation order) must re-record them and
// say so; every other change must leave them alone.
//
// The MC sweep runs with sigmoid_output=false so libm never enters the
// digests: what is pinned is Dense (ascending-k matmul plus bias), ReLU,
// the dropout draw, and the engine's mean/variance accumulation.

#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/mc_dropout.h"
#include "nn/batch_forward.h"
#include "nn/dense.h"
#include "nn/mlp.h"

namespace roicl {
namespace {

// FNV-1a (64-bit) over the little-endian bytes of each word.
uint64_t Fnv1a(uint64_t hash, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

uint64_t Digest(const std::vector<double>& values) {
  uint64_t hash = kFnvOffset;
  for (double v : values) hash = Fnv1a(hash, std::bit_cast<uint64_t>(v));
  return hash;
}

// The served rDRP shape (12 features, H = 128, dropout 0.2) with nonzero
// biases, so the bias add is on the pinned path too.
nn::Mlp GoldenNet() {
  Rng rng(20240501);
  nn::Mlp net = nn::Mlp::MakeMlp(12, {128}, 1, nn::ActivationKind::kRelu,
                                 0.2, &rng);
  for (size_t i = 0; i < net.num_layers(); ++i) {
    if (auto* dense = dynamic_cast<nn::Dense*>(net.layer(i))) {
      for (double& b : dense->Params()[1]->data()) {
        b = rng.Uniform(-0.5, 0.5);
      }
    }
  }
  return net;
}

Matrix GoldenInput() {
  Rng rng(20240502);
  Matrix x(1001, 12);
  for (double& v : x.data()) v = rng.Normal();
  return x;
}

constexpr uint64_t kMcMeanDigest = 0xf1d99a986193cae6ULL;
constexpr uint64_t kMcStddevDigest = 0xfaeeafd0412fe012ULL;
constexpr uint64_t kInferDigest = 0x7665974ff3e3aff0ULL;

TEST(McDropoutGolden, SweepDigestsPinned) {
  nn::Mlp net = GoldenNet();
  const Matrix x = GoldenInput();
  for (int batch_size : {1, 7, 64, 256}) {
    for (int threads : {1, 3}) {
      const nn::BatchOptions opts{batch_size, threads};
      const core::McDropoutStats stats = core::RunMcDropout(
          &net, x, /*passes=*/30, /*seed=*/4242, /*sigmoid_output=*/false,
          opts);
      EXPECT_EQ(Digest(stats.mean), kMcMeanDigest)
          << "batch_size=" << batch_size << " threads=" << threads;
      EXPECT_EQ(Digest(stats.stddev), kMcStddevDigest)
          << "batch_size=" << batch_size << " threads=" << threads;
      EXPECT_EQ(Digest(nn::BatchedInferForward(&net, x, opts).data()),
                kInferDigest)
          << "batch_size=" << batch_size << " threads=" << threads;
    }
  }
}

// The first 64 Bernoulli(p) draws as a bit mask, draw i in bit i.
uint64_t BernoulliMask(Rng* rng, double p) {
  uint64_t mask = 0;
  for (int i = 0; i < 64; ++i) {
    if (rng->Bernoulli(p)) mask |= uint64_t{1} << i;
  }
  return mask;
}

TEST(RngGolden, SeededStreamFirstDraws) {
  Rng u32(12345, 678);
  EXPECT_EQ(u32.NextU32(), 0xae7933e7u);
  Rng uniform(12345, 678);
  EXPECT_EQ(std::bit_cast<uint64_t>(uniform.Uniform()),
            0x3fe5cf267cfb10e0ULL);  // 0.6815369072942552
  Rng bernoulli(12345, 678);
  EXPECT_EQ(BernoulliMask(&bernoulli, 0.8), 0xaebf6ff7f7ff6fffULL);
}

TEST(RngGolden, CounterStreamFirstDraws) {
  Rng u32 = MakeCounterRng(4242, 1001);
  EXPECT_EQ(u32.NextU32(), 0x168377e1u);
  Rng uniform = MakeCounterRng(4242, 1001);
  EXPECT_EQ(std::bit_cast<uint64_t>(uniform.Uniform()),
            0x3fb68377e1fb6d20ULL);  // 0.08794354693548145
  Rng bernoulli = MakeCounterRng(4242, 1001);
  EXPECT_EQ(BernoulliMask(&bernoulli, 0.8), 0xfff3efef7fdf77f7ULL);
}

// 4000 draws cycling NextU32 / Uniform / Bernoulli(0.8): ten from each of
// 200 counter streams, then 2000 from one seeded stream.
TEST(RngGolden, MixedDrawDigest) {
  uint64_t hash = kFnvOffset;
  auto draw = [&hash](Rng* rng, int i) {
    switch (i % 3) {
      case 0:
        hash = Fnv1a(hash, rng->NextU32());
        break;
      case 1:
        hash = Fnv1a(hash, std::bit_cast<uint64_t>(rng->Uniform()));
        break;
      default:
        hash = Fnv1a(hash, rng->Bernoulli(0.8) ? 1u : 0u);
        break;
    }
  };
  for (uint64_t counter = 0; counter < 200; ++counter) {
    Rng rng = MakeCounterRng(7, counter);
    for (int i = 0; i < 10; ++i) draw(&rng, i);
  }
  Rng seeded(7, 3);
  for (int i = 0; i < 2000; ++i) draw(&seeded, i);
  EXPECT_EQ(hash, 0xc556487cf3e6af31ULL);
}

}  // namespace
}  // namespace roicl
