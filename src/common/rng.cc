#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/macros.h"
#include "common/math_util.h"

namespace roicl {

Rng::Rng(uint64_t seed, uint64_t stream) {
  // PCG initialization: the increment must be odd; mix the seed through
  // SplitMix64 so that small consecutive seeds give unrelated states.
  SplitMix64 mixer(seed);
  inc_ = (mixer.Next() ^ (stream * 0x9e3779b97f4a7c15ULL)) | 1ULL;
  state_ = 0;
  NextU32();
  state_ += mixer.Next();
  NextU32();
}

Rng Rng::Split() {
  uint64_t child_seed =
      (static_cast<uint64_t>(NextU32()) << 32) | NextU32();
  uint64_t child_stream =
      (static_cast<uint64_t>(NextU32()) << 32) | NextU32();
  return Rng(child_seed, child_stream);
}

double Rng::Uniform(double lo, double hi) {
  ROICL_DCHECK(hi >= lo);
  return lo + (hi - lo) * Uniform();
}

uint32_t Rng::UniformInt(uint32_t n) {
  ROICL_CHECK(n > 0);
  // Lemire-style rejection to avoid modulo bias.
  uint32_t threshold = (-n) % n;
  for (;;) {
    uint32_t r = NextU32();
    uint64_t product = static_cast<uint64_t>(r) * n;
    if (static_cast<uint32_t>(product) >= threshold) {
      return static_cast<uint32_t>(product >> 32);
    }
  }
}

double Rng::Normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  // Marsaglia polar method.
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return u * factor;
}

double Rng::Normal(double mean, double stddev) {
  ROICL_DCHECK(stddev >= 0.0);
  return mean + stddev * Normal();
}

double Rng::Exponential(double rate) {
  ROICL_CHECK(rate > 0.0);
  double u;
  do {
    u = Uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

int Rng::Categorical(const std::vector<double>& weights) {
  ROICL_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    ROICL_CHECK_MSG(w >= 0.0, "negative categorical weight %f", w);
    total += w;
  }
  ROICL_CHECK_MSG(total > 0.0, "all categorical weights are zero");
  double target = Uniform() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}

int Rng::Poisson(double mean) {
  ROICL_CHECK(mean >= 0.0);
  if (mean == 0.0) return 0;
  double limit = std::exp(-mean);
  double product = Uniform();
  int count = 0;
  while (product > limit) {
    ++count;
    product *= Uniform();
  }
  return count;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  ROICL_CHECK(k >= 0 && k <= n);
  std::vector<int> pool(AsSize(n));
  std::iota(pool.begin(), pool.end(), 0);
  for (int i = 0; i < k; ++i) {
    int j = i + static_cast<int>(UniformInt(static_cast<uint32_t>(n - i)));
    std::swap(pool[AsSize(i)], pool[AsSize(j)]);
  }
  pool.resize(AsSize(k));
  return pool;
}

std::vector<int> Rng::Permutation(int n) {
  return SampleWithoutReplacement(n, n);
}

Rng MakeCounterRng(uint64_t seed, uint64_t counter) {
  // Feed the counter through SplitMix64 before combining with the seed so
  // that consecutive counters land in unrelated (state, stream) pairs.
  SplitMix64 mixer(counter * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
  uint64_t child_seed = seed ^ mixer.Next();
  uint64_t child_stream = mixer.Next();
  return Rng(child_seed, child_stream);
}

}  // namespace roicl
