#ifndef ROICL_COMMON_RNG_H_
#define ROICL_COMMON_RNG_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace roicl {

/// SplitMix64: tiny, fast generator used for seeding and stream splitting.
/// Reference: Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
/// Generators", OOPSLA 2014.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// PCG32 (XSH-RR variant): the library's main random source.
///
/// Deterministic given (seed, stream): every experiment in the repo is
/// reproducible from its seed. Supports the distributions the library needs:
/// uniforms, normals, Bernoulli, categorical, permutations and subsampling.
class Rng {
 public:
  /// Creates a generator. Distinct `stream` values give independent
  /// sequences for the same seed (useful for per-worker streams).
  explicit Rng(uint64_t seed, uint64_t stream = 0);

  /// Derives an independent child generator; deterministic in call order.
  Rng Split();

  /// Raw 32 uniform bits. This and the draws built directly on it
  /// (Uniform, Bernoulli) are defined inline: MC dropout makes one
  /// Bernoulli draw per hidden unit, row and pass.
  uint32_t NextU32() {
    uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    uint32_t xorshifted = static_cast<uint32_t>(((old >> 18) ^ old) >> 27);
    uint32_t rot = static_cast<uint32_t>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform double in [0, 1).
  double Uniform() {
    // 53 random bits -> double in [0, 1).
    uint64_t hi = NextU32();
    uint64_t lo = NextU32();
    uint64_t bits = ((hi << 32) | lo) >> 11;
    return static_cast<double>(bits) * (1.0 / 9007199254740992.0);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  uint32_t UniformInt(uint32_t n);

  /// Standard normal via Box-Muller (cached spare deviate).
  double Normal();

  /// Normal with the given mean and standard deviation (stddev >= 0).
  double Normal(double mean, double stddev);

  /// Bernoulli draw; p is clamped to [0, 1].
  bool Bernoulli(double p) { return Uniform() < std::clamp(p, 0.0, 1.0); }

  /// Exponential with the given rate (> 0).
  double Exponential(double rate);

  /// Samples an index from unnormalized non-negative weights.
  /// Requires at least one strictly positive weight.
  int Categorical(const std::vector<double>& weights);

  /// Poisson draw (Knuth's method; intended for small means <= ~30).
  int Poisson(double mean);

  /// Fisher-Yates shuffle of `values`.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    if (values->empty()) return;
    for (std::size_t i = values->size() - 1; i > 0; --i) {
      std::size_t j = UniformInt(static_cast<uint32_t>(i + 1));
      std::swap((*values)[i], (*values)[j]);
    }
  }

  /// Returns `k` distinct indices sampled uniformly from [0, n) without
  /// replacement (partial Fisher-Yates). Requires k <= n.
  std::vector<int> SampleWithoutReplacement(int n, int k);

  /// Returns a uniformly random permutation of [0, n).
  std::vector<int> Permutation(int n);

 private:
  uint64_t state_;
  uint64_t inc_;
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

/// Counter-based stream derivation: a generator that depends only on
/// (seed, counter) — never on how many draws any other stream has made.
///
/// This is the reproducibility primitive of the parallel prediction
/// engine: assigning each (sample, pass) work unit the counter
/// `pass * n + sample` makes stochastic inference bit-identical under any
/// batch size, thread count, or execution order, because every unit owns
/// an independent pre-derived stream (same philosophy as Salmon et al.,
/// "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011).
Rng MakeCounterRng(uint64_t seed, uint64_t counter);

}  // namespace roicl

#endif  // ROICL_COMMON_RNG_H_
