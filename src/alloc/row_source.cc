#include "alloc/row_source.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "common/math_util.h"
#include "common/rng.h"

namespace roicl::alloc {
namespace {

/// Maps 64 random bits to a double in [0, 1) with the standard 53-bit
/// mantissa construction.
double UnitDouble(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// SplitMix64 finalizer — decorrelates the per-arm seeds so arm streams
/// share no low-bit structure with each other or with the base seed.
uint64_t MixSeed(uint64_t seed, int arm) {
  uint64_t z =
      seed + static_cast<uint64_t>(arm) * uint64_t{0x9E3779B97F4A7C15};
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<std::vector<double>> OneArm(std::vector<double> column) {
  std::vector<std::vector<double>> arms;
  arms.push_back(std::move(column));
  return arms;
}

}  // namespace

VectorRowSource::VectorRowSource(std::vector<double> roi,
                                 std::vector<double> cost, int chunk_rows)
    : VectorRowSource(OneArm(std::move(roi)), OneArm(std::move(cost)),
                      chunk_rows) {}

VectorRowSource::VectorRowSource(std::vector<std::vector<double>> roi,
                                 std::vector<std::vector<double>> cost,
                                 int chunk_rows)
    : roi_(std::move(roi)), cost_(std::move(cost)), chunk_rows_(chunk_rows) {
  ROICL_CHECK(!roi_.empty());
  ROICL_CHECK(roi_.size() == cost_.size());
  for (size_t k = 0; k < roi_.size(); ++k) {
    ROICL_CHECK(roi_[k].size() == roi_[0].size());
    ROICL_CHECK(cost_[k].size() == roi_[0].size());
  }
  ROICL_CHECK(chunk_rows > 0);
}

bool VectorRowSource::Next(RowChunk* chunk) {
  ROICL_CHECK(chunk != nullptr);
  if (pos_ >= total_rows()) return false;
  const int64_t end = std::min(total_rows(), pos_ + chunk_rows_);
  chunk->base_user = pos_;
  chunk->roi.resize(roi_.size());
  chunk->cost.resize(roi_.size());
  for (size_t k = 0; k < roi_.size(); ++k) {
    chunk->roi[k].assign(roi_[k].begin() + pos_, roi_[k].begin() + end);
    chunk->cost[k].assign(cost_[k].begin() + pos_, cost_[k].begin() + end);
  }
  pos_ = end;
  return true;
}

size_t VectorRowSource::chunk_bytes() const {
  return static_cast<size_t>(chunk_rows_) * roi_.size() * 2 *
         sizeof(double);
}

SyntheticRowSource::SyntheticRowSource(int64_t n, uint64_t seed,
                                       int chunk_rows)
    : n_(n), arm_seeds_{seed}, chunk_rows_(chunk_rows) {
  ROICL_CHECK(n >= 0);
  ROICL_CHECK(chunk_rows > 0);
}

SyntheticRowSource::SyntheticRowSource(int64_t n, int num_arms,
                                       uint64_t seed, int chunk_rows)
    : n_(n), chunk_rows_(chunk_rows) {
  ROICL_CHECK(n >= 0);
  ROICL_CHECK(num_arms >= 1);
  ROICL_CHECK(chunk_rows > 0);
  for (int arm = 1; arm <= num_arms; ++arm) {
    arm_seeds_.push_back(MixSeed(seed, arm));
  }
}

void SyntheticRowSource::RowAt(uint64_t seed, int64_t i, double* roi,
                               double* cost) {
  // One SplitMix64 stream per row, keyed by (seed, i): chunk boundaries
  // and pass count can never perturb a row's values.
  SplitMix64 mix(seed ^
                 (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(i) + 1)));
  *roi = 0.05 + 0.90 * UnitDouble(mix.Next());
  *cost = 0.2 + 1.8 * UnitDouble(mix.Next());
}

void SyntheticRowSource::PairAt(uint64_t seed, int64_t user, int arm,
                                double* roi, double* cost) {
  RowAt(MixSeed(seed, arm), user, roi, cost);
}

bool SyntheticRowSource::Next(RowChunk* chunk) {
  ROICL_CHECK(chunk != nullptr);
  if (pos_ >= n_) return false;
  const size_t take = AsSize64(std::min(chunk_rows_, n_ - pos_));
  chunk->base_user = pos_;
  chunk->roi.resize(arm_seeds_.size());
  chunk->cost.resize(arm_seeds_.size());
  for (size_t k = 0; k < arm_seeds_.size(); ++k) {
    std::vector<double>& roi = chunk->roi[k];
    std::vector<double>& cost = chunk->cost[k];
    roi.resize(take);
    cost.resize(take);
    for (size_t i = 0; i < take; ++i) {
      RowAt(arm_seeds_[k], pos_ + static_cast<int64_t>(i), &roi[i],
            &cost[i]);
    }
  }
  pos_ += static_cast<int64_t>(take);
  return true;
}

size_t SyntheticRowSource::chunk_bytes() const {
  return static_cast<size_t>(chunk_rows_) * arm_seeds_.size() * 2 *
         sizeof(double);
}

}  // namespace roicl::alloc
