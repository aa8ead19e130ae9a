#ifndef ROICL_ALLOC_ROW_SOURCE_H_
#define ROICL_ALLOC_ROW_SOURCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file
/// Chunked row streams for the planet-scale budget allocator.
///
/// `core::GreedyAllocate` (Algorithm 1) needs the whole population
/// memory-resident; the streaming allocator (`alloc/streaming.h`) instead
/// pulls rows through this interface one bounded chunk at a time, so the
/// population size never appears in its memory footprint. A row is one
/// user carrying their (roi, cost) pair for each of K treatment arms side
/// by side; binary C-BTAP is the K = 1 stream. Handing all of a user's
/// arms over at once is load-bearing: the allocator reduces each user to
/// their best pair locally, which is only possible when the pairs arrive
/// together. Every implementation must be deterministic: repeated passes
/// over the same source yield bitwise-identical rows in identical order at
/// any chunk size, which is what makes the dual-threshold mode's
/// multi-pass bisection and the bitwise-equivalence guarantee of the
/// greedy mode well defined.

namespace roicl::alloc {

/// One chunk of the user stream: for users [base_user, base_user +
/// size()), `roi[k][i]` / `cost[k][i]` are the predicted ROI and
/// incremental treatment cost tau_c of treating user (base_user + i) with
/// arm (k + 1). The allocator holds at most one chunk at a time, and a
/// source may reuse the chunk's buffers across `Next` calls.
struct RowChunk {
  int64_t base_user = 0;
  std::vector<std::vector<double>> roi;
  std::vector<std::vector<double>> cost;

  int num_arms() const { return static_cast<int>(roi.size()); }
  int64_t size() const {
    return roi.empty() ? 0 : static_cast<int64_t>(roi[0].size());
  }
};

/// Pull-based chunked row stream. `Next` fills `chunk` with the next
/// block and returns true, or returns false at end of stream. `Reset`
/// rewinds to the first row — the dual-threshold mode re-streams the
/// source once per refinement pass instead of materializing it.
class RowSource {
 public:
  virtual ~RowSource() = default;

  virtual bool Next(RowChunk* chunk) = 0;
  virtual void Reset() = 0;

  /// Total rows (users) the stream yields per pass (known up front).
  virtual int64_t total_rows() const = 0;
  /// Arms per row: 1 for binary allocation, K for a campaign.
  virtual int num_arms() const = 0;

  /// Bytes of chunk buffer a `Next` call may hand out — charged against
  /// the allocator's memory cap, so "streaming" cannot cheat the cap by
  /// inflating the chunk size.
  virtual size_t chunk_bytes() const = 0;
};

/// Adapts in-memory score/cost vectors (the CLI's scored-CSV path, the
/// campaign scenario and the equivalence tests) to the chunked interface.
class VectorRowSource : public RowSource {
 public:
  /// Binary source. `roi` and `cost` must have equal length;
  /// `chunk_rows > 0`.
  VectorRowSource(std::vector<double> roi, std::vector<double> cost,
                  int chunk_rows);
  /// K-arm source: `roi[k]` / `cost[k]` hold arm (k + 1)'s column; at
  /// least one arm, all columns of equal length.
  VectorRowSource(std::vector<std::vector<double>> roi,
                  std::vector<std::vector<double>> cost, int chunk_rows);

  bool Next(RowChunk* chunk) override;
  void Reset() override { pos_ = 0; }
  int64_t total_rows() const override {
    return static_cast<int64_t>(roi_[0].size());
  }
  int num_arms() const override { return static_cast<int>(roi_.size()); }
  size_t chunk_bytes() const override;

 private:
  std::vector<std::vector<double>> roi_;
  std::vector<std::vector<double>> cost_;
  int64_t chunk_rows_;
  int64_t pos_ = 0;
};

/// Deterministic synthetic population for scale tests and benchmarks:
/// each (roi, cost) pair is a pure function of (seed, user, arm) via
/// SplitMix64, so a 10M-row allocation needs no 10M-row materialization,
/// any chunking yields identical rows, and a pinned seed reproduces the
/// exact stream. roi is uniform in [0.05, 0.95), cost uniform in
/// [0.2, 2.0) — the ranges the greedy property tests draw from.
class SyntheticRowSource : public RowSource {
 public:
  /// Binary population: row i is `RowAt(seed, i)`.
  SyntheticRowSource(int64_t n, uint64_t seed, int chunk_rows);
  /// K-arm population: user u's arm k is `PairAt(seed, u, k)`.
  SyntheticRowSource(int64_t n, int num_arms, uint64_t seed,
                     int chunk_rows);

  bool Next(RowChunk* chunk) override;
  void Reset() override { pos_ = 0; }
  int64_t total_rows() const override { return n_; }
  int num_arms() const override {
    return static_cast<int>(arm_seeds_.size());
  }
  size_t chunk_bytes() const override;

  /// The (roi, cost) pair for row `i` — pure function of (seed, i).
  static void RowAt(uint64_t seed, int64_t i, double* roi, double* cost);
  /// The (roi, cost) pair of (user, arm) — `RowAt` on a SplitMix64-derived
  /// per-arm seed, so arm streams share no low-bit structure. `arm` is
  /// 1-based.
  static void PairAt(uint64_t seed, int64_t user, int arm, double* roi,
                     double* cost);

 private:
  int64_t n_;
  std::vector<uint64_t> arm_seeds_;  ///< the `RowAt` seed of each arm
  int64_t chunk_rows_;
  int64_t pos_ = 0;
};

}  // namespace roicl::alloc

#endif  // ROICL_ALLOC_ROW_SOURCE_H_
