#include "alloc/streaming.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace roicl::alloc {
namespace {

/// Buffered arrivals trigger a compaction once they reach
/// max(kMinCompactRows, |kept|) — amortized O(log f) per row.
constexpr size_t kMinCompactRows = 64;

/// Rejects a chunk whose shape disagrees with the source's arm count, or
/// that carries a non-finite ROI score or a negative or non-finite cost.
/// Pairs are checked user by user, arm by arm, so the first bad pair
/// reported is deterministic at any shard count or thread interleaving.
Status ValidateChunk(const RowChunk& chunk, int num_arms) {
  const size_t size = AsSize64(chunk.size());
  bool shaped = chunk.num_arms() == num_arms &&
                chunk.cost.size() == chunk.roi.size();
  for (size_t a = 0; shaped && a < chunk.roi.size(); ++a) {
    shaped = chunk.roi[a].size() == size && chunk.cost[a].size() == size;
  }
  if (!shaped) {
    return Status::InvalidArgument(
        "source yielded a chunk whose arms do not match its arm count or "
        "each other's length");
  }
  for (size_t i = 0; i < size; ++i) {
    for (size_t a = 0; a < chunk.roi.size(); ++a) {
      const double roi = chunk.roi[a][i];
      const double cost = chunk.cost[a][i];
      if (std::isfinite(roi) && cost >= 0.0 && std::isfinite(cost)) continue;
      return Status::InvalidArgument(
          std::string(std::isfinite(roi) ? "negative or non-finite cost"
                                         : "non-finite roi score") +
          " at row " +
          std::to_string(chunk.base_user + static_cast<int64_t>(i)) +
          " arm " + std::to_string(a + 1));
    }
  }
  return Status::Ok();
}

Status CapExceeded(const MemoryAccountant& accountant) {
  return Status::FailedPrecondition(
      "streaming allocation exceeded its memory cap (" +
      std::to_string(accountant.cap()) +
      " bytes); raise the cap or lower the budget, shard count or chunk "
      "size");
}

/// Appends to `selected`, growing the vector through the accountant so
/// the selection buffer counts against the cap too.
bool PushSelected(int64_t index, MemoryAccountant* accountant,
                  std::vector<int64_t>* selected) {
  if (selected->size() == selected->capacity()) {
    size_t grow = std::max<size_t>(1024, selected->capacity() * 2);
    if (!accountant->TryCharge((grow - selected->capacity()) *
                               sizeof(int64_t))) {
      return false;
    }
    selected->reserve(grow);
  }
  selected->push_back(index);
  return true;
}

}  // namespace

bool RankBefore(const FrontierItem& a, const FrontierItem& b) {
  if (a.roi != b.roi) return a.roi > b.roi;
  return a.index < b.index;
}

bool MemoryAccountant::TryCharge(size_t bytes) {
  size_t current = current_.load(std::memory_order_relaxed);
  while (true) {
    if (current + bytes > cap_) return false;
    if (current_.compare_exchange_weak(current, current + bytes,
                                       std::memory_order_relaxed)) {
      break;
    }
  }
  size_t now = current + bytes;
  size_t peak = peak_.load(std::memory_order_relaxed);
  while (peak < now && !peak_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  return true;
}

void MemoryAccountant::Release(size_t bytes) {
  current_.fetch_sub(bytes, std::memory_order_relaxed);
}

ShardFrontier::ShardFrontier(double budget, MemoryAccountant* accountant)
    : budget_(budget), accountant_(accountant) {
  ROICL_CHECK(budget >= 0.0);
  ROICL_CHECK(accountant != nullptr);
}

ShardFrontier::~ShardFrontier() { accountant_->Release(charged_bytes_); }

bool ShardFrontier::EnsureCharged(size_t target_bytes) {
  if (target_bytes > charged_bytes_) {
    if (!accountant_->TryCharge(target_bytes - charged_bytes_)) return false;
  } else {
    accountant_->Release(charged_bytes_ - target_bytes);
  }
  charged_bytes_ = target_bytes;
  return true;
}

bool ShardFrontier::Add(int64_t index, double roi, double cost) {
  ROICL_DCHECK(std::isfinite(roi));
  ROICL_DCHECK(cost >= 0.0);
  if (saturated_) {
    // Discard fast path: ranked at/after the sentinel r_cut, whose exact
    // shard-prefix spend already exceeds the budget, so (FP-monotone
    // superset sums) the global greedy can never reach this row.
    FrontierItem candidate{roi, cost, index};
    if (!RankBefore(candidate, kept_.back())) {
      ++evictions_;
      return true;
    }
  }
  if (pending_.size() == pending_.capacity()) {
    size_t grow = std::max(kMinCompactRows, pending_.capacity() * 2);
    if (!EnsureCharged((kept_.capacity() + grow) * sizeof(FrontierItem))) {
      return false;
    }
    pending_.reserve(grow);
  }
  pending_.push_back(FrontierItem{roi, cost, index});
  if (pending_.size() >= std::max(kMinCompactRows, kept_.size())) {
    return Compact();
  }
  return true;
}

bool ShardFrontier::Compact() {
  if (pending_.empty()) return true;
  std::sort(pending_.begin(), pending_.end(), RankBefore);
  size_t need = kept_.size() + pending_.size();
  // The merge double-buffers; charge the transient target up front so the
  // accounted peak covers the real high-water mark.
  if (!EnsureCharged((kept_.capacity() + pending_.capacity() + need) *
                     sizeof(FrontierItem))) {
    return false;
  }
  std::vector<FrontierItem> merged;
  merged.reserve(need);
  std::merge(kept_.begin(), kept_.end(), pending_.begin(), pending_.end(),
             std::back_inserter(merged), RankBefore);
  // Exact invariant: keep the rank-order prefix r_1..r_cut where the
  // floating-point prefix sum first exceeds the budget; r_cut stays as
  // the stop sentinel. Costs are non-negative, so rows past the cut can
  // never be selected by the reference greedy (see streaming.h).
  double spent = 0.0;
  size_t cut = merged.size();
  bool found = false;
  for (size_t j = 0; j < merged.size(); ++j) {
    spent += merged[j].cost;
    if (spent > budget_) {
      cut = j + 1;
      found = true;
      break;
    }
  }
  if (cut < merged.size()) {
    evictions_ += static_cast<int64_t>(merged.size() - cut);
    merged.resize(cut);
  }
  saturated_ = found;
  kept_.swap(merged);
  pending_.clear();
  merged = std::vector<FrontierItem>();  // release the old buffer now
  return EnsureCharged((kept_.capacity() + pending_.capacity()) *
                       sizeof(FrontierItem));
}

namespace {

/// std::lower_bound's bucket for `roi` among the bisection candidates
/// lo + step * (g + 1), g < grid, in O(1) rather than O(log grid): the
/// first g with candidates[g] >= roi, or grid when there is none. Up to
/// rounding that is ceil((roi - lo) / step - 1), which is the integer
/// part of (roi - lo) / step for a positive non-integer quotient; the
/// estimate is then stepped against the stored candidate doubles, which
/// are non-decreasing, until it is exactly the first candidate >= roi. A
/// NaN or non-positive estimate starts at 0, where lower_bound puts a NaN
/// roi too. The estimate only decides how far the steps walk, so
/// multiplying by 1 / step instead of dividing cannot change the answer.
size_t BucketOf(double roi, const std::vector<double>& candidates,
                double lo, double inv_step) {
  const size_t grid = candidates.size();
  const double estimate = (roi - lo) * inv_step;
  size_t b = 0;
  if (estimate >= static_cast<double>(grid)) {
    b = grid;
  } else if (estimate > 0.0) {
    b = static_cast<size_t>(static_cast<int64_t>(estimate));
  }
  while (b > 0 && candidates[b - 1] >= roi) --b;
  while (b < grid && candidates[b] < roi) ++b;
  return b;
}

/// Bisects the scalar ROI threshold to budget feasibility and returns the
/// bracket's upper end. Each pass streams once and measures spend at
/// `dual_grid` candidate thresholds simultaneously (cost histogram +
/// suffix sums), narrowing the bracket by a factor of grid+1 per pass.
/// The upper end of the bracket is always measured-feasible.
double BisectThreshold(RowSource* source, double budget, double max_roi,
                       const StreamingOptions& options,
                       int64_t* rows_streamed) {
  double lo = 0.0;
  double hi = max_roi;  // spend({roi > max_roi}) == 0 <= budget
  const int grid = options.dual_grid;
  std::vector<double> candidates(AsSize(grid));
  std::vector<double> bucket_cost(AsSize(grid) + 1);
  std::vector<double> spend(AsSize(grid));
  for (int pass = 0; pass < options.dual_passes; ++pass) {
    double step = (hi - lo) / static_cast<double>(grid + 1);
    if (!(step > 0.0)) break;  // bracket below FP resolution
    for (int g = 0; g < grid; ++g) {
      candidates[AsSize(g)] = lo + step * static_cast<double>(g + 1);
    }
    const double inv_step = 1.0 / step;
    std::fill(bucket_cost.begin(), bucket_cost.end(), 0.0);
    source->Reset();
    RowChunk chunk;
    while (source->Next(&chunk)) {
      const std::vector<double>& roi = chunk.roi[0];
      const std::vector<double>& cost = chunk.cost[0];
      *rows_streamed += chunk.size();
      for (size_t i = 0; i < roi.size(); ++i) {
        // Bucket b holds the rows with candidates[b - 1] < roi <=
        // candidates[b]; bucket 0, at or below every candidate, feeds no
        // spend and is not summed.
        const size_t b = BucketOf(roi[i], candidates, lo, inv_step);
        if (b > 0) bucket_cost[b] += cost[i];
      }
    }
    // spend(candidates[g]) = total cost of rows with roi > candidate =
    // suffix sum of buckets above g.
    double suffix = 0.0;
    for (int g = grid - 1; g >= 0; --g) {
      suffix += bucket_cost[AsSize(g) + 1];
      spend[AsSize(g)] = suffix;
    }
    int feasible = -1;
    for (int g = 0; g < grid; ++g) {
      if (spend[AsSize(g)] <= budget) {
        feasible = g;
        break;
      }
    }
    if (feasible < 0) {
      lo = candidates[AsSize(grid - 1)];
    } else {
      hi = candidates[AsSize(feasible)];
      if (feasible > 0) lo = candidates[AsSize(feasible - 1)];
    }
  }
  return hi;
}

StatusOr<StreamingResult> DualStream(RowSource* source, double budget,
                                     const StreamingOptions& options,
                                     MemoryAccountant* accountant) {
  obs::ScopedSpan span("alloc.dual");
  StreamingResult result;

  // Pass 1: validation + threshold bracket statistics.
  int64_t n = 0;
  double spend_at_zero = 0.0;
  double max_roi = 0.0;
  {
    obs::ScopedSpan stats_span("alloc.dual.stats");
    source->Reset();
    RowChunk chunk;
    while (source->Next(&chunk)) {
      Status chunk_status = ValidateChunk(chunk, 1);
      if (!chunk_status.ok()) return chunk_status;
      const int64_t size = chunk.size();
      result.rows_streamed += size;
      n += size;
      for (int64_t i = 0; i < size; ++i) {
        double roi = chunk.roi[0][AsSize64(i)];
        double cost = chunk.cost[0][AsSize64(i)];
        if (roi > 0.0) spend_at_zero += cost;
        max_roi = std::max(max_roi, roi);
      }
    }
  }
  if (n == 0) return result;

  double theta = 0.0;
  if (spend_at_zero > budget) {
    obs::ScopedSpan bisect_span("alloc.dual.bisect");
    // The candidates, bucket sums and spends are working memory too:
    // uncharged, a wide enough grid alone would outgrow the cap.
    const size_t grid_bytes =
        (3 * AsSize(options.dual_grid) + 1) * sizeof(double);
    if (!accountant->TryCharge(grid_bytes)) return CapExceeded(*accountant);
    theta = BisectThreshold(source, budget, max_roi, options,
                            &result.rows_streamed);
    accountant->Release(grid_bytes);
  }
  result.dual_threshold = theta;

  // Final pass: emit the threshold selection in index order, accumulate
  // the Lagrangian bound, and feed every rejected row through a repair
  // frontier (bounded by the full budget >= the actual slack, so the
  // stop-variant repair over it is exact).
  {
    obs::ScopedSpan select_span("alloc.dual.select");
    ShardFrontier repair(budget, accountant);
    double ub_sum = 0.0;
    source->Reset();
    RowChunk chunk;
    while (source->Next(&chunk)) {
      const int64_t size = chunk.size();
      result.rows_streamed += size;
      for (int64_t i = 0; i < size; ++i) {
        double roi = chunk.roi[0][AsSize64(i)];
        double cost = chunk.cost[0][AsSize64(i)];
        int64_t index = chunk.base_user + i;
        if (roi > theta) {
          ub_sum += (roi - theta) * cost;
          if (result.spent + cost <= budget) {
            if (!PushSelected(index, accountant, &result.selected)) {
              return CapExceeded(*accountant);
            }
            result.spent += cost;
            result.value += roi * cost;
            continue;
          }
          // Feasibility guard for FP-edge rows: the bisection measured
          // spend with bucket sums, the emission re-measures with a
          // running sum; within rounding of the boundary the two can
          // disagree, and spent <= budget must win.
          ++result.dual_threshold_overflow;
        }
        if (!repair.Add(index, roi, cost)) return CapExceeded(*accountant);
      }
    }
    result.dual_upper_bound = theta * budget + ub_sum;
    if (!repair.Compact()) return CapExceeded(*accountant);
    result.frontier_evictions = repair.evictions();
    result.merge_candidates = static_cast<int64_t>(repair.items().size());
    for (const FrontierItem& item : repair.items()) {
      if (result.spent + item.cost <= budget) {
        if (!PushSelected(item.index, accountant, &result.selected)) {
          return CapExceeded(*accountant);
        }
        result.spent += item.cost;
        result.value += item.roi * item.cost;
      } else {
        break;
      }
    }
    result.dual_gap = result.dual_upper_bound - result.value;
  }
  return result;
}

void RecordMetrics(const StreamingOptions& options,
                   const StreamingResult& result) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("alloc.streaming_calls")->Increment();
  registry.GetCounter("alloc.rows_streamed")
      ->Increment(static_cast<uint64_t>(result.rows_streamed));
  registry.GetCounter("alloc.frontier_evictions")
      ->Increment(static_cast<uint64_t>(result.frontier_evictions));
  registry.GetCounter("alloc.threshold_overflow")
      ->Increment(static_cast<uint64_t>(result.dual_threshold_overflow));
  registry.GetGauge("alloc.shards")
      ->Set(static_cast<double>(options.num_shards));
  registry.GetGauge("alloc.selected")
      ->Set(static_cast<double>(result.selected.size()));
  registry.GetGauge("alloc.merge_candidates")
      ->Set(static_cast<double>(result.merge_candidates));
  registry.GetGauge("alloc.peak_memory_bytes")
      ->Set(static_cast<double>(result.peak_memory_bytes));
  registry.GetGauge("alloc.dual_threshold")->Set(result.dual_threshold);
  registry.GetGauge("alloc.dual_gap")->Set(result.dual_gap);
  obs::Debug("streaming allocation",
             {{"mode", options.mode == AllocMode::kGreedy ? "greedy" : "dual"},
              {"shards", options.num_shards},
              {"rows_streamed", result.rows_streamed},
              {"selected", result.selected.size()},
              {"spent", result.spent},
              {"evictions", result.frontier_evictions},
              {"peak_memory_bytes", result.peak_memory_bytes}});
}

}  // namespace

StatusOr<GreedyScan> ShardedGreedyScan(RowSource* source, double budget,
                                       const std::vector<double>& arm_budgets,
                                       int num_shards, bool parallel_shards,
                                       size_t memory_cap_bytes) {
  ROICL_CHECK(source != nullptr);
  const int num_arms = source->num_arms();
  ROICL_CHECK(num_arms >= 1);
  ROICL_CHECK(static_cast<int>(arm_budgets.size()) == num_arms);
  obs::ScopedSpan span("alloc.greedy");
  if (num_shards <= 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  MemoryAccountant accountant(memory_cap_bytes);
  // The shard objects are working memory too: uncharged, a large enough
  // shard count alone would outgrow the cap.
  if (!accountant.TryCharge(source->chunk_bytes()) ||
      !accountant.TryCharge(AsSize(num_shards) *
                            (sizeof(ShardFrontier) +
                             sizeof(std::unique_ptr<ShardFrontier>)))) {
    return CapExceeded(accountant);
  }
  std::vector<std::unique_ptr<ShardFrontier>> shards;
  shards.reserve(AsSize(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    shards.push_back(std::make_unique<ShardFrontier>(budget, &accountant));
  }

  const int64_t n = source->total_rows();
  GreedyScan scan;
  scan.arm_spent.assign(AsSize(num_arms), 0.0);
  source->Reset();
  RowChunk chunk;
  // The chunk's arm columns, taken once per chunk.
  std::vector<const double*> roi_cols(AsSize(num_arms));
  std::vector<const double*> cost_cols(AsSize(num_arms));
  // Adds the best pair of the chunk's i-th user: the collapse lemma's
  // reduction to their highest-roi arm, ties to the smaller arm — exactly
  // the first of the user's pairs under (roi desc, arm asc, user asc).
  // The pair index (arm - 1) * n + user makes RankBefore's (roi desc,
  // index asc) order the campaign's total order.
  const auto add_best_pair = [&](ShardFrontier* frontier, size_t i) {
    size_t best = 0;
    double best_roi = roi_cols[0][i];
    for (size_t a = 1; a < roi_cols.size(); ++a) {
      // Strict > keeps the smaller arm on ties.
      if (roi_cols[a][i] > best_roi) {
        best = a;
        best_roi = roi_cols[a][i];
      }
    }
    return frontier->Add(static_cast<int64_t>(best) * n + chunk.base_user +
                             static_cast<int64_t>(i),
                         best_roi, cost_cols[best][i]);
  };
  bool over_cap = false;
  {
    obs::ScopedSpan stream_span("alloc.greedy.stream");
    while (!over_cap && source->Next(&chunk)) {
      // Validate the chunk serially first: the first bad pair reported is
      // then deterministic at any shard count or thread interleaving.
      Status chunk_status = ValidateChunk(chunk, num_arms);
      if (!chunk_status.ok()) return chunk_status;
      const int64_t size = chunk.size();
      scan.rows_streamed += size;
      for (size_t a = 0; a < roi_cols.size(); ++a) {
        roi_cols[a] = chunk.roi[a].data();
        cost_cols[a] = chunk.cost[a].data();
      }
      if (parallel_shards && num_shards > 1) {
        // Shards are disjoint (user -> user % num_shards), so each task
        // touches only its own frontier; the accountant is atomic. Every
        // shard sees its users in index order regardless of interleaving,
        // making the outcome bitwise-identical to the serial path.
        std::atomic<bool> chunk_over_cap{false};
        GlobalThreadPool().ParallelFor(0, num_shards, [&](int s) {
          ShardFrontier* frontier = shards[AsSize(s)].get();
          for (int64_t i = 0; i < size; ++i) {
            if ((chunk.base_user + i) % num_shards != s) continue;
            if (!add_best_pair(frontier, AsSize64(i))) {
              chunk_over_cap.store(true, std::memory_order_relaxed);
              return;
            }
          }
        });
        over_cap = chunk_over_cap.load(std::memory_order_relaxed);
      } else {
        // Users go round the shards in index order.
        size_t s = AsSize64(chunk.base_user % num_shards);
        for (int64_t i = 0; i < size && !over_cap; ++i) {
          over_cap = !add_best_pair(shards[s].get(), AsSize64(i));
          if (++s == shards.size()) s = 0;
        }
      }
    }
  }
  if (over_cap) return CapExceeded(accountant);

  obs::ScopedSpan merge_span("alloc.merge");
  size_t total = 0;
  for (std::unique_ptr<ShardFrontier>& shard : shards) {
    if (!shard->Compact()) return CapExceeded(accountant);
    total += shard->items().size();
    scan.frontier_evictions += shard->evictions();
  }
  if (!accountant.TryCharge(total * sizeof(FrontierItem))) {
    return CapExceeded(accountant);
  }
  std::vector<FrontierItem> merged;
  merged.reserve(total);
  for (std::unique_ptr<ShardFrontier>& shard : shards) {
    merged.insert(merged.end(), shard->items().begin(),
                  shard->items().end());
  }
  std::sort(merged.begin(), merged.end(), RankBefore);
  scan.merge_candidates = static_cast<int64_t>(total);

  // Exact reconciliation (soundness sketch, step 4): replay the
  // reference's stop-at-first-overflow scan over the merged candidates.
  // Every item is its user's best pair and users are unique across
  // frontiers, so the reference's assigned-user skip never fires here.
  for (const FrontierItem& item : merged) {
    const size_t a = AsSize64(item.index / n);
    if (!(scan.spent + item.cost <= budget)) break;
    if (!(scan.arm_spent[a] + item.cost <= arm_budgets[a])) break;
    if (!PushSelected(item.index, &accountant, &scan.selected)) {
      return CapExceeded(accountant);
    }
    scan.spent += item.cost;
    scan.arm_spent[a] += item.cost;
    scan.value += item.roi * item.cost;
  }
  scan.peak_memory_bytes = accountant.peak();
  return scan;
}

StatusOr<StreamingResult> StreamingAllocate(RowSource* source, double budget,
                                            const StreamingOptions& options) {
  ROICL_CHECK(source != nullptr);
  obs::ScopedSpan span("alloc.streaming");
  if (source->num_arms() != 1) {
    return Status::InvalidArgument(
        "StreamingAllocate needs a one-arm source; allocate K arms with "
        "campaign::StreamingKArmAllocate");
  }
  if (!std::isfinite(budget) || budget < 0.0) {
    return Status::InvalidArgument("budget must be finite and >= 0");
  }
  if (options.num_shards <= 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  if (options.mode == AllocMode::kDual &&
      (options.dual_passes < 1 || options.dual_grid < 2)) {
    return Status::InvalidArgument(
        "dual mode needs dual_passes >= 1 and dual_grid >= 2");
  }
  StreamingResult result;
  if (options.mode == AllocMode::kGreedy) {
    StatusOr<GreedyScan> greedy = ShardedGreedyScan(
        source, budget, {std::numeric_limits<double>::infinity()},
        options.num_shards, options.parallel_shards,
        options.memory_cap_bytes);
    if (!greedy.ok()) return greedy.status();
    GreedyScan& scan = greedy.value();
    result.selected = std::move(scan.selected);
    result.spent = scan.spent;
    result.value = scan.value;
    result.rows_streamed = scan.rows_streamed;
    result.peak_memory_bytes = scan.peak_memory_bytes;
    result.frontier_evictions = scan.frontier_evictions;
    result.merge_candidates = scan.merge_candidates;
  } else {
    MemoryAccountant accountant(options.memory_cap_bytes);
    if (!accountant.TryCharge(source->chunk_bytes())) {
      return CapExceeded(accountant);
    }
    StatusOr<StreamingResult> dual =
        DualStream(source, budget, options, &accountant);
    if (!dual.ok()) return dual.status();
    result = std::move(dual).value();
    result.peak_memory_bytes = accountant.peak();
  }
  RecordMetrics(options, result);
  return result;
}

StatusOr<double> StreamingTotalCost(RowSource* source) {
  ROICL_CHECK(source != nullptr);
  obs::ScopedSpan span("alloc.total_cost");
  source->Reset();
  RowChunk chunk;
  double total = 0.0;
  while (source->Next(&chunk)) {
    Status chunk_status = ValidateChunk(chunk, source->num_arms());
    if (!chunk_status.ok()) return chunk_status;
    for (const std::vector<double>& arm : chunk.cost) {
      for (double cost : arm) total += cost;
    }
  }
  return total;
}

}  // namespace roicl::alloc
