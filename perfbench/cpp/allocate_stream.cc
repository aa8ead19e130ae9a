// allocate_stream: allocation with no model. Streaming greedy and dual
// over 10M synthetic users (8 shards, 64 MiB accounted cap, budget 0.2% of
// all-in cost) plus a 4M users x 8 arms campaign, configured as the
// BM_StreamingAllocate and BM_CampaignAllocate micro-benchmarks are. The
// budgets' total-cost passes are set-up, as in those benchmarks. One timed
// round runs `--threads` (nproc) concurrent jobs, one per worker thread,
// each a cycle of the three allocations: a single job's speed follows the
// one core it runs on, and on a shared host that core's speed moves from
// run to run; nproc jobs average over every core.

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "alloc/row_source.h"
#include "alloc/streaming.h"
#include "campaign/karm_source.h"
#include "campaign/karm_streaming.h"
#include "common.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

constexpr int64_t kUsers = 10000000;
constexpr int64_t kCampaignUsers = 4000000;
constexpr int kArms = 8;
constexpr int kChunkRows = 65536;
constexpr double kBudgetFraction = 0.002;
constexpr size_t kCapBytes = size_t{64} << 20;
constexpr int kShards = 8;
/// (user, arm) pairs one cycle allocates: greedy and dual each over the
/// binary population, plus the campaign's K pairs per user.
constexpr double kPairsPerCycle =
    2.0 * static_cast<double>(kUsers) +
    static_cast<double>(kCampaignUsers) * kArms;

struct Budgets {
  double binary = 0.0;
  roicl::campaign::KArmBudgets campaign;
};

struct CycleOutput {
  roicl::alloc::StreamingResult greedy;
  roicl::alloc::StreamingResult dual;
  roicl::campaign::KArmStreamingResult campaign;
};

/// Per-call wall times of one worker's cycles.
struct CallTimes {
  std::vector<double> greedy_ms, dual_ms, campaign_ms;
};

/// One job's cycle on the calling thread. Returns the failed calls'
/// statuses, empty when all three succeeded.
std::string RunCycle(const Budgets& budgets, uint64_t binary_seed,
                     uint64_t campaign_seed, CycleOutput* out,
                     CallTimes* times) {
  using namespace roicl;
  alloc::StreamingOptions greedy_options;
  greedy_options.mode = alloc::AllocMode::kGreedy;
  greedy_options.num_shards = kShards;
  greedy_options.memory_cap_bytes = kCapBytes;
  alloc::StreamingOptions dual_options = greedy_options;
  dual_options.mode = alloc::AllocMode::kDual;
  campaign::KArmStreamingOptions campaign_options;
  campaign_options.num_shards = kShards;
  campaign_options.memory_cap_bytes = kCapBytes;

  std::string error;
  ScopedSpan cycle_span("alloc.cycle");
  {
    ScopedSpan span("alloc.greedy");
    const Clock::time_point t = Clock::now();
    alloc::SyntheticRowSource source(kUsers, binary_seed, kChunkRows);
    StatusOr<alloc::StreamingResult> greedy =
        alloc::StreamingAllocate(&source, budgets.binary, greedy_options);
    times->greedy_ms.push_back(MillisSince(t));
    if (greedy.ok()) {
      out->greedy = std::move(greedy).value();
    } else {
      error += " greedy: " + greedy.status().ToString();
    }
  }
  {
    ScopedSpan span("alloc.dual");
    const Clock::time_point t = Clock::now();
    alloc::SyntheticRowSource source(kUsers, binary_seed, kChunkRows);
    StatusOr<alloc::StreamingResult> dual =
        alloc::StreamingAllocate(&source, budgets.binary, dual_options);
    times->dual_ms.push_back(MillisSince(t));
    if (dual.ok()) {
      out->dual = std::move(dual).value();
    } else {
      error += " dual: " + dual.status().ToString();
    }
  }
  {
    ScopedSpan span("campaign.stream");
    const Clock::time_point t = Clock::now();
    campaign::SyntheticKArmRowSource source(kCampaignUsers, kArms,
                                            campaign_seed, kChunkRows);
    StatusOr<campaign::KArmStreamingResult> karm =
        campaign::StreamingKArmAllocate(&source, budgets.campaign,
                                        campaign_options);
    times->campaign_ms.push_back(MillisSince(t));
    if (karm.ok()) {
      out->campaign = std::move(karm).value();
    } else {
      error += " campaign: " + karm.status().ToString();
    }
  }
  return error;
}

/// Output checks (untimed): spend within budget, accounted peak within
/// the cap, and every job reproduces the first job bit for bit.
std::string CheckCycle(const Budgets& budgets, const CycleOutput& out,
                       const CycleOutput* first) {
  const bool within = out.greedy.spent <= budgets.binary &&
                      out.dual.spent <= budgets.binary &&
                      out.campaign.spent <= budgets.campaign.global &&
                      out.greedy.peak_memory_bytes <= kCapBytes &&
                      out.dual.peak_memory_bytes <= kCapBytes &&
                      out.campaign.peak_memory_bytes <= kCapBytes;
  if (!within) return " spend over budget or peak over the cap";
  if (first != nullptr &&
      (out.greedy.selected != first->greedy.selected ||
       out.greedy.spent != first->greedy.spent ||
       out.dual.selected != first->dual.selected ||
       out.campaign.selected_pairs != first->campaign.selected_pairs ||
       out.campaign.spent != first->campaign.spent)) {
    return " allocation differs from the first job's";
  }
  return "";
}

/// Every worker's times of one call, in one sample.
std::vector<double> Pooled(const std::vector<CallTimes>& workers,
                           std::vector<double> CallTimes::*member) {
  std::vector<double> all;
  for (const CallTimes& times : workers) {
    all.insert(all.end(), (times.*member).begin(), (times.*member).end());
  }
  return all;
}

}  // namespace

Result RunAllocateStream(const RunConfig& config) {
  using namespace roicl;
  Result result;
  // Distinct streams for the binary and the campaign population.
  const uint64_t binary_seed = config.seed * 2 + 1;
  const uint64_t campaign_seed = config.seed * 2 + 2;
  const int workers = std::max(1, config.threads);

  Budgets budgets;
  std::vector<double> setup_s, total_cost_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    alloc::SyntheticRowSource source(kUsers, binary_seed, kChunkRows);
    StatusOr<double> total = alloc::StreamingTotalCost(&source);
    total_cost_ms.push_back(MillisSince(start));
    if (!total.ok()) {
      result.Fail("total cost: " + total.status().ToString());
      return result;
    }
    double campaign_total = 0.0;
    campaign::SyntheticKArmRowSource scan(kCampaignUsers, kArms,
                                          campaign_seed, kChunkRows);
    campaign::KArmRowChunk chunk;
    while (scan.Next(&chunk)) {
      for (const std::vector<double>& arm : chunk.cost) {
        campaign_total = std::accumulate(arm.begin(), arm.end(),
                                         campaign_total);
      }
    }
    budgets.binary = kBudgetFraction * total.value();
    budgets.campaign.global = kBudgetFraction * campaign_total;
    budgets.campaign.per_arm.assign(
        kArms, std::numeric_limits<double>::infinity());
    setup_s.push_back(SecondsSince(start));
  }

  obs::Counter* tasks =
      obs::MetricsRegistry::Global().GetCounter("threadpool.tasks");
  const uint64_t tasks_before = tasks->value();
  std::vector<CallTimes> calls(static_cast<size_t>(workers));
  std::vector<double> round_s, traced_s, untraced_s;
  CycleOutput first;
  const Clock::time_point loop_start = Clock::now();
  // No round starts that would end past --seconds at the median round time.
  for (int round = 0;; ++round) {
    const bool enough = config.trace ? round >= 2 : round >= 1;
    if (enough &&
        SecondsSince(loop_start) + Median(round_s) > config.seconds) {
      break;
    }
    const bool traced = config.trace && round % 2 == 0;
    SpanLog::Global().SetEnabled(traced);
    std::vector<CycleOutput> outs(static_cast<size_t>(workers));
    std::vector<std::string> errors(static_cast<size_t>(workers));
    result.attempted += 3 * workers;
    const Clock::time_point start = Clock::now();
    {
      std::vector<std::thread> threads;
      for (size_t w = 0; w < outs.size(); ++w) {
        threads.emplace_back([&, w] {
          errors[w] = RunCycle(budgets, binary_seed, campaign_seed, &outs[w],
                               &calls[w]);
        });
      }
      for (std::thread& thread : threads) thread.join();
    }
    const double seconds = SecondsSince(start);
    SpanLog::Global().SetEnabled(false);

    bool round_ok = true;
    for (size_t w = 0; w < outs.size(); ++w) {
      std::string& error = errors[w];
      const bool is_first = round == 0 && w == 0;
      if (error.empty()) {
        error = CheckCycle(budgets, outs[w], is_first ? nullptr : &first);
      }
      if (!error.empty()) {
        round_ok = false;
        result.failed += 3;
        result.Fail("round " + std::to_string(round) + " job " +
                    std::to_string(w) + ":" + error);
        if (is_first) return result;
        continue;
      }
      if (is_first) first = std::move(outs[w]);
    }
    if (!round_ok) continue;
    round_s.push_back(seconds);
    (traced ? traced_s : untraced_s).push_back(seconds);
  }
  const uint64_t tasks_used = tasks->value() - tasks_before;

  // Throughput from each call's fastest time per worker, not the median:
  // the calls are single-threaded and deterministic, so their slower
  // repetitions measure the host's other tenants, not the allocator. Over
  // eight 25 s runs of one job, the median cycle spread by 0.136 of its
  // median (interquartile distance), the sum of fastest calls by 0.042.
  const auto fastest = [](const std::vector<double>& ms) {
    return *std::min_element(ms.begin(), ms.end());
  };
  double pairs_per_s = 0.0;
  for (const CallTimes& times : calls) {
    pairs_per_s += kPairsPerCycle * 1e3 /
                   (fastest(times.greedy_ms) + fastest(times.dual_ms) +
                    fastest(times.campaign_ms));
  }
  result.E2e("setup_s", Median(setup_s), "s");
  result.E2e("rows_per_s", pairs_per_s, "rows/s");
  const size_t peak = std::max({first.greedy.peak_memory_bytes,
                                first.dual.peak_memory_bytes,
                                first.campaign.peak_memory_bytes});
  result.E2e("alloc_peak_mib", static_cast<double>(peak) / (1024.0 * 1024.0),
             "MiB");
  // The synthetic source's roi is the ground truth, so value / spent is
  // the true incremental revenue per unit of spend.
  result.E2e("reward_per_cost", first.greedy.value / first.greedy.spent,
             "ratio");
  result.Note("allocate_stream: " + std::to_string(round_s.size()) +
              " rounds of " + std::to_string(workers) +
              " jobs; greedy selected " +
              std::to_string(first.greedy.selected.size()) +
              ", dual selected " + std::to_string(first.dual.selected.size()) +
              ", campaign charged " +
              std::to_string(first.campaign.selected_pairs.size()) + " pairs");

  if (config.trace) {
    result.Layer("alloc.total_cost_ms", Median(total_cost_ms), "ms");
    result.Layer("alloc.greedy_ms", Median(Pooled(calls, &CallTimes::greedy_ms)),
                 "ms");
    result.Layer("alloc.dual_ms", Median(Pooled(calls, &CallTimes::dual_ms)),
                 "ms");
    result.Layer("alloc.frontier_evictions",
                 static_cast<double>(first.greedy.frontier_evictions),
                 "count");
    result.Layer("alloc.dual_gap", first.dual.dual_gap, "value");
    result.Layer("campaign.stream_ms",
                 Median(Pooled(calls, &CallTimes::campaign_ms)), "ms");
    result.Layer("campaign.peak_mib",
                 static_cast<double>(first.campaign.peak_memory_bytes) /
                     (1024.0 * 1024.0),
                 "MiB");
    result.Layer("threadpool.tasks",
                 static_cast<double>(tasks_used) /
                     static_cast<double>(result.attempted),
                 "count/op");
    result.Layer("trace.overhead_frac",
                 Median(traced_s) / Median(untraced_s) - 1.0, "frac");
    SpanLog::Global().SetEnabled(true);
    RunKernelProbes(&result);
    SpanLog::Global().SetEnabled(false);
    SelfTimeTable cycles =
        SelfTimes(SpanLog::Global().Snapshot(), "alloc.cycle",
                  "allocate_stream: traced cycles, wall summed over the " +
                      std::to_string(workers) + " worker threads");
    result.Layer("trace.unattributed_frac",
                 cycles.rows.back().ms / cycles.wall_ms, "frac");
    result.tables.push_back(cycles);
  }
  result.E2e("peak_rss_mib", PeakRssMib(), "MiB");
  return result;
}

}  // namespace perfbench
