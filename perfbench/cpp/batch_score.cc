// batch_score: the offline campaign job. Read a synthetic population from
// CSV, run Pipeline::Score then Pipeline::ScoreIntervals (as `roicl score`
// does), then allocate greedily at 15% of all-in cost with
// alloc::StreamingAllocate over a VectorRowSource (as `roicl allocate
// --streaming` does). Repeated for the run's duration.

#include <string>
#include <vector>

#include "alloc/row_source.h"
#include "alloc/streaming.h"
#include "common.h"
#include "core/greedy.h"
#include "data/csv.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

constexpr int kPopulationRows = 50000;
constexpr double kBudgetFraction = 0.15;
constexpr int kChunkRows = 65536;  // `allocate --streaming` default

struct JobOutput {
  roicl::RctDataset data;
  std::vector<double> scores;
  std::vector<roicl::metrics::Interval> intervals;
  double budget = 0.0;
  roicl::alloc::StreamingResult allocation;
};

struct StepTimes {
  std::vector<double> job_s, read_ms, score_ms, intervals_ms, total_cost_ms,
      greedy_ms;
};

/// One timed job. Returns false (with the reason in `error`) on a failed
/// call.
bool RunJob(const std::string& csv_path,
            const roicl::pipeline::Pipeline& pipeline, StepTimes* times,
            JobOutput* out, std::string* error) {
  using namespace roicl;
  auto timed = [](const char* name, std::vector<double>* sink, auto&& call) {
    ScopedSpan span(name);
    const Clock::time_point start = Clock::now();
    auto value = call();
    sink->push_back(MillisSince(start));
    return value;
  };
  ScopedSpan job_span("batch.job");
  StatusOr<RctDataset> data = timed("data.read_csv", &times->read_ms,
                                    [&] { return ReadDatasetCsv(csv_path); });
  if (!data.ok()) {
    *error = "read: " + data.status().ToString();
    return false;
  }
  out->data = std::move(data).value();
  StatusOr<std::vector<double>> scores = timed(
      "pipeline.score", &times->score_ms,
      [&] { return pipeline.Score(out->data.x); });
  if (!scores.ok()) {
    *error = "score: " + scores.status().ToString();
    return false;
  }
  out->scores = std::move(scores).value();
  StatusOr<std::vector<metrics::Interval>> intervals = timed(
      "pipeline.intervals", &times->intervals_ms,
      [&] { return pipeline.ScoreIntervals(out->data.x); });
  if (!intervals.ok()) {
    *error = "intervals: " + intervals.status().ToString();
    return false;
  }
  out->intervals = std::move(intervals).value();

  alloc::VectorRowSource source(out->scores, out->data.true_tau_c,
                                kChunkRows);
  StatusOr<double> total = timed("alloc.total_cost", &times->total_cost_ms,
                                 [&] {
                                   return alloc::StreamingTotalCost(&source);
                                 });
  if (!total.ok()) {
    *error = "total cost: " + total.status().ToString();
    return false;
  }
  out->budget = kBudgetFraction * total.value();
  alloc::StreamingOptions options;  // greedy, 1 shard, 256 MiB cap
  StatusOr<alloc::StreamingResult> allocation =
      timed("alloc.greedy", &times->greedy_ms, [&] {
        return alloc::StreamingAllocate(&source, out->budget, options);
      });
  if (!allocation.ok()) {
    *error = "allocate: " + allocation.status().ToString();
    return false;
  }
  out->allocation = std::move(allocation).value();
  return true;
}

/// Output checks of one job (untimed). `first` is the first job's output,
/// which every later job must reproduce bit for bit.
bool CheckJob(const JobOutput& job, const JobOutput* first,
              std::string* error) {
  const size_t n = static_cast<size_t>(job.data.n());
  if (job.scores.size() != n || job.intervals.size() != n) {
    *error = "score or interval count differs from the row count";
    return false;
  }
  roicl::core::AllocationResult reference = roicl::core::GreedyAllocate(
      job.scores, job.data.true_tau_c, job.budget,
      /*skip_unaffordable=*/false);
  const std::vector<int64_t>& selected = job.allocation.selected;
  bool same = selected.size() == reference.selected.size() &&
              job.allocation.spent == reference.spent;
  for (size_t i = 0; same && i < selected.size(); ++i) {
    same = selected[i] == reference.selected[i];
  }
  if (!same) {
    *error = "streaming selection differs from core::GreedyAllocate";
    return false;
  }
  if (!(job.allocation.spent <= job.budget)) {
    *error = "spend exceeds the budget";
    return false;
  }
  if (first != nullptr) {
    std::vector<double> lo, hi, first_lo, first_hi;
    for (const auto& iv : job.intervals) {
      lo.push_back(iv.lo);
      hi.push_back(iv.hi);
    }
    for (const auto& iv : first->intervals) {
      first_lo.push_back(iv.lo);
      first_hi.push_back(iv.hi);
    }
    if (!SameBits(job.scores, first->scores) || !SameBits(lo, first_lo) ||
        !SameBits(hi, first_hi)) {
      *error = "scores or intervals changed between jobs";
      return false;
    }
  }
  return true;
}

}  // namespace

Result RunBatchScore(const RunConfig& config) {
  using namespace roicl;
  Result result;
  const std::string csv_path = config.out_dir + "/population-" +
                               std::to_string(config.seed) + ".csv";
  std::unique_ptr<Fixture> fixture;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Clock::time_point start = Clock::now();
    const std::string previous = fixture ? fixture->artifact : "";
    fixture.reset();
    fixture = BuildFixture(config, &result);
    if (fixture == nullptr) return result;
    RctDataset population = MakePopulation(kPopulationRows, config.seed);
    if (Status written = WriteDatasetCsv(population, csv_path);
        !written.ok()) {
      result.Fail("write population: " + written.ToString());
      return result;
    }
    setup_s.push_back(SecondsSince(start));
    if (!previous.empty() && previous != fixture->artifact) {
      result.Fail("fixture artifact differs between set-ups");
    }
  }

  obs::Counter* tasks =
      obs::MetricsRegistry::Global().GetCounter("threadpool.tasks");
  const uint64_t tasks_before = tasks->value();
  StepTimes times;
  JobOutput first;
  std::vector<double> traced_s, untraced_s;
  const Clock::time_point loop_start = Clock::now();
  // In a traced run jobs alternate between recorded and unrecorded, so the
  // span overhead is measured inside one process. No job starts that would
  // end past --seconds at the median job time.
  for (int job = 0;; ++job) {
    const bool enough = config.trace ? job >= 2 : job >= 1;
    if (enough &&
        SecondsSince(loop_start) + Median(times.job_s) > config.seconds) {
      break;
    }
    const bool traced = config.trace && job % 2 == 0;
    SpanLog::Global().SetEnabled(traced);
    JobOutput out;
    std::string error;
    ++result.attempted;
    const Clock::time_point start = Clock::now();
    const bool ran = RunJob(csv_path, *fixture->pipeline, &times, &out,
                            &error);
    const double job_s = SecondsSince(start);
    SpanLog::Global().SetEnabled(false);
    if (ran && CheckJob(out, job == 0 ? nullptr : &first, &error)) {
      times.job_s.push_back(job_s);
      (traced ? traced_s : untraced_s).push_back(job_s);
      if (job == 0) first = std::move(out);
    } else {
      ++result.failed;
      result.Fail("job " + std::to_string(job) + ": " + error);
      if (job == 0) return result;
    }
  }
  const uint64_t tasks_used = tasks->value() - tasks_before;

  const double job_median = Median(times.job_s);
  result.E2e("setup_s", Median(setup_s), "s");
  result.E2e("rows_per_s", kPopulationRows / job_median, "rows/s");
  result.E2e("alloc_peak_mib",
             static_cast<double>(first.allocation.peak_memory_bytes) /
                 (1024.0 * 1024.0),
             "MiB");
  double revenue = 0.0;
  for (int64_t i : first.allocation.selected) {
    revenue += first.data.true_tau_r[static_cast<size_t>(i)];
  }
  result.E2e("reward_per_cost", revenue / first.allocation.spent, "ratio");
  result.Note("batch_score: " + std::to_string(times.job_s.size()) +
              " jobs of " + std::to_string(kPopulationRows) + " rows, " +
              std::to_string(first.allocation.selected.size()) +
              " users selected");

  if (config.trace) {
    ReportIntervalQuality(first.intervals, first.data, &result);
    result.Layer("data.read_csv_ms", Median(times.read_ms), "ms");
    result.Layer("pipeline.score_ms", Median(times.score_ms), "ms");
    result.Layer("pipeline.intervals_ms", Median(times.intervals_ms), "ms");
    result.Layer("alloc.total_cost_ms", Median(times.total_cost_ms), "ms");
    result.Layer("alloc.greedy_ms", Median(times.greedy_ms), "ms");
    result.Layer("alloc.frontier_evictions",
                 static_cast<double>(first.allocation.frontier_evictions),
                 "count");
    result.Layer("threadpool.tasks",
                 static_cast<double>(tasks_used) /
                     static_cast<double>(result.attempted),
                 "count/op");
    result.Layer("trace.overhead_frac",
                 Median(traced_s) / Median(untraced_s) - 1.0, "frac");

    SpanLog::Global().SetEnabled(true);
    RunModelProbes(config, *fixture, first.data, /*with_intervals=*/false,
                   &result);
    RunKernelProbes(&result);
    SpanLog::Global().SetEnabled(false);
    std::vector<SpanRecord> spans = SpanLog::Global().Snapshot();
    SelfTimeTable jobs =
        SelfTimes(spans, "batch.job", "batch_score: traced jobs, main thread");
    result.Layer("trace.unattributed_frac",
                 jobs.rows.back().ms / jobs.wall_ms, "frac");
    result.tables.push_back(jobs);
    result.tables.push_back(SelfTimes(
        spans, "probe.model",
        "batch_score: layer probes on the population (outside the jobs)"));
  }
  result.E2e("peak_rss_mib", PeakRssMib(), "MiB");
  return result;
}

}  // namespace perfbench
