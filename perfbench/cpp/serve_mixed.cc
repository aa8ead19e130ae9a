// serve_mixed: online serving with reads and writes side by side. One
// ScoringService holds the rDRP pipeline; a ServingMonitor observes every
// scored request through on_scored; shadow intervals run on every 8th
// request; a feedback writer calls AddOutcomes then MaybeRecalibrate(force)
// on a fixed cadence, and each recalibration swaps q_hat through
// SetConformalQuantile.
//
// Phase `steady`: an open loop of seeded Poisson arrivals of 64-row
// requests at a pinned rate, each latency timed from the request's due
// time. Phase `saturate`: a closed loop of nproc clients, each sending its
// next request when the previous one returns.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/row_source.h"
#include "alloc/streaming.h"
#include "common.h"
#include "core/greedy.h"
#include "monitor/monitor.h"
#include "obs/metrics.h"
#include "pipeline/service.h"

namespace perfbench {
namespace {

using roicl::Matrix;
using ScoreFuture = std::future<roicl::StatusOr<std::vector<double>>>;

constexpr int kPoolMatrices = 32;
constexpr int kRequestRows = 64;
/// Pinned open-loop rate: about a quarter of what the single dispatcher
/// sustains on 64-row rDRP requests with the shadow and monitor stages
/// (~160 req/s on an idle 4-core AVX-512 Xeon, ~115 req/s when the shared
/// host is loaded). At half of capacity, a 20% swing in host speed moved
/// the median latency by 40% through queueing; at a quarter it barely
/// amplifies.
constexpr double kSteadyRate = 40.0;
/// The steady phase sends kSteadyRate * kSteadyShare * --seconds requests
/// (a fixed count, so the tail percentile rests on a known sample); the
/// saturate phase runs for the rest of --seconds.
constexpr double kSteadyShare = 0.73;
constexpr int kShadowEvery = 8;
/// Frequent enough that the requests stalled behind AddOutcomes (which
/// holds the monitor mutex across its MC sweep, ~25 ms) outnumber the 1%
/// tail, so latency_p99_ms measures that stall rather than whether one
/// happened.
constexpr double kFeedbackPeriodS = 1.0;
constexpr int kFeedbackRows = 256;
constexpr int kFeedbackBatches = 16;  // cycled
constexpr int kWarmupRequests = 64;
/// The request pool's rows are pinned like the fixture: the seed drives
/// the arrival schedule, the pool picks and the feedback stream, so the
/// served-score reward does not swing with a 2048-row sample.
constexpr uint64_t kPoolSeed = 20241017;
constexpr int kRateChunk = 64;  // completions per saturate rate sample
constexpr double kBudgetFraction = 0.15;
constexpr int kOverheadWindows = 4;  // saturate slices, traced run only

enum Phase { kWarmup = 0, kSteady = 1, kSaturate = 2, kPhases = 3 };

struct Response {
  int pool = 0;
  int64_t due_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
  std::string error;
  std::vector<double> scores;
};

void Complete(ScoreFuture* future, Response* response) {
  roicl::StatusOr<std::vector<double>> result = future->get();
  response->done_ns = NowNs();
  response->ok = result.ok();
  if (result.ok()) {
    response->scores = std::move(result).value();
  } else {
    response->error = result.status().message();
  }
}

/// What the service callback and the feedback writer share with the
/// workload's main thread. Outlives the service and the monitor.
struct Shared {
  std::atomic<roicl::monitor::ServingMonitor*> monitor{nullptr};
  std::atomic<int> phase{kWarmup};

  std::mutex mu;
  std::vector<double> queue_us[kPhases], score_us[kPhases],
      observe_us[kPhases];
  /// Every quantile the service published: (time just before the swap,
  /// q_hat). The first entry is the artifact's quantile.
  std::vector<std::pair<int64_t, double>> published;

  void Publish(double q_hat) {
    std::lock_guard<std::mutex> lock(mu);
    published.emplace_back(NowNs(), q_hat);
  }
};

struct ServeSetup {
  std::unique_ptr<Fixture> fixture;
  roicl::RctDataset pool_data;
  std::vector<Matrix> pool;
  roicl::RctDataset feedback;
  std::unique_ptr<Shared> shared;
  // Destroyed in reverse order: the service (and its dispatcher) first,
  // then the monitor its callback reaches.
  std::unique_ptr<roicl::monitor::ServingMonitor> monitor;
  std::unique_ptr<roicl::pipeline::ScoringService> service;
};

std::unique_ptr<ServeSetup> BuildServeSetup(const RunConfig& config,
                                            Result* result) {
  using namespace roicl;
  auto s = std::make_unique<ServeSetup>();
  s->fixture = BuildFixture(config, result);
  if (s->fixture == nullptr) return nullptr;
  s->pool_data = MakePopulation(kPoolMatrices * kRequestRows, kPoolSeed);
  for (int m = 0; m < kPoolMatrices; ++m) {
    std::vector<int> rows(kRequestRows);
    for (int r = 0; r < kRequestRows; ++r) rows[static_cast<size_t>(r)] =
        m * kRequestRows + r;
    s->pool.push_back(s->pool_data.x.SelectRows(rows));
  }
  s->feedback = MakePopulation(kFeedbackRows * kFeedbackBatches,
                               config.seed + 7919);
  s->shared = std::make_unique<Shared>();
  Shared* shared = s->shared.get();

  pipeline::ServiceOptions options;
  options.engine = {256, config.threads};
  options.shadow_interval_every = kShadowEvery;
  options.on_scored = [shared](const pipeline::ServeContext& ctx,
                               const Matrix& x,
                               const std::vector<double>& scores) {
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan span("monitor.observe", ctx.trace_id);
      shared->monitor.load()->ObserveScored(x, scores);
    }
    const double observe_us = 1e3 * MillisSince(start);
    const int phase = shared->phase.load();
    std::lock_guard<std::mutex> lock(shared->mu);
    shared->queue_us[phase].push_back(static_cast<double>(ctx.queue_us));
    shared->score_us[phase].push_back(static_cast<double>(ctx.score_us));
    shared->observe_us[phase].push_back(observe_us);
  };
  s->service = std::make_unique<pipeline::ScoringService>(
      std::move(*s->fixture->pipeline), options);
  s->fixture->pipeline.reset();

  monitor::MonitorOptions monitor_options;
  monitor_options.engine = {256, config.threads};
  StatusOr<std::unique_ptr<monitor::ServingMonitor>> monitor =
      monitor::ServingMonitor::FromCalibration(&s->service->pipeline(),
                                               s->fixture->calibration,
                                               monitor_options);
  if (!monitor.ok()) {
    result->Fail("monitor: " + monitor.status().ToString());
    return nullptr;
  }
  s->monitor = std::move(monitor).value();
  shared->monitor.store(s->monitor.get());
  StatusOr<double> q0 = s->service->pipeline().conformal_quantile();
  if (!q0.ok()) {
    result->Fail("served pipeline has no conformal quantile");
    return nullptr;
  }
  shared->published.emplace_back(std::numeric_limits<int64_t>::min(),
                                 q0.value());
  pipeline::ScoringService* service = s->service.get();
  s->monitor->BindQuantileSwap([shared, service](double q_hat) {
    shared->Publish(q_hat);
    return service->SetConformalQuantile(q_hat);
  });
  return s;
}

/// Open loop: requests are sent at their seeded Poisson due times whether
/// or not earlier ones returned; a waiter thread records each completion.
std::vector<Response> RunSteady(ServeSetup& s, const RunConfig& config,
                                int requests,
                                std::vector<double>* gen_lag_ms) {
  roicl::Rng rng(config.seed * 1000003 + 17);
  std::vector<int64_t> offsets_ns;
  std::vector<int> pool_ids;
  double t = 0.0;
  for (int i = 0; i < requests; ++i) {
    t += rng.Exponential(kSteadyRate);
    offsets_ns.push_back(static_cast<int64_t>(t * 1e9));
    pool_ids.push_back(static_cast<int>(rng.UniformInt(kPoolMatrices)));
  }
  std::vector<Response> responses(offsets_ns.size());

  struct InFlight {
    size_t index;
    ScoreFuture future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> incoming;
  bool submitted_all = false;
  std::thread waiter([&] {
    std::vector<InFlight> inflight;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (inflight.empty()) {
          cv.wait(lock, [&] { return !incoming.empty() || submitted_all; });
        }
        while (!incoming.empty()) {
          inflight.push_back(std::move(incoming.front()));
          incoming.pop_front();
        }
        if (inflight.empty() && submitted_all) return;
      }
      // Completion is usually in submission order, so block on the oldest
      // request, which wakes this thread the moment it completes; a request
      // that finished before it is caught by the sweep within the wait's
      // 1 ms granularity. (Shorter waits cost a timer wake-up each, which on
      // a virtual machine steals time from the dispatcher.)
      if (!inflight.empty()) {
        static_cast<void>(
            inflight.front().future.wait_for(std::chrono::milliseconds(1)));
      }
      for (auto it = inflight.begin(); it != inflight.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          Response& response = responses[it->index];
          Complete(&it->future, &response);
          SpanLog::Global().Record("serve.request", response.due_ns,
                                   response.done_ns, it->index + 1);
          it = inflight.erase(it);
        } else {
          ++it;
        }
      }
    }
  });

  const Clock::time_point base = Clock::now();
  const int64_t base_ns = NowNs();
  for (size_t i = 0; i < offsets_ns.size(); ++i) {
    std::this_thread::sleep_until(base +
                                  std::chrono::nanoseconds(offsets_ns[i]));
    Response& response = responses[i];
    response.pool = pool_ids[i];
    response.due_ns = base_ns + offsets_ns[i];
    gen_lag_ms->push_back(
        static_cast<double>(NowNs() - response.due_ns) / 1e6);
    ScoreFuture future =
        s.service->Submit(s.pool[static_cast<size_t>(pool_ids[i])]);
    {
      std::lock_guard<std::mutex> lock(mu);
      incoming.push_back({i, std::move(future)});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    submitted_all = true;
  }
  cv.notify_one();
  waiter.join();
  return responses;
}

/// Closed loop: `clients` threads, each sending its next request when the
/// previous one returns, until the phase ends. In a traced run the phase
/// is cut into slices that alternate span recording off and on.
std::vector<Response> RunSaturate(ServeSetup& s, const RunConfig& config,
                                  double seconds, int clients,
                                  std::vector<int64_t>* slice_edges_ns) {
  std::vector<std::vector<Response>> per_client(
      static_cast<size_t>(clients));
  const int64_t start_ns = NowNs();
  const int64_t end_ns = start_ns + static_cast<int64_t>(seconds * 1e9);
  std::atomic<uint64_t> next_request{1000000};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      roicl::Rng rng(config.seed * 7919 + static_cast<uint64_t>(c));
      std::vector<Response>& mine = per_client[static_cast<size_t>(c)];
      while (NowNs() < end_ns) {
        Response response;
        response.pool = static_cast<int>(rng.UniformInt(kPoolMatrices));
        response.due_ns = NowNs();
        ScoreFuture future = s.service->Submit(
            s.pool[static_cast<size_t>(response.pool)]);
        Complete(&future, &response);
        SpanLog::Global().Record("serve.request", response.due_ns,
                                 response.done_ns, next_request++);
        mine.push_back(std::move(response));
      }
    });
  }
  slice_edges_ns->push_back(start_ns);
  if (config.trace) {
    for (int w = 1; w <= kOverheadWindows; ++w) {
      SpanLog::Global().SetEnabled(w % 2 == 0);
      const int64_t edge =
          start_ns + (end_ns - start_ns) * w / kOverheadWindows;
      std::this_thread::sleep_until(
          Clock::now() + std::chrono::nanoseconds(edge - NowNs()));
      slice_edges_ns->push_back(edge);
    }
  } else {
    slice_edges_ns->push_back(end_ns);
  }
  for (std::thread& t : threads) t.join();
  SpanLog::Global().SetEnabled(false);
  std::vector<Response> all;
  for (std::vector<Response>& mine : per_client) {
    for (Response& r : mine) all.push_back(std::move(r));
  }
  return all;
}

/// Rows of successful responses completed in [from_ns, to_ns) per second.
double RowsPerSecond(const std::vector<Response>& responses, int64_t from_ns,
                     int64_t to_ns) {
  double rows = 0.0;
  for (const Response& r : responses) {
    if (r.ok && r.done_ns >= from_ns && r.done_ns < to_ns) {
      rows += static_cast<double>(r.scores.size());
    }
  }
  return rows / (static_cast<double>(to_ns - from_ns) / 1e9);
}

/// Median, over runs of kRateChunk consecutive successful completions in
/// [from_ns, to_ns), of the rows they carry per second between the first
/// and last completion: a short stall of the host moves one sample rather
/// than the phase's rate, and no sample is quantized to whole requests per
/// fixed window.
double MedianChunkRate(const std::vector<Response>& responses,
                       int64_t from_ns, int64_t to_ns) {
  std::vector<const Response*> done;
  for (const Response& r : responses) {
    if (r.ok && r.done_ns >= from_ns && r.done_ns < to_ns) done.push_back(&r);
  }
  std::sort(done.begin(), done.end(), [](const Response* a, const Response* b) {
    return a->done_ns < b->done_ns;
  });
  std::vector<double> rates;
  for (size_t first = 0; first + kRateChunk < done.size();
       first += kRateChunk) {
    double rows = 0.0;
    for (size_t i = first + 1; i <= first + kRateChunk; ++i) {
      rows += static_cast<double>(done[i]->scores.size());
    }
    const double seconds =
        static_cast<double>(done[first + kRateChunk]->done_ns -
                            done[first]->done_ns) / 1e9;
    rates.push_back(rows / seconds);
  }
  return rates.empty() ? RowsPerSecond(responses, from_ns, to_ns)
                       : Median(rates);
}

/// Sum and count of a registered histogram (0 when absent).
std::pair<double, double> HistogramSumCount(const std::string& name) {
  std::pair<double, double> out{0.0, 0.0};
  roicl::obs::MetricsRegistry::Global().ForEachHistogram(
      [&](const std::string& found, const roicl::obs::Histogram& h) {
        if (found == name) out = {h.sum(), static_cast<double>(h.count())};
      });
  return out;
}

double HistogramMedian(const std::string& name) {
  double out = 0.0;
  roicl::obs::MetricsRegistry::Global().ForEachHistogram(
      [&](const std::string& found, const roicl::obs::Histogram& h) {
        if (found == name && h.count() > 0) out = h.ApproxQuantile(0.5);
      });
  return out;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// The dispatcher thread's time over one phase: scoring, the shadow
/// conformal stage and the monitor observe step run one after another on
/// it, so with its idle time they tile the phase's wall time.
SelfTimeTable DispatcherTable(const std::string& title, double wall_ms,
                              double score_ms, double conformal_ms,
                              double observe_ms) {
  SelfTimeTable table;
  table.title = title;
  table.wall_ms = wall_ms;
  table.rows = {{"serve.score", score_ms},
                {"serve.conformal", conformal_ms},
                {"monitor.observe (incl. lock wait)", observe_ms},
                {"unattributed", wall_ms - score_ms - conformal_ms -
                                     observe_ms}};
  return table;
}

/// Checks every served vector against an in-process Pipeline::Score of
/// the same matrix under a quantile published before the response
/// completed (the never-tear guarantee). Returns the number of mismatches.
int64_t VerifyResponses(const std::vector<Response*>& served,
                        const ServeSetup& s, const RunConfig& config,
                        const std::vector<std::pair<int64_t, double>>& published,
                        std::vector<double>* reference_ms, Result* result) {
  using namespace roicl;
  const int workers = std::max(1, config.threads);
  std::vector<std::unique_ptr<pipeline::Pipeline>> refs;
  for (int w = 0; w < workers; ++w) {
    refs.push_back(LoadPipeline(s.fixture->artifact, result));
    if (refs.back() == nullptr) return static_cast<int64_t>(served.size());
    refs.back()->set_batch_options({256, 1});
  }
  auto latest_before = [&](int64_t done_ns) {
    size_t k = 0;
    while (k + 1 < published.size() && published[k + 1].first <= done_ns) {
      ++k;
    }
    return k;
  };
  // Reference vectors keyed by (pool matrix, published index); the most
  // likely key of every response is computed up front in parallel.
  std::map<std::pair<int, size_t>, std::vector<double>> cache;
  for (const Response* r : served) {
    cache[{r->pool, latest_before(r->done_ns)}];
  }
  std::vector<std::pair<int, size_t>> keys;
  for (const auto& entry : cache) keys.push_back(entry.first);
  std::vector<std::vector<double>> values(keys.size());
  std::vector<std::vector<double>> worker_ms(static_cast<size_t>(workers));
  std::atomic<size_t> next{0};
  auto score = [&](pipeline::Pipeline* ref, int pool, size_t k,
                   std::vector<double>* out, std::vector<double>* ms) {
    if (!ref->SetConformalQuantile(published[k].second).ok()) return;
    const Clock::time_point start = Clock::now();
    StatusOr<std::vector<double>> scores =
        ref->Score(s.pool[static_cast<size_t>(pool)]);
    ms->push_back(MillisSince(start));
    if (scores.ok()) *out = std::move(scores).value();
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      for (size_t i = next++; i < keys.size(); i = next++) {
        score(refs[static_cast<size_t>(w)].get(), keys[i].first,
              keys[i].second, &values[i],
              &worker_ms[static_cast<size_t>(w)]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < keys.size(); ++i) cache[keys[i]] = values[i];
  for (const std::vector<double>& ms : worker_ms) {
    reference_ms->insert(reference_ms->end(), ms.begin(), ms.end());
  }

  int64_t mismatches = 0;
  for (const Response* r : served) {
    bool matched = false;
    // A request scored before a swap can complete after it: walk back
    // through the earlier quantiles.
    for (size_t k = latest_before(r->done_ns) + 1; k-- > 0 && !matched;) {
      auto it = cache.find({r->pool, k});
      if (it == cache.end()) {
        std::vector<double> scores;
        std::vector<double> unused_ms;
        score(refs[0].get(), r->pool, k, &scores, &unused_ms);
        it = cache.emplace(std::make_pair(r->pool, k), std::move(scores))
                 .first;
      }
      matched = SameBits(r->scores, it->second);
    }
    if (!matched) ++mismatches;
  }
  return mismatches;
}

}  // namespace

Result RunServeMixed(const RunConfig& config) {
  using namespace roicl;
  Result result;
  std::unique_ptr<ServeSetup> s;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::string previous = s ? s->fixture->artifact : "";
    s.reset();
    const Clock::time_point start = Clock::now();
    s = BuildServeSetup(config, &result);
    if (s == nullptr) return result;
    setup_s.push_back(SecondsSince(start));
    if (!previous.empty() && previous != s->fixture->artifact) {
      result.Fail("fixture artifact differs between set-ups");
    }
  }
  Shared& shared = *s->shared;

  // Warm-up, untimed: every pool matrix once, sequentially.
  for (int i = 0; i < kWarmupRequests; ++i) {
    StatusOr<std::vector<double>> warm =
        s->service->Score(s->pool[static_cast<size_t>(i % kPoolMatrices)]);
    if (!warm.ok()) {
      result.Fail("warm-up request: " + warm.status().ToString());
      return result;
    }
  }
  obs::MetricsRegistry::Global().Reset();
  obs::Counter* tasks =
      obs::MetricsRegistry::Global().GetCounter("threadpool.tasks");

  // Feedback writer, on a fixed cadence through both phases.
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stop = false;
  std::vector<double> add_ms, recal_us;
  int64_t feedback_attempted = 0, feedback_failed = 0;
  std::string feedback_error;
  std::thread feedback([&] {
    Clock::time_point next =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kFeedbackPeriodS));
    std::unique_lock<std::mutex> lock(stop_mu);
    for (int batch = 0; !stop_cv.wait_until(lock, next, [&] { return stop; });
         ++batch) {
      lock.unlock();
      std::vector<int> rows(kFeedbackRows);
      for (int r = 0; r < kFeedbackRows; ++r) {
        rows[static_cast<size_t>(r)] =
            (batch % kFeedbackBatches) * kFeedbackRows + r;
      }
      RctDataset outcomes = s->feedback.Subset(rows);
      ++feedback_attempted;
      Status added;
      {
        ScopedSpan span("monitor.add_outcomes");
        const Clock::time_point start = Clock::now();
        added = s->monitor->AddOutcomes(outcomes);
        add_ms.push_back(MillisSince(start));
      }
      StatusOr<monitor::RecalibrationResult> recalibrated =
          Status::Internal("not run");
      {
        ScopedSpan span("monitor.recalibrate");
        const Clock::time_point start = Clock::now();
        recalibrated = s->monitor->MaybeRecalibrate(/*force=*/true);
        recal_us.push_back(1e3 * MillisSince(start));
      }
      if (!added.ok() || !recalibrated.ok()) {
        ++feedback_failed;
        feedback_error = !added.ok() ? added.ToString()
                                     : recalibrated.status().ToString();
      }
      next += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kFeedbackPeriodS));
      lock.lock();
    }
  });

  const int steady_requests = std::max(
      1, static_cast<int>(kSteadyRate * kSteadyShare * config.seconds));
  const int clients = std::max(1, config.threads);
  std::vector<double> gen_lag_ms;

  const uint64_t tasks_before = tasks->value();
  const double conformal_before =
      HistogramSumCount("serve.stage.conformal_us").first;
  shared.phase.store(kSteady);
  SpanLog::Global().SetEnabled(config.trace);
  const Clock::time_point steady_start = Clock::now();
  std::vector<Response> steady;
  {
    ScopedSpan span("serve.steady");
    steady = RunSteady(*s, config, steady_requests, &gen_lag_ms);
  }
  const double steady_wall_ms = MillisSince(steady_start);
  const double saturate_s = std::max(
      0.25 * (1.0 - kSteadyShare) * config.seconds,
      config.seconds - steady_wall_ms / 1e3);
  SpanLog::Global().SetEnabled(false);
  const double conformal_mid =
      HistogramSumCount("serve.stage.conformal_us").first;

  shared.phase.store(kSaturate);
  std::vector<int64_t> edges;
  const Clock::time_point saturate_start = Clock::now();
  std::vector<Response> saturate =
      RunSaturate(*s, config, saturate_s, clients, &edges);
  const double saturate_wall_ms = MillisSince(saturate_start);
  const double conformal_after =
      HistogramSumCount("serve.stage.conformal_us").first;
  const uint64_t tasks_used = tasks->value() - tasks_before;

  {
    std::lock_guard<std::mutex> lock(stop_mu);
    stop = true;
  }
  stop_cv.notify_one();
  feedback.join();

  // Failure accounting: every request, plus every feedback cycle.
  int64_t rejected = 0, deadline = 0, errors = 0;
  std::vector<Response*> served;
  for (std::vector<Response>* phase : {&steady, &saturate}) {
    for (Response& r : *phase) {
      ++result.attempted;
      if (r.ok) {
        served.push_back(&r);
      } else if (r.error.find("queue full") != std::string::npos) {
        ++rejected;
      } else if (r.error.find("deadline exceeded") != std::string::npos) {
        ++deadline;
      } else {
        ++errors;
      }
    }
  }
  result.attempted += feedback_attempted;
  result.failed = rejected + deadline + errors + feedback_failed;
  if (feedback_failed > 0) result.Fail("feedback cycle: " + feedback_error);
  if (errors > 0) result.Fail(std::to_string(errors) + " request errors");

  std::vector<std::pair<int64_t, double>> published;
  {
    std::lock_guard<std::mutex> lock(shared.mu);
    published = shared.published;
  }
  std::vector<double> reference_ms;
  const int64_t mismatches =
      VerifyResponses(served, *s, config, published, &reference_ms, &result);
  if (mismatches > 0) {
    result.failed += mismatches;
    result.Fail(std::to_string(mismatches) + " of " +
                std::to_string(served.size()) +
                " served vectors match no in-process Score under a "
                "published quantile");
  }

  // Campaign decision on the served scores: each pool row's latest steady
  // score, allocated greedily at 15% of all-in cost.
  std::vector<double> pool_scores(
      static_cast<size_t>(kPoolMatrices * kRequestRows), 0.0);
  std::vector<int64_t> latest(kPoolMatrices, -1);
  for (const Response& r : steady) {
    if (!r.ok || r.done_ns <= latest[static_cast<size_t>(r.pool)]) continue;
    latest[static_cast<size_t>(r.pool)] = r.done_ns;
    std::copy(r.scores.begin(), r.scores.end(),
              pool_scores.begin() + r.pool * kRequestRows);
  }
  if (std::count(latest.begin(), latest.end(), -1) > 0) {
    result.Fail("a pool matrix was never served in the steady phase");
  }
  const std::vector<double>& costs = s->pool_data.true_tau_c;
  alloc::VectorRowSource source(pool_scores, costs, 65536);
  Clock::time_point alloc_start = Clock::now();
  StatusOr<double> total = alloc::StreamingTotalCost(&source);
  const double total_cost_ms = MillisSince(alloc_start);
  if (!total.ok()) {
    result.Fail("total cost: " + total.status().ToString());
    return result;
  }
  const double budget = kBudgetFraction * total.value();
  alloc_start = Clock::now();
  StatusOr<alloc::StreamingResult> allocated =
      alloc::StreamingAllocate(&source, budget, alloc::StreamingOptions());
  const double greedy_ms = MillisSince(alloc_start);
  if (!allocated.ok()) {
    result.Fail("allocate: " + allocated.status().ToString());
    return result;
  }
  const alloc::StreamingResult& allocation = allocated.value();
  core::AllocationResult reference =
      core::GreedyAllocate(pool_scores, costs, budget, false);
  bool same = allocation.selected.size() == reference.selected.size() &&
              allocation.spent == reference.spent &&
              allocation.spent <= budget;
  for (size_t i = 0; same && i < reference.selected.size(); ++i) {
    same = allocation.selected[i] == reference.selected[i];
  }
  if (!same) result.Fail("served-score allocation differs from GreedyAllocate");
  double revenue = 0.0;
  for (int64_t i : allocation.selected) {
    revenue += s->pool_data.true_tau_r[static_cast<size_t>(i)];
  }

  std::vector<double> latency_ms;
  for (const Response& r : steady) {
    latency_ms.push_back(r.ok ? static_cast<double>(r.done_ns - r.due_ns) / 1e6
                              : std::numeric_limits<double>::infinity());
  }
  result.E2e("setup_s", Median(setup_s), "s");
  result.E2e("rows_per_s",
             MedianChunkRate(saturate, edges.front(), edges.back()),
             "rows/s");
  // The open-loop latencies are per-layer metrics: on a shared host they
  // swing with the host's speed far beyond any bound a gate could use.
  result.Layer("serve.latency_p50_ms", Median(latency_ms), "ms");
  std::string tail_note = "serve_mixed steady serve.latency_p99_ms: ";
  result.Layer("serve.latency_p99_ms", TailQuantile(latency_ms, &tail_note),
               "ms");
  result.Note(tail_note);
  result.E2e("alloc_peak_mib",
             static_cast<double>(allocation.peak_memory_bytes) /
                 (1024.0 * 1024.0),
             "MiB");
  result.E2e("reward_per_cost", revenue / allocation.spent, "ratio");
  result.Note("serve_mixed: steady " + std::to_string(steady.size()) +
              " requests at " + std::to_string(static_cast<int>(kSteadyRate)) +
              " req/s, saturate " + std::to_string(saturate.size()) +
              " requests from " + std::to_string(clients) + " clients, " +
              std::to_string(published.size() - 1) + " quantile swaps, " +
              std::to_string(served.size()) + " vectors verified");

  if (config.trace) {
    std::lock_guard<std::mutex> lock(shared.mu);
    result.Layer("serve.queue_us_p50", Median(shared.queue_us[kSteady]), "us");
    result.Layer("serve.queue_us_p99",
                 Quantile(shared.queue_us[kSteady], 0.99), "us");
    result.Layer("serve.score_us_p50", Median(shared.score_us[kSteady]), "us");
    result.Layer("serve.score_us_p99",
                 Quantile(shared.score_us[kSteady], 0.99), "us");
    std::pair<double, double> occupancy =
        HistogramSumCount("serve.batch_occupancy");
    result.Layer("serve.occupancy_mean",
                 occupancy.second > 0 ? occupancy.first / occupancy.second
                                      : 0.0,
                 "requests");
    std::pair<double, double> conformal =
        HistogramSumCount("serve.stage.conformal_us");
    result.Layer("serve.conformal_us_p50",
                 HistogramMedian("serve.stage.conformal_us"), "us");
    result.Layer("serve.conformal_us_mean",
                 conformal.second > 0 ? conformal.first / conformal.second
                                      : 0.0,
                 "us");
    result.Layer("serve.rejected", static_cast<double>(rejected), "count");
    result.Layer("serve.deadline_exceeded", static_cast<double>(deadline),
                 "count");
    result.Layer("serve.errors", static_cast<double>(errors), "count");
    result.Layer("serve.gen_lag_p99_ms", Quantile(gen_lag_ms, 0.99), "ms");
    result.Layer("monitor.observe_us_p50", Median(shared.observe_us[kSteady]),
                 "us");
    result.Layer("monitor.observe_us_p99",
                 Quantile(shared.observe_us[kSteady], 0.99), "us");
    result.Layer("monitor.add_outcomes_ms", Median(add_ms), "ms");
    result.Layer("monitor.recalibrate_us", Median(recal_us), "us");
    result.Layer("monitor.coverage", s->monitor->coverage(), "share");
    result.Layer("pipeline.score_ms", Median(reference_ms), "ms");
    result.Layer("alloc.total_cost_ms", total_cost_ms, "ms");
    result.Layer("alloc.greedy_ms", greedy_ms, "ms");
    result.Layer("alloc.frontier_evictions",
                 static_cast<double>(allocation.frontier_evictions), "count");
    result.Layer("threadpool.tasks",
                 static_cast<double>(tasks_used) /
                     static_cast<double>(steady.size() + saturate.size()),
                 "count/op");
    std::vector<double> off_rates, on_rates;
    for (size_t w = 0; w + 1 < edges.size(); ++w) {
      (w % 2 == 0 ? off_rates : on_rates)
          .push_back(RowsPerSecond(saturate, edges[w], edges[w + 1]));
    }
    result.Layer("trace.overhead_frac",
                 Median(off_rates) / Median(on_rates) - 1.0, "frac");

    SelfTimeTable steady_table = DispatcherTable(
        "serve_mixed steady: dispatcher thread", steady_wall_ms,
        Sum(shared.score_us[kSteady]) / 1e3,
        (conformal_mid - conformal_before) / 1e3,
        Sum(shared.observe_us[kSteady]) / 1e3);
    result.Layer("trace.unattributed_frac",
                 steady_table.rows.back().ms / steady_table.wall_ms, "frac");
    result.tables.push_back(steady_table);
    result.tables.push_back(DispatcherTable(
        "serve_mixed saturate: dispatcher thread", saturate_wall_ms,
        Sum(shared.score_us[kSaturate]) / 1e3,
        (conformal_after - conformal_mid) / 1e3,
        Sum(shared.observe_us[kSaturate]) / 1e3));
    SelfTimeTable feedback_table;
    feedback_table.title = "serve_mixed: feedback writer thread";
    feedback_table.wall_ms = steady_wall_ms + saturate_wall_ms;
    feedback_table.rows = {
        {"monitor.add_outcomes", Sum(add_ms)},
        {"monitor.recalibrate", Sum(recal_us) / 1e3},
        {"unattributed", feedback_table.wall_ms - Sum(add_ms) -
                             Sum(recal_us) / 1e3}};
    result.tables.push_back(feedback_table);
  }
  if (config.trace) {
    s->fixture->pipeline = LoadPipeline(s->fixture->artifact, &result);
    if (s->fixture->pipeline != nullptr) {
      s->fixture->pipeline->set_batch_options({256, config.threads});
      SpanLog::Global().SetEnabled(true);
      RunModelProbes(config, *s->fixture, s->pool_data,
                     /*with_intervals=*/true, &result);
      RunKernelProbes(&result);
      SpanLog::Global().SetEnabled(false);
    }
  }
  result.E2e("peak_rss_mib", PeakRssMib(), "MiB");
  return result;
}

}  // namespace perfbench
