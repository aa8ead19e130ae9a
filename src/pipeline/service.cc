#include "pipeline/service.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/math_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace roicl::pipeline {
namespace {

std::vector<double> OccupancyBuckets() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0};
}

/// Routes a stage latency into its histogram, attaching the request's
/// trace ID when the request was exemplar-sampled.
void ObserveStage(obs::Histogram* histogram, double value, bool sampled,
                  uint64_t trace_id) {
  if (sampled) {
    histogram->ObserveWithExemplar(value, trace_id);
  } else {
    histogram->Observe(value);
  }
}

std::string TraceTag(bool tracing, uint64_t trace_id) {
  return tracing ? "trace=" + std::to_string(trace_id) : std::string();
}

}  // namespace

ScoringService::ScoringService(Pipeline pipeline, ServiceOptions options)
    : pipeline_(std::move(pipeline)), options_(options) {
  pipeline_.set_batch_options(options_.engine);
  obs::Info("scoring service up",
            {{"scorer", pipeline_.scorer_name()},
             {"feature_dim", pipeline_.feature_dim()},
             {"max_batch_requests", options_.max_batch_requests},
             {"engine_threads", options_.engine.num_threads}});
  dispatcher_ = std::thread([this] { Loop(); });
}

ScoringService::~ScoringService() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.NotifyAll();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Fail anything still queued so no future is left dangling. The
  // dispatcher is gone, but the lock keeps the guarded-access discipline
  // uniform (the analysis does not check destructors; TSan does).
  MutexLock lock(mu_);
  for (Request& request : queue_) {
    request.promise.set_value(
        Status::FailedPrecondition("scoring service shut down"));
  }
}

std::future<StatusOr<std::vector<double>>> ScoringService::Submit(
    Matrix x, int64_t deadline_micros) {
  if (Status status = pipeline_.CheckFeatures(x); !status.ok()) {
    obs::MetricsRegistry::Global().GetCounter("serve.invalid_rows")
        ->Increment(static_cast<uint64_t>(x.rows()));
    std::promise<StatusOr<std::vector<double>>> rejected;
    rejected.set_value(std::move(status));
    return rejected.get_future();
  }
  Request request;
  request.x = std::move(x);
  request.trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  request.enqueue_micros = obs::MonotonicMicros();
  request.deadline_micros = deadline_micros > 0
                                ? deadline_micros
                                : options_.default_deadline_micros;
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  const bool tracing = collector.enabled();
  obs::ScopedSpan span("serve.submit",
                       TraceTag(tracing, request.trace_id));
  const uint64_t trace_id = request.trace_id;
  std::future<StatusOr<std::vector<double>>> future =
      request.promise.get_future();
  {
    MutexLock lock(mu_);
    if (stopping_) {
      request.promise.set_value(
          Status::FailedPrecondition("scoring service shut down"));
      return future;
    }
    if (static_cast<int>(queue_.size()) >= options_.max_queue) {
      obs::MetricsRegistry::Global().GetCounter("serve.rejected")
          ->Increment();
      request.promise.set_value(Status::FailedPrecondition(
          "scoring queue full (" + std::to_string(queue_.size()) +
          " requests)"));
      return future;
    }
    queue_.push_back(std::move(request));
    obs::MetricsRegistry::Global().GetGauge("serve.queue_depth")
        ->Set(static_cast<double>(queue_.size()));
  }
  // Flow start on the client thread, inside the submit span, only for
  // admitted requests — the dispatcher steps ('t') and finishes ('f')
  // the same flow id on its own track.
  if (tracing) collector.RecordFlowEvent("serve.request", 's', trace_id);
  cv_.NotifyOne();
  return future;
}

StatusOr<std::vector<double>> ScoringService::Score(
    Matrix x, int64_t deadline_micros) {
  return Submit(std::move(x), deadline_micros).get();
}

uint64_t ScoringService::requests_served() const {
  MutexLock lock(mu_);
  return served_;
}

Status ScoringService::SetConformalQuantile(double q_hat) {
  if (!pipeline_.has_conformal_quantile()) {
    return Status::FailedPrecondition(
        "served scorer '" + pipeline_.scorer_name() +
        "' carries no conformal quantile");
  }
  return pipeline_.SetConformalQuantile(q_hat);
}

void ScoringService::Loop() {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter* requests = metrics.GetCounter("serve.requests");
  obs::Counter* deadline_exceeded =
      metrics.GetCounter("serve.deadline_exceeded");
  obs::Counter* errors = metrics.GetCounter("serve.errors");
  obs::Gauge* queue_depth = metrics.GetGauge("serve.queue_depth");
  obs::Histogram* occupancy =
      metrics.GetHistogram("serve.batch_occupancy", OccupancyBuckets());
  obs::Histogram* latency = metrics.GetHistogram(
      "serve.latency_micros", obs::LatencyMicrosBuckets());
  obs::Histogram* stage_queue = metrics.GetHistogram(
      "serve.stage.queue_us", obs::LatencyMicrosBuckets());
  obs::Histogram* stage_assemble = metrics.GetHistogram(
      "serve.stage.assemble_us", obs::LatencyMicrosBuckets());
  obs::Histogram* stage_score = metrics.GetHistogram(
      "serve.stage.score_us", obs::LatencyMicrosBuckets());
  obs::Histogram* stage_conformal = metrics.GetHistogram(
      "serve.stage.conformal_us", obs::LatencyMicrosBuckets());
  obs::Histogram* stage_observe = metrics.GetHistogram(
      "serve.stage.observe_us", obs::LatencyMicrosBuckets());
  obs::Gauge* interval_width = metrics.GetGauge("serve.interval_width");
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  const ExemplarSampler sampler{options_.exemplar_seed,
                                options_.exemplar_rate};
  // Shadow conformal-interval cadence; disarmed permanently on the first
  // "scorer doesn't support intervals" error instead of failing per tick.
  uint64_t shadow_tick = 0;
  bool shadow_armed = options_.shadow_interval_every > 0;

  for (;;) {
    std::vector<Request> batch;
    uint64_t assemble_start = 0;
    {
      MutexLock lock(mu_);
      // Explicit while loop, not a predicate lambda: the analysis checks a
      // lambda as a separate function holding no capabilities, so the
      // guarded reads must stay in this provably-locked scope.
      while (!stopping_ && queue_.empty()) cv_.Wait(mu_);
      if (stopping_) return;
      assemble_start = obs::MonotonicMicros();
      int take = std::min<int>(options_.max_batch_requests,
                               static_cast<int>(queue_.size()));
      batch.reserve(AsSize(take));
      for (int i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      queue_depth->Set(static_cast<double>(queue_.size()));
    }
    const uint64_t assemble_us =
        obs::MonotonicMicros() - assemble_start;
    occupancy->Observe(static_cast<double>(batch.size()));

    // Score each request's matrix independently (see class comment: the
    // MC-dropout streams key on absolute row indices, so concatenating
    // requests would change stochastic scorers' bits). The engine still
    // parallelizes across each request's row blocks.
    for (Request& request : batch) {
      requests->Increment();
      const bool tracing = collector.enabled();
      const bool sampled = sampler.Sample(request.trace_id);
      const std::string trace_tag = TraceTag(tracing, request.trace_id);
      obs::ScopedSpan process_span("serve.process", trace_tag);
      if (tracing) {
        collector.RecordFlowEvent("serve.request", 't', request.trace_id);
      }
      const uint64_t dequeued = obs::MonotonicMicros();
      const uint64_t queue_us = dequeued - request.enqueue_micros;
      ObserveStage(stage_queue, static_cast<double>(queue_us), sampled,
                   request.trace_id);
      ObserveStage(stage_assemble, static_cast<double>(assemble_us),
                   sampled, request.trace_id);
      if (request.deadline_micros > 0 &&
          static_cast<int64_t>(queue_us) > request.deadline_micros) {
        deadline_exceeded->Increment();
        if (tracing) {
          collector.RecordFlowEvent("serve.request", 'f',
                                    request.trace_id);
        }
        request.promise.set_value(Status::FailedPrecondition(
            "deadline exceeded: waited " + std::to_string(queue_us) +
            "us, deadline " + std::to_string(request.deadline_micros) +
            "us"));
        continue;
      }
      StatusOr<std::vector<double>> result = [&] {
        obs::ScopedSpan score_span("serve.score", trace_tag);
        return pipeline_.Score(request.x);
      }();
      const uint64_t scored = obs::MonotonicMicros();
      const uint64_t score_us = scored - dequeued;
      ObserveStage(stage_score, static_cast<double>(score_us), sampled,
                   request.trace_id);
      if (!result.ok()) {
        errors->Increment();
      } else {
        if (shadow_armed &&
            ++shadow_tick %
                    static_cast<uint64_t>(options_.shadow_interval_every) ==
                0) {
          obs::ScopedSpan conformal_span("serve.conformal", trace_tag);
          StatusOr<std::vector<metrics::Interval>> intervals =
              pipeline_.ScoreIntervals(request.x);
          if (intervals.ok() && !intervals.value().empty()) {
            double width_sum = 0.0;
            for (const metrics::Interval& iv : intervals.value()) {
              width_sum += iv.width();
            }
            interval_width->Set(
                width_sum / static_cast<double>(intervals.value().size()));
          } else if (!intervals.ok()) {
            shadow_armed = false;
            obs::Warn("shadow interval stage disarmed",
                      {{"reason", intervals.status().message()}});
          }
          ObserveStage(stage_conformal,
                       static_cast<double>(obs::MonotonicMicros() - scored),
                       sampled, request.trace_id);
        }
        if (options_.on_scored) {
          obs::ScopedSpan observe_span("serve.observe", trace_tag);
          const uint64_t observe_start = obs::MonotonicMicros();
          ServeContext ctx;
          ctx.trace_id = request.trace_id;
          ctx.queue_us = queue_us;
          ctx.score_us = score_us;
          ctx.exemplar = sampled;
          options_.on_scored(ctx, request.x, result.value());
          ObserveStage(
              stage_observe,
              static_cast<double>(obs::MonotonicMicros() - observe_start),
              sampled, request.trace_id);
        }
      }
      ObserveStage(latency,
                   static_cast<double>(obs::MonotonicMicros() -
                                       request.enqueue_micros),
                   sampled, request.trace_id);
      if (tracing) {
        collector.RecordFlowEvent("serve.request", 'f', request.trace_id);
      }
      // Count before fulfilling the promise: a client that has observed
      // its future resolve must already be visible in requests_served().
      {
        MutexLock lock(mu_);
        ++served_;
      }
      request.promise.set_value(std::move(result));
    }
  }
}

}  // namespace roicl::pipeline
