#include "pipeline/service.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/math_util.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace roicl::pipeline {
namespace {

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

Status ValidateServiceOptions(
    const ServiceOptions& options,
    const std::map<std::string, std::string>& names) {
  RangeCheck require(names);
  require("max_batch_requests", options.max_batch_requests,
          options.max_batch_requests >= 1, ">= 1");
  require("max_queue", options.max_queue, options.max_queue >= 1, ">= 1");
  require("default_deadline_micros",
          static_cast<double>(options.default_deadline_micros),
          options.default_deadline_micros >= 0, ">= 0");
  require("exemplar_rate", options.exemplar_rate,
          options.exemplar_rate >= 0.0 && options.exemplar_rate <= 1.0,
          "in [0, 1]");
  require("shadow_interval_every", options.shadow_interval_every,
          options.shadow_interval_every >= 0, ">= 0");
  return require.status();
}

ScoringService::ScoringService(Pipeline pipeline, ServiceOptions options)
    : pipeline_(std::move(pipeline)),
      options_(std::move(options)),
      shadow_armed_(options_.shadow_interval_every > 0 &&
                    pipeline_.has_conformal_quantile()) {
  const Status valid = ValidateServiceOptions(options_);
  ROICL_CHECK_MSG(valid.ok(), "%s", valid.message().c_str());
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

void ScoringService::Loop() {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  obs::Counter* requests = metrics.GetCounter("serve.requests");
  obs::Counter* deadline_exceeded =
      metrics.GetCounter("serve.deadline_exceeded");
  obs::Counter* errors = metrics.GetCounter("serve.errors");
  obs::Gauge* queue_depth = metrics.GetGauge("serve.queue_depth");
  obs::Histogram* occupancy = metrics.GetHistogram("serve.batch_occupancy");
  obs::Histogram* latency = metrics.GetHistogram("serve.latency_micros");
  obs::Histogram* stage_queue = metrics.GetHistogram("serve.stage.queue_us");
  obs::Histogram* stage_assemble =
      metrics.GetHistogram("serve.stage.assemble_us");
  obs::Histogram* stage_score = metrics.GetHistogram("serve.stage.score_us");
  obs::Histogram* stage_conformal =
      metrics.GetHistogram("serve.stage.conformal_us");
  obs::Histogram* stage_observe =
      metrics.GetHistogram("serve.stage.observe_us");
  obs::Gauge* interval_width = metrics.GetGauge("serve.interval_width");
  obs::TraceCollector& collector = obs::TraceCollector::Global();
  const ExemplarSampler sampler{options_.exemplar_seed,
                                options_.exemplar_rate};
  uint64_t shadow_tick = 0;  // shadow conformal-interval cadence

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
      // A shadowed request is scored with one PredictRdrp, so its
      // intervals come from the same sweep and q_hat as its response.
      const bool shadow =
          shadow_armed_ &&
          ++shadow_tick %
                  static_cast<uint64_t>(options_.shadow_interval_every) ==
              0;
      std::optional<core::RdrpPrediction> prediction;
      StatusOr<std::vector<double>> result =
          [&]() -> StatusOr<std::vector<double>> {
        obs::ScopedSpan score_span("serve.score", trace_tag);
        if (!shadow) return pipeline_.Score(request.x);
        StatusOr<core::RdrpPrediction> predicted =
            pipeline_.PredictRdrp(request.x);
        if (!predicted.ok()) return predicted.status();
        prediction = std::move(predicted).value();
        // The intervals read roi_hat, r_hat and q_hat; roi is the response.
        return std::move(prediction->roi);
      }();
      const uint64_t scored = obs::MonotonicMicros();
      const uint64_t score_us = scored - dequeued;
      ObserveStage(stage_score, static_cast<double>(score_us), sampled,
                   request.trace_id);
      if (!result.ok()) {
        errors->Increment();
      } else {
        if (prediction.has_value()) {
          obs::ScopedSpan conformal_span("serve.conformal", trace_tag);
          StatusOr<std::vector<metrics::Interval>> intervals =
              pipeline_.Intervals(request.x, *prediction);
          if (intervals.ok() && !intervals.value().empty()) {
            double width_sum = 0.0;
            for (const metrics::Interval& iv : intervals.value()) {
              width_sum += iv.width();
            }
            interval_width->Set(
                width_sum / static_cast<double>(intervals.value().size()));
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
