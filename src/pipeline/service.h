#ifndef ROICL_PIPELINE_SERVICE_H_
#define ROICL_PIPELINE_SERVICE_H_

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/annotated_mutex.h"
#include "common/rng.h"
#include "common/status.h"
#include "nn/batch_forward.h"
#include "pipeline/pipeline.h"

namespace roicl::pipeline {

/// Request-scoped context handed to the on_scored hook: the trace ID
/// minted at Submit (the flow id binding this request's spans across the
/// client and dispatcher thread tracks) plus the stage timings measured
/// for this request. Consumers that export per-request data (the serving
/// monitor, load-replay) carry the trace ID along so every downstream
/// artifact resolves back to one flow in the exported trace.
struct ServeContext {
  uint64_t trace_id = 0;
  uint64_t queue_us = 0;   ///< Submit -> dequeue on the dispatcher.
  uint64_t score_us = 0;   ///< scorer compute for this request.
  bool exemplar = false;   ///< request was exemplar-sampled.
};

/// Deterministic exemplar sampling: a request is sampled iff
/// `MakeCounterRng(seed, trace_id).Uniform() < rate`. Keying the
/// counter-RNG on the trace ID (not on call order or a shared stream)
/// makes the sampled *set* of requests a pure function of (seed, rate,
/// trace IDs) — identical at any thread count or interleaving, which is
/// what lets the exemplar-determinism test assert exact trace IDs.
struct ExemplarSampler {
  uint64_t seed = 0;
  double rate = 0.0;
  bool Sample(uint64_t trace_id) const {
    return rate > 0.0 && MakeCounterRng(seed, trace_id).Uniform() < rate;
  }
};

/// Knobs for a long-lived scoring service.
struct ServiceOptions {
  /// Engine options applied to the pipeline's scorer (row-block size,
  /// thread count for the batched prediction engine). Throughput only.
  nn::BatchOptions engine;
  /// Max requests drained per dispatch cycle (micro-batch bound); >= 1.
  int max_batch_requests = 32;
  /// Requests queued beyond this are rejected immediately; >= 1.
  int max_queue = 1024;
  /// Deadline applied to requests that don't carry their own; 0 = none.
  /// A request still queued when its deadline passes fails with
  /// FailedPrecondition instead of occupying the engine.
  int64_t default_deadline_micros = 0;
  /// Exemplar sampling for the serve.stage.* histograms: requests whose
  /// counter-RNG draw lands under `exemplar_rate` attach their trace ID
  /// to the stage latency buckets they land in (see ExemplarSampler).
  uint64_t exemplar_seed = 17;
  double exemplar_rate = 0.05;
  /// Shadow conformal-interval stage: every Nth request to an rDRP
  /// pipeline is scored with one Pipeline::PredictRdrp, and the intervals
  /// of that same prediction (same sweep, same q_hat snapshot as the
  /// response) publish their mean width to the serve.interval_width
  /// gauge. serve.stage.conformal_us times only the interval shaping; the
  /// sweep stays in serve.stage.score_us. 0, or a pipeline without a
  /// conformal quantile, disables it. The response API is unchanged —
  /// this surfaces width drift without making every request pay for it.
  int shadow_interval_every = 0;
  /// Called on the dispatcher thread after every successfully scored
  /// request, with the request's context (trace ID, stage timings), its
  /// features, and the produced scores. The hook the serving monitor
  /// hangs its drift detector on; it runs inline, so a slow callback
  /// backpressures the queue by design.
  std::function<void(const ServeContext& ctx, const Matrix& x,
                     const std::vector<double>& scores)>
      on_scored;
};

/// Range-checks the knobs the dispatcher would otherwise spin or reject
/// everything on, or that would silently mean nothing: max_batch_requests
/// >= 1, max_queue >= 1, default_deadline_micros >= 0, exemplar_rate in
/// [0, 1] (NaN fails) and shadow_interval_every >= 0. InvalidArgument
/// names the first knob out of range by its field name, or by
/// `names[field]` where given (the CLI passes its flag names).
Status ValidateServiceOptions(
    const ServiceOptions& options,
    const std::map<std::string, std::string>& names = {});

/// Long-lived serving front end: loads a Pipeline once, then serves
/// Score(batch) requests from a single dispatcher thread that drains the
/// queue in micro-batches through the batched prediction engine.
///
/// Each request's matrix is scored independently — never concatenated
/// with other requests — because the MC-dropout RNG streams key on the
/// absolute row index within the scored matrix; concatenation would
/// change the bits for stochastic scorers. Micro-batching still
/// amortizes dispatcher wakeups, and each Score call fans out across the
/// thread pool internally.
///
/// Metrics (obs registry): serve.requests, serve.deadline_exceeded,
/// serve.errors, serve.invalid_rows counters; serve.queue_depth gauge;
/// serve.batch_occupancy and serve.latency_micros histograms (p99 via the
/// histogram buckets).
///
/// Observability v2: Submit mints a monotone trace ID per request and,
/// when tracing is enabled, opens a request flow (`"ph":"s"`) on the
/// client thread that the dispatcher steps ('t') and finishes ('f'),
/// stitching queue wait -> batch assembly -> scorer compute -> conformal
/// shadow -> monitor observe into one lane across threads. Per-stage
/// latencies land in serve.stage.{queue,assemble,score,conformal,
/// observe}_us histograms; exemplar-sampled requests (ExemplarSampler)
/// attach their trace ID to the buckets they land in.
class ScoringService {
 public:
  /// CHECKs ValidateServiceOptions(options).
  explicit ScoringService(Pipeline pipeline, ServiceOptions options = {});
  ~ScoringService();

  ScoringService(const ScoringService&) = delete;
  ScoringService& operator=(const ScoringService&) = delete;

  /// Enqueues a scoring request; the future resolves when the dispatcher
  /// has scored it (or rejected it: queue full, deadline exceeded).
  /// A request that fails Pipeline::CheckFeatures (wrong width, a
  /// non-finite feature) never reaches the queue: its future is already
  /// resolved with kInvalidArgument and its rows count in
  /// serve.invalid_rows. `deadline_micros` overrides the default; 0 falls
  /// back to options.default_deadline_micros.
  std::future<StatusOr<std::vector<double>>> Submit(
      Matrix x, int64_t deadline_micros = 0) ROICL_EXCLUDES(mu_);

  /// Blocking convenience: Submit and wait.
  StatusOr<std::vector<double>> Score(Matrix x,
                                      int64_t deadline_micros = 0);

  const Pipeline& pipeline() const { return pipeline_; }
  uint64_t requests_served() const ROICL_EXCLUDES(mu_);

  /// Atomically swaps the conformal quantile in the live pipeline — the
  /// online-recalibration entry point. Safe against in-flight Submit:
  /// the scorer's q_hat is an atomic loaded once per predict call, so a
  /// concurrent request sees either the old or the new quantile, never a
  /// torn mix. Fails when the scorer carries no conformal quantile.
  Status SetConformalQuantile(double q_hat) {
    return pipeline_.SetConformalQuantile(q_hat);
  }

 private:
  struct Request {
    Matrix x;
    uint64_t trace_id = 0;
    uint64_t enqueue_micros = 0;
    int64_t deadline_micros = 0;
    std::promise<StatusOr<std::vector<double>>> promise;
  };

  void Loop() ROICL_EXCLUDES(mu_);

  Pipeline pipeline_;
  ServiceOptions options_;
  /// Whether the shadow conformal-interval stage runs: fixed at
  /// construction from the options and the pipeline's scorer.
  bool shadow_armed_ = false;

  mutable Mutex mu_;
  CondVar cv_;
  std::deque<Request> queue_ ROICL_GUARDED_BY(mu_);
  bool stopping_ ROICL_GUARDED_BY(mu_) = false;
  uint64_t served_ ROICL_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> next_trace_id_{1};
  std::thread dispatcher_;
};

}  // namespace roicl::pipeline

#endif  // ROICL_PIPELINE_SERVICE_H_
