#ifndef ROICL_OBS_METRICS_H_
#define ROICL_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/annotated_mutex.h"
#include "obs/metric_catalogue.h"

/// \file
/// Process-wide metrics registry: named counters, gauges, and fixed-bucket
/// histograms. The hot path (Increment / Set / Observe) is lock-free
/// `std::atomic` arithmetic; only registration (name -> instrument lookup)
/// takes a mutex, so call sites cache the returned pointer in a
/// function-local static. Instrument pointers remain valid for the
/// lifetime of the registry.
///
/// `SnapshotJson()` exports everything as one JSON object; the CLI's
/// `--metrics-out` writes it to a file on exit. Instrument names come from
/// the catalogue in metric_catalogue.h.

namespace roicl::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-value-wins double (e.g. current loss, queue depth).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// One retained exemplar: a sampled observation that carries the trace ID
/// of the request that produced it, so a slow histogram bucket can be
/// chased back to a complete per-request flow in the exported trace.
struct Exemplar {
  double value = 0.0;
  uint64_t trace_id = 0;
  bool valid = false;
};

/// Fixed-bucket histogram. Bucket `i` counts observations
/// `v <= upper_bounds[i]`; one implicit overflow bucket catches the rest.
/// Observe() is two relaxed atomic adds plus a CAS loop for the sum.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  void Observe(double v);

  /// Observe() plus an exemplar offer: the bucket `v` lands in retains
  /// the largest (value, trace_id) pair offered so far. Max-keeping (not
  /// last-write-wins) makes the retained exemplar independent of thread
  /// interleaving: given deterministic values and a deterministic sampled
  /// set of trace IDs, the final exemplars are identical at any thread
  /// count. Callers decide *whether* to offer (see the counter-RNG
  /// sampling in pipeline::ExemplarSampler); the slot mutex is only
  /// touched on the sampled path.
  void ObserveWithExemplar(double v, uint64_t trace_id)
      ROICL_EXCLUDES(exemplar_mu_);

  /// Per-bucket exemplar slots (size upper_bounds().size() + 1, overflow
  /// last); entries with valid == false have retained nothing.
  std::vector<Exemplar> Exemplars() const ROICL_EXCLUDES(exemplar_mu_);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size == upper_bounds().size() + 1,
  /// the last entry being the overflow bucket.
  std::vector<uint64_t> BucketCounts() const;

  /// Approximate quantile (`q` in [0, 1]) reconstructed from the bucket
  /// counts by linear interpolation within the bucket holding the target
  /// rank (0 is the floor of the first bucket, the last finite bound
  /// caps the overflow bucket). Exact-ish: the error is bounded by the
  /// bucket width around the quantile. NaN when the histogram is empty —
  /// SnapshotJson renders that as null.
  double ApproxQuantile(double q) const;

  void Reset() ROICL_EXCLUDES(exemplar_mu_);

 private:
  size_t BucketIndex(double v) const;

  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  mutable Mutex exemplar_mu_;
  /// One slot per bucket, overflow last. The vector itself is sized once in
  /// the constructor; the slots are what the mutex guards.
  std::vector<Exemplar> exemplars_ ROICL_GUARDED_BY(exemplar_mu_);
};

class MetricsRegistry {
 public:
  /// The process-wide registry used by all library instrumentation.
  static MetricsRegistry& Global();

  /// Finds or creates the named instrument. A string literal converts to
  /// the name type only when metric_catalogue.h lists it with that kind; a
  /// histogram is created with its name's bucket bounds.
  Counter* GetCounter(CounterName name) ROICL_EXCLUDES(mutex_);
  Gauge* GetGauge(GaugeName name) ROICL_EXCLUDES(mutex_);
  Histogram* GetHistogram(HistogramName name) ROICL_EXCLUDES(mutex_);

  /// {"counters":{...},"gauges":{...},"histograms":{name:
  ///   {"count":N,"sum":S,"bounds":[...],"counts":[...]}}}
  /// Non-finite gauge values are emitted as null to keep the JSON valid.
  std::string SnapshotJson() const ROICL_EXCLUDES(mutex_);
  /// Writes SnapshotJson() to `path`; false on I/O failure.
  bool WriteSnapshotJson(const std::string& path) const;

  /// Prometheus/OpenMetrics text exposition: counters and gauges as
  /// single samples, histograms as cumulative `_bucket{le=...}` series
  /// plus `_sum`/`_count`. Metric names are sanitized ('.' and '-' become
  /// '_'); retained exemplars ride along OpenMetrics-style
  /// (`... # {trace_id="17"} 9501`). The scrape-endpoint twin of
  /// SnapshotJson for dashboards that speak Prometheus.
  std::string PrometheusText() const ROICL_EXCLUDES(mutex_);
  /// Writes PrometheusText() to `path`; false on I/O failure.
  bool WritePrometheusText(const std::string& path) const;

  /// Zeroes every registered instrument (registration survives).
  /// For tests and benchmark repetitions.
  void Reset() ROICL_EXCLUDES(mutex_);

  void ForEachCounter(
      const std::function<void(const std::string&, uint64_t)>& fn) const
      ROICL_EXCLUDES(mutex_);
  void ForEachGauge(
      const std::function<void(const std::string&, double)>& fn) const
      ROICL_EXCLUDES(mutex_);
  void ForEachHistogram(
      const std::function<void(const std::string&, const Histogram&)>& fn)
      const ROICL_EXCLUDES(mutex_);

 private:
  /// Guards registration only; instrument updates are lock-free atomics on
  /// the pointers handed out. Acquired before any Histogram::exemplar_mu_
  /// (SnapshotJson/PrometheusText read exemplars under the registry lock).
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      ROICL_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      ROICL_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      ROICL_GUARDED_BY(mutex_);
};

/// Registers every catalogue instrument in the global registry, so a
/// snapshot carries the full schema (untouched instruments read zero).
void PreregisterStandardMetrics();

}  // namespace roicl::obs

#endif  // ROICL_OBS_METRICS_H_
