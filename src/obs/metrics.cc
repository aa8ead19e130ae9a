#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "obs/log.h"

namespace roicl::obs {
namespace {

void AtomicAddDouble(std::atomic<double>* target, double delta) {
  double expected = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(expected, expected + delta,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  if (bounds_.empty()) bounds_.push_back(1.0);
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
  exemplars_.resize(bounds_.size() + 1);
}

size_t Histogram::BucketIndex(double v) const {
  return static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) -
      bounds_.begin());
}

void Histogram::Observe(double v) {
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, v);
}

void Histogram::ObserveWithExemplar(double v, uint64_t trace_id) {
  Observe(v);
  Exemplar offer{v, trace_id, true};
  MutexLock lock(exemplar_mu_);
  Exemplar& slot = exemplars_[BucketIndex(v)];
  // Keep the lexicographic max of (value, trace_id): deterministic under
  // any interleaving, and "slowest wins" within a bucket.
  if (!slot.valid || offer.value > slot.value ||
      (offer.value == slot.value && offer.trace_id > slot.trace_id)) {
    slot = offer;
  }
}

std::vector<Exemplar> Histogram::Exemplars() const {
  MutexLock lock(exemplar_mu_);
  return exemplars_;
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::ApproxQuantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return std::nan("");
  // Rank of the target observation (1-based ceil, like the "higher"
  // conformal convention at q = 1).
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] < rank) {
      seen += counts[i];
      continue;
    }
    // Bucket i holds the target rank. Interpolate within its bounds; the
    // overflow bucket has no upper bound, so report its lower edge (an
    // honest floor rather than an invented extrapolation).
    double lo = i == 0 ? 0.0 : bounds_[i - 1];
    if (i == bounds_.size()) return lo;
    double hi = bounds_[i];
    double frac = (static_cast<double>(rank - seen) - 0.5) /
                  static_cast<double>(counts[i]);
    return lo + frac * (hi - lo);
  }
  return bounds_.back();
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  MutexLock lock(exemplar_mu_);
  for (Exemplar& slot : exemplars_) slot = Exemplar{};
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry& registry = *new MetricsRegistry();
  return registry;
}

Counter* MetricsRegistry::GetCounter(CounterName name) {
  MutexLock lock(mutex_);
  auto it = counters_.find(name.name());
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name.name()), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(GaugeName name) {
  MutexLock lock(mutex_);
  auto it = gauges_.find(name.name());
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name.name()), std::make_unique<Gauge>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(HistogramName name) {
  MutexLock lock(mutex_);
  auto it = histograms_.find(name.name());
  if (it == histograms_.end()) {
    std::vector<double> bounds(name.bounds().begin(), name.bounds().end());
    it = histograms_
             .emplace(std::string(name.name()),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return it->second.get();
}

void PreregisterStandardMetrics() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  for (const MetricSpec& row : kStandardMetrics) {
    switch (row.kind) {
      case MetricKind::kCounter:
        registry.GetCounter(CounterName(row));
        break;
      case MetricKind::kGauge:
        registry.GetGauge(GaugeName(row));
        break;
      case MetricKind::kHistogram:
        registry.GetHistogram(HistogramName(row));
        break;
    }
  }
}

std::string MetricsRegistry::SnapshotJson() const {
  MutexLock lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\":";
    out += std::to_string(counter->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\":";
    out += JsonNumber(gauge->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\":{\"count\":";
    out += std::to_string(histogram->count());
    out += ",\"sum\":";
    out += JsonNumber(histogram->sum());
    out += ",\"bounds\":[";
    const std::vector<double>& bounds = histogram->upper_bounds();
    for (size_t i = 0; i < bounds.size(); ++i) {
      if (i > 0) out += ',';
      out += JsonNumber(bounds[i]);
    }
    out += "],\"counts\":[";
    std::vector<uint64_t> counts = histogram->BucketCounts();
    for (size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(counts[i]);
    }
    out += "],\"p50\":";
    out += JsonNumber(histogram->ApproxQuantile(0.50));
    out += ",\"p95\":";
    out += JsonNumber(histogram->ApproxQuantile(0.95));
    out += ",\"p99\":";
    out += JsonNumber(histogram->ApproxQuantile(0.99));
    std::vector<Exemplar> exemplars = histogram->Exemplars();
    bool any_valid = false;
    for (const Exemplar& e : exemplars) any_valid |= e.valid;
    if (any_valid) {
      out += ",\"exemplars\":[";
      bool first_exemplar = true;
      for (size_t i = 0; i < exemplars.size(); ++i) {
        if (!exemplars[i].valid) continue;
        if (!first_exemplar) out += ',';
        first_exemplar = false;
        out += "{\"bucket\":";
        out += std::to_string(i);
        out += ",\"value\":";
        out += JsonNumber(exemplars[i].value);
        out += ",\"trace_id\":";
        out += std::to_string(exemplars[i].trace_id);
        out += '}';
      }
      out += ']';
    }
    out += '}';
  }
  out += "}}";
  return out;
}

bool MetricsRegistry::WriteSnapshotJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << SnapshotJson() << '\n';
  return static_cast<bool>(out);
}

namespace {

std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

std::string PromNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return JsonNumber(v);
}

}  // namespace

std::string MetricsRegistry::PrometheusText() const {
  MutexLock lock(mutex_);
  std::string out;
  for (const auto& [name, counter] : counters_) {
    std::string prom = PromName(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(counter->value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    std::string prom = PromName(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " " + PromNumber(gauge->value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    std::string prom = PromName(name);
    out += "# TYPE " + prom + " histogram\n";
    const std::vector<double>& bounds = histogram->upper_bounds();
    std::vector<uint64_t> counts = histogram->BucketCounts();
    std::vector<Exemplar> exemplars = histogram->Exemplars();
    uint64_t cumulative = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      cumulative += counts[i];
      out += prom + "_bucket{le=\"";
      out += i < bounds.size() ? PromNumber(bounds[i]) : "+Inf";
      out += "\"} " + std::to_string(cumulative);
      if (i < exemplars.size() && exemplars[i].valid) {
        // OpenMetrics exemplar suffix: the slow sample's trace ID rides
        // along on the bucket it landed in.
        out += " # {trace_id=\"" +
               std::to_string(exemplars[i].trace_id) + "\"} " +
               PromNumber(exemplars[i].value);
      }
      out += '\n';
    }
    out += prom + "_sum " + PromNumber(histogram->sum()) + "\n";
    out += prom + "_count " + std::to_string(histogram->count()) + "\n";
  }
  return out;
}

bool MetricsRegistry::WritePrometheusText(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << PrometheusText();
  return static_cast<bool>(out);
}

void MetricsRegistry::Reset() {
  MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

void MetricsRegistry::ForEachCounter(
    const std::function<void(const std::string&, uint64_t)>& fn) const {
  MutexLock lock(mutex_);
  for (const auto& [name, counter] : counters_) fn(name, counter->value());
}

void MetricsRegistry::ForEachGauge(
    const std::function<void(const std::string&, double)>& fn) const {
  MutexLock lock(mutex_);
  for (const auto& [name, gauge] : gauges_) fn(name, gauge->value());
}

void MetricsRegistry::ForEachHistogram(
    const std::function<void(const std::string&, const Histogram&)>& fn)
    const {
  MutexLock lock(mutex_);
  for (const auto& [name, histogram] : histograms_) fn(name, *histogram);
}

}  // namespace roicl::obs
