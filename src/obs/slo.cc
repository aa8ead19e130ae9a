#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/log.h"
#include "obs/metrics.h"

namespace roicl::obs {
namespace {

bool ParseDouble(std::string_view text, double* out) {
  try {
    size_t consumed = 0;
    *out = std::stod(std::string(text), &consumed);
    return consumed == text.size();
  } catch (...) {
    return false;
  }
}

bool ParseSize(std::string_view text, size_t* out) {
  double v = 0.0;
  if (!ParseDouble(text, &v)) return false;
  if (v < 0.0 || v != std::floor(v) || v > 1e9) return false;
  *out = static_cast<size_t>(v);
  return true;
}

bool ParseKind(std::string_view text, SloKind* out) {
  if (text == "p99_latency_us") {
    *out = SloKind::kP99LatencyUs;
  } else if (text == "reject_rate") {
    *out = SloKind::kRejectRate;
  } else if (text == "coverage_floor") {
    *out = SloKind::kCoverageFloor;
  } else if (text == "drift_alert_budget") {
    *out = SloKind::kDriftAlertBudget;
  } else {
    return false;
  }
  return true;
}

/// Error budget (allowed bad fraction) implied by kind + target; negative
/// when the target is out of range for the kind.
double BudgetFor(SloKind kind, double target) {
  switch (kind) {
    case SloKind::kP99LatencyUs:
      // "99% of requests under `target` us": the budget is the 1% tail.
      return target > 0.0 ? 0.01 : -1.0;
    case SloKind::kRejectRate:
    case SloKind::kDriftAlertBudget:
      return target > 0.0 && target < 1.0 ? target : -1.0;
    case SloKind::kCoverageFloor:
      return target > 0.0 && target < 1.0 ? 1.0 - target : -1.0;
  }
  return -1.0;
}

}  // namespace

std::string_view SloKindName(SloKind kind) {
  switch (kind) {
    case SloKind::kP99LatencyUs:
      return "p99_latency_us";
    case SloKind::kRejectRate:
      return "reject_rate";
    case SloKind::kCoverageFloor:
      return "coverage_floor";
    case SloKind::kDriftAlertBudget:
      return "drift_alert_budget";
  }
  return "unknown";
}

std::string_view SloStateName(SloState state) {
  switch (state) {
    case SloState::kOk:
      return "OK";
    case SloState::kWarn:
      return "WARN";
    case SloState::kBreach:
      return "BREACH";
  }
  return "unknown";
}

bool ParseSloSpecs(std::string_view text, std::vector<SloSpec>* specs,
                   std::string* error) {
  std::vector<SloSpec> parsed;
  std::istringstream lines{std::string(text)};
  std::string line;
  size_t line_number = 0;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_number) + ": " + message;
    }
    return false;
  };
  while (std::getline(lines, line)) {
    ++line_number;
    std::istringstream tokens(line);
    std::string token;
    if (!(tokens >> token) || token[0] == '#') continue;
    if (token != "slo") return fail("expected 'slo', got '" + token + "'");
    SloSpec spec;
    if (!(tokens >> spec.name) || spec.name[0] == '#') {
      return fail("missing slo name");
    }
    for (const SloSpec& existing : parsed) {
      if (existing.name == spec.name) {
        return fail("duplicate slo name '" + spec.name + "'");
      }
    }
    bool have_kind = false;
    bool have_target = false;
    while (tokens >> token) {
      if (token[0] == '#') break;
      size_t eq = token.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
        return fail("expected key=value, got '" + token + "'");
      }
      std::string key = token.substr(0, eq);
      std::string value = token.substr(eq + 1);
      bool ok = true;
      if (key == "kind") {
        ok = ParseKind(value, &spec.kind);
        have_kind = ok;
      } else if (key == "target") {
        ok = ParseDouble(value, &spec.target);
        have_target = ok;
      } else if (key == "short_window") {
        ok = ParseSize(value, &spec.short_window);
      } else if (key == "long_window") {
        ok = ParseSize(value, &spec.long_window);
      } else if (key == "warn_burn") {
        ok = ParseDouble(value, &spec.warn_burn);
      } else if (key == "breach_burn") {
        ok = ParseDouble(value, &spec.breach_burn);
      } else {
        return fail("unknown key '" + key + "'");
      }
      if (!ok) return fail("bad value for '" + key + "': '" + value + "'");
    }
    if (!have_kind) return fail("slo '" + spec.name + "' is missing kind=");
    if (!have_target) {
      return fail("slo '" + spec.name + "' is missing target=");
    }
    if (BudgetFor(spec.kind, spec.target) <= 0.0) {
      return fail("slo '" + spec.name + "': target " +
                  JsonNumber(spec.target) + " is out of range for kind " +
                  std::string(SloKindName(spec.kind)));
    }
    if (spec.short_window < 1) {
      return fail("slo '" + spec.name + "': short_window must be >= 1");
    }
    if (spec.long_window <= spec.short_window) {
      return fail("slo '" + spec.name +
                  "': long_window must exceed short_window");
    }
    if (spec.warn_burn <= 0.0 || spec.breach_burn < spec.warn_burn) {
      return fail("slo '" + spec.name +
                  "': need 0 < warn_burn <= breach_burn");
    }
    parsed.push_back(std::move(spec));
  }
  if (parsed.empty()) {
    line_number = 0;
    return fail("no slo records found");
  }
  *specs = std::move(parsed);
  return true;
}

bool LoadSloSpecs(const std::string& path, std::vector<SloSpec>* specs,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open '" + path + "'";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseSloSpecs(text.str(), specs, error);
}

SloEngine::SloEngine(std::vector<SloSpec> specs) {
  trackers_.reserve(specs.size());
  for (SloSpec& spec : specs) {
    Tracker tracker;
    tracker.budget = BudgetFor(spec.kind, spec.target);
    tracker.spec = std::move(spec);
    trackers_.push_back(std::move(tracker));
  }
}

void SloEngine::RecordLatency(double latency_us) {
  MutexLock lock(mutex_);
  for (Tracker& tracker : trackers_) {
    if (tracker.spec.kind != SloKind::kP99LatencyUs) continue;
    tracker.events += 1;
    const bool bad = latency_us > tracker.spec.target;
    tracker.bad_events += bad ? 1 : 0;
    tracker.window.push_back(bad);
    if (tracker.window.size() > tracker.spec.long_window) {
      tracker.window.pop_front();
    }
    EvaluateLocked(&tracker);
  }
}

void SloEngine::RecordAdmission(bool admitted) {
  RecordKind(SloKind::kRejectRate, !admitted);
}

void SloEngine::RecordCoverage(bool covered) {
  RecordKind(SloKind::kCoverageFloor, !covered);
}

void SloEngine::RecordDriftWindow(bool triggered) {
  RecordKind(SloKind::kDriftAlertBudget, triggered);
}

void SloEngine::RecordKind(SloKind kind, bool bad) {
  MutexLock lock(mutex_);
  for (Tracker& tracker : trackers_) {
    if (tracker.spec.kind != kind) continue;
    tracker.events += 1;
    tracker.bad_events += bad ? 1 : 0;
    tracker.window.push_back(bad);
    if (tracker.window.size() > tracker.spec.long_window) {
      tracker.window.pop_front();
    }
    EvaluateLocked(&tracker);
  }
}

void SloEngine::EvaluateLocked(Tracker* tracker) {
  static Counter* events =
      MetricsRegistry::Global().GetCounter("slo.events");
  static Counter* warns =
      MetricsRegistry::Global().GetCounter("slo.warn_transitions");
  static Counter* breaches =
      MetricsRegistry::Global().GetCounter("slo.breach_transitions");
  static Gauge* worst = MetricsRegistry::Global().GetGauge("slo.worst_state");
  events->Increment();

  const SloSpec& spec = tracker->spec;
  const size_t total = tracker->window.size();
  size_t long_bad = 0;
  for (bool bad : tracker->window) long_bad += bad ? 1 : 0;
  const size_t short_n = std::min(total, spec.short_window);
  size_t short_bad = 0;
  for (size_t i = total - short_n; i < total; ++i) {
    short_bad += tracker->window[i] ? 1u : 0u;
  }
  tracker->long_burn = total == 0 ? 0.0
                                  : static_cast<double>(long_bad) /
                                        static_cast<double>(total) /
                                        tracker->budget;
  tracker->short_burn = short_n == 0 ? 0.0
                                     : static_cast<double>(short_bad) /
                                           static_cast<double>(short_n) /
                                           tracker->budget;

  // Until the short window has filled once, the burn estimate is too
  // noisy to alert on — a single bad first event would read as burn
  // 1/budget. Stay OK while warming up.
  SloState next = SloState::kOk;
  if (total >= spec.short_window) {
    if (tracker->short_burn >= spec.breach_burn &&
        tracker->long_burn >= spec.breach_burn) {
      next = SloState::kBreach;
    } else if (tracker->short_burn >= spec.warn_burn &&
               tracker->long_burn >= spec.warn_burn) {
      next = SloState::kWarn;
    }
  }
  if (next != tracker->state) {
    if (next == SloState::kWarn) warns->Increment();
    if (next == SloState::kBreach) breaches->Increment();
    tracker->state = next;
    if (static_cast<int>(next) > static_cast<int>(tracker->peak)) {
      tracker->peak = next;
    }
  }
  SloState worst_state = SloState::kOk;
  for (const Tracker& t : trackers_) {
    if (static_cast<int>(t.state) > static_cast<int>(worst_state)) {
      worst_state = t.state;
    }
  }
  worst->Set(static_cast<double>(worst_state));
}

SloState SloEngine::StateOf(std::string_view name) const {
  MutexLock lock(mutex_);
  for (const Tracker& tracker : trackers_) {
    if (tracker.spec.name == name) return tracker.state;
  }
  return SloState::kOk;
}

SloState SloEngine::WorstState() const {
  MutexLock lock(mutex_);
  SloState worst = SloState::kOk;
  for (const Tracker& tracker : trackers_) {
    if (static_cast<int>(tracker.state) > static_cast<int>(worst)) {
      worst = tracker.state;
    }
  }
  return worst;
}

SloState SloEngine::PeakWorstState() const {
  MutexLock lock(mutex_);
  SloState worst = SloState::kOk;
  for (const Tracker& tracker : trackers_) {
    if (static_cast<int>(tracker.peak) > static_cast<int>(worst)) {
      worst = tracker.peak;
    }
  }
  return worst;
}

std::string SloEngine::VerdictJson() const {
  MutexLock lock(mutex_);
  std::string out = "{\"slos\":[";
  SloState worst = SloState::kOk;
  SloState worst_peak = SloState::kOk;
  for (size_t i = 0; i < trackers_.size(); ++i) {
    const Tracker& tracker = trackers_[i];
    if (static_cast<int>(tracker.state) > static_cast<int>(worst)) {
      worst = tracker.state;
    }
    if (static_cast<int>(tracker.peak) > static_cast<int>(worst_peak)) {
      worst_peak = tracker.peak;
    }
    if (i > 0) out += ',';
    out += "{\"name\":\"";
    out += JsonEscape(tracker.spec.name);
    out += "\",\"kind\":\"";
    out += SloKindName(tracker.spec.kind);
    out += "\",\"target\":";
    out += JsonNumber(tracker.spec.target);
    out += ",\"state\":\"";
    out += SloStateName(tracker.state);
    out += "\",\"peak\":\"";
    out += SloStateName(tracker.peak);
    out += "\",\"short_burn\":";
    out += JsonNumber(tracker.short_burn);
    out += ",\"long_burn\":";
    out += JsonNumber(tracker.long_burn);
    out += ",\"events\":";
    out += std::to_string(tracker.events);
    out += ",\"bad_events\":";
    out += std::to_string(tracker.bad_events);
    out += '}';
  }
  out += "],\"worst\":\"";
  out += SloStateName(worst);
  out += "\",\"worst_peak\":\"";
  out += SloStateName(worst_peak);
  out += "\"}";
  return out;
}

}  // namespace roicl::obs
