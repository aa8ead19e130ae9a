// Tests for the declarative SLO engine (src/obs/slo.h): spec parsing and
// validation, multi-window burn-rate state transitions across window
// boundaries (warm-up, WARN, BREACH, recovery), per-kind routing, and the
// JSON verdict. Window arithmetic is event-count based, so every scenario
// here is exactly reproducible.

#include <algorithm>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/slo.h"

namespace roicl::obs {
namespace {

SloSpec MakeSpec(std::string name, SloKind kind, double target,
                 size_t short_window, size_t long_window,
                 double warn_burn = 1.0, double breach_burn = 2.0) {
  SloSpec spec;
  spec.name = std::move(name);
  spec.kind = kind;
  spec.target = target;
  spec.short_window = short_window;
  spec.long_window = long_window;
  spec.warn_burn = warn_burn;
  spec.breach_burn = breach_burn;
  return spec;
}

// ---------------------------------------------------------------------------
// Parsing

TEST(SloParseTest, ParsesTheCanonicalGrammar) {
  const std::string text =
      "# comment line\n"
      "\n"
      "slo latency kind=p99_latency_us target=5000 short_window=32 "
      "long_window=256 warn_burn=1.0 breach_burn=2.0\n"
      "slo admit kind=reject_rate target=0.2 short_window=64 "
      "long_window=512  # trailing comment\n";
  std::vector<SloSpec> specs;
  std::string error;
  ASSERT_TRUE(ParseSloSpecs(text, &specs, &error)) << error;
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "latency");
  EXPECT_EQ(specs[0].kind, SloKind::kP99LatencyUs);
  EXPECT_DOUBLE_EQ(specs[0].target, 5000.0);
  EXPECT_EQ(specs[0].short_window, 32u);
  EXPECT_EQ(specs[0].long_window, 256u);
  EXPECT_DOUBLE_EQ(specs[0].warn_burn, 1.0);
  EXPECT_DOUBLE_EQ(specs[0].breach_burn, 2.0);
  EXPECT_EQ(specs[1].kind, SloKind::kRejectRate);
  // Burn thresholds default when omitted.
  EXPECT_DOUBLE_EQ(specs[1].warn_burn, 1.0);
  EXPECT_DOUBLE_EQ(specs[1].breach_burn, 2.0);
}

TEST(SloParseTest, RejectsMalformedSpecs) {
  struct Case {
    const char* text;
    const char* error_substring;
  };
  const Case cases[] = {
      {"sla x kind=reject_rate target=0.1 short_window=1 long_window=2\n",
       "expected 'slo'"},
      {"slo x kind=bogus target=0.1 short_window=1 long_window=2\n",
       "bad value for 'kind'"},
      {"slo x kind=reject_rate target=0.1 short_window=1 long_window=2 "
       "color=red\n",
       "unknown key"},
      {"slo x target=0.1 short_window=1 long_window=2\n", "missing kind"},
      {"slo x kind=reject_rate short_window=1 long_window=2\n",
       "missing target"},
      {"slo x kind=reject_rate target=1.5 short_window=1 long_window=2\n",
       "out of range"},
      {"slo x kind=coverage_floor target=1.0 short_window=1 long_window=2\n",
       "out of range"},
      {"slo x kind=p99_latency_us target=100 short_window=0 long_window=2\n",
       "short_window must be >= 1"},
      {"slo x kind=p99_latency_us target=100 short_window=8 long_window=8\n",
       "long_window must exceed short_window"},
      {"slo x kind=p99_latency_us target=100 short_window=1 long_window=2 "
       "warn_burn=3 breach_burn=2\n",
       "warn_burn <= breach_burn"},
      {"slo x kind=reject_rate target=0.1 short_window=1 long_window=2\n"
       "slo x kind=reject_rate target=0.1 short_window=1 long_window=2\n",
       "duplicate slo name"},
      {"# only a comment\n", "no slo records"},
  };
  for (const Case& c : cases) {
    std::vector<SloSpec> specs;
    std::string error;
    EXPECT_FALSE(ParseSloSpecs(c.text, &specs, &error)) << c.text;
    EXPECT_NE(error.find(c.error_substring), std::string::npos)
        << "error for {" << c.text << "} was: " << error;
  }
}

TEST(SloParseTest, LoadReportsMissingFile) {
  std::vector<SloSpec> specs;
  std::string error;
  EXPECT_FALSE(LoadSloSpecs("/nonexistent/specs.slo", &specs, &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Burn-rate state machine

TEST(SloEngineTest, StaysOkDuringWarmupThenBreachesAtWindowBoundary) {
  // reject_rate target 0.1 => budget 0.1; an all-bad window burns at
  // 1 / 0.1 = 10x, far past breach_burn = 2.
  SloEngine engine({MakeSpec("adm", SloKind::kRejectRate, 0.1,
                             /*short_window=*/10, /*long_window=*/40)});
  for (int i = 0; i < 9; ++i) {
    engine.RecordAdmission(false);
    EXPECT_EQ(engine.StateOf("adm"), SloState::kOk)
        << "event " << i << ": must stay OK until short_window fills";
  }
  engine.RecordAdmission(false);  // 10th event: short window full
  EXPECT_EQ(engine.StateOf("adm"), SloState::kBreach);
  EXPECT_EQ(engine.WorstState(), SloState::kBreach);
}

TEST(SloEngineTest, RecoversWhenTheShortWindowDrainsOfBadEvents) {
  SloEngine engine({MakeSpec("adm", SloKind::kRejectRate, 0.1,
                             /*short_window=*/10, /*long_window=*/40)});
  for (int i = 0; i < 10; ++i) engine.RecordAdmission(false);
  ASSERT_EQ(engine.StateOf("adm"), SloState::kBreach);
  // Ten consecutive admits push every rejection out of the short window.
  // The long window still remembers them (long_burn = 10/20/0.1 = 5), but
  // the multi-window rule needs BOTH windows burning, so the state clears.
  for (int i = 0; i < 10; ++i) engine.RecordAdmission(true);
  EXPECT_EQ(engine.StateOf("adm"), SloState::kOk);
  // Recovery clears the live state but not the latched peak: replay
  // reports must remember that the run breached at some point.
  EXPECT_EQ(engine.WorstState(), SloState::kOk);
  EXPECT_EQ(engine.PeakWorstState(), SloState::kBreach);
  const std::string verdict = engine.VerdictJson();
  EXPECT_NE(verdict.find("\"state\":\"OK\""), std::string::npos) << verdict;
  EXPECT_NE(verdict.find("\"peak\":\"BREACH\""), std::string::npos);
  EXPECT_NE(verdict.find("\"worst\":\"OK\""), std::string::npos);
  EXPECT_NE(verdict.find("\"worst_peak\":\"BREACH\""), std::string::npos);
}

TEST(SloEngineTest, WarnsBetweenWarnAndBreachBurn) {
  // 1 bad in 10 at budget 0.1 burns at exactly warn_burn = 1.0, below
  // breach_burn = 2.0, in both windows simultaneously.
  SloEngine engine({MakeSpec("adm", SloKind::kRejectRate, 0.1,
                             /*short_window=*/10, /*long_window=*/40)});
  engine.RecordAdmission(false);
  for (int i = 0; i < 9; ++i) engine.RecordAdmission(true);
  EXPECT_EQ(engine.StateOf("adm"), SloState::kWarn);
}

TEST(SloEngineTest, LongWindowEvictionForgetsAncientHistory) {
  // drift_alert_budget target 0.5 => budget 0.5; all-triggered burns at
  // 2.0 = breach_burn. After long_window clean windows the triggered run
  // has been evicted entirely and both burns read 0.
  SloEngine engine({MakeSpec("drift", SloKind::kDriftAlertBudget, 0.5,
                             /*short_window=*/4, /*long_window=*/8)});
  for (int i = 0; i < 8; ++i) engine.RecordDriftWindow(true);
  ASSERT_EQ(engine.StateOf("drift"), SloState::kBreach);
  for (int i = 0; i < 4; ++i) engine.RecordDriftWindow(false);
  EXPECT_EQ(engine.StateOf("drift"), SloState::kOk)
      << "a clean short window must clear the state";
  for (int i = 0; i < 4; ++i) engine.RecordDriftWindow(false);
  EXPECT_EQ(engine.StateOf("drift"), SloState::kOk);
}

TEST(SloEngineTest, LatencyAndCoverageKindsRouteIndependently) {
  SloEngine engine({
      MakeSpec("lat", SloKind::kP99LatencyUs, 1000.0, /*short_window=*/4,
               /*long_window=*/8),
      MakeSpec("cov", SloKind::kCoverageFloor, 0.8, /*short_window=*/4,
               /*long_window=*/8),
  });
  // Latencies under target: good events for "lat" only.
  for (int i = 0; i < 4; ++i) engine.RecordLatency(500.0);
  EXPECT_EQ(engine.StateOf("lat"), SloState::kOk);
  // Slow tail: all-bad short window burns 1/0.01 = 100x the 1% budget.
  for (int i = 0; i < 4; ++i) engine.RecordLatency(2000.0);
  EXPECT_EQ(engine.StateOf("lat"), SloState::kBreach);
  // "cov" saw no events and must be untouched by the latency stream.
  EXPECT_EQ(engine.StateOf("cov"), SloState::kOk);
  for (int i = 0; i < 4; ++i) engine.RecordCoverage(false);
  EXPECT_EQ(engine.StateOf("cov"), SloState::kBreach);
  EXPECT_EQ(engine.WorstState(), SloState::kBreach);
  // Unknown names cannot breach.
  EXPECT_EQ(engine.StateOf("no_such_slo"), SloState::kOk);
}

TEST(SloEngineTest, TransitionsFeedTheMetricsRegistry) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  const uint64_t events_before = registry.GetCounter("slo.events")->value();
  const uint64_t breaches_before =
      registry.GetCounter("slo.breach_transitions")->value();
  SloEngine engine({MakeSpec("adm", SloKind::kRejectRate, 0.1,
                             /*short_window=*/4, /*long_window=*/8)});
  for (int i = 0; i < 8; ++i) engine.RecordAdmission(false);
  EXPECT_EQ(registry.GetCounter("slo.events")->value() - events_before, 8u);
  // One BREACH transition despite staying breached for several events.
  EXPECT_EQ(registry.GetCounter("slo.breach_transitions")->value() -
                breaches_before,
            1u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("slo.worst_state")->value(), 2.0);

  // A breach bar no burn reaches (at most 1 / 0.1 = 10) turns the same
  // stream into one WARN transition.
  const uint64_t warns_before =
      registry.GetCounter("slo.warn_transitions")->value();
  SloEngine warn_only({MakeSpec("adm", SloKind::kRejectRate, 0.1,
                                /*short_window=*/4, /*long_window=*/8,
                                /*warn_burn=*/1.0, /*breach_burn=*/100.0)});
  for (int i = 0; i < 8; ++i) warn_only.RecordAdmission(false);
  EXPECT_EQ(registry.GetCounter("slo.warn_transitions")->value() -
                warns_before,
            1u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("slo.worst_state")->value(), 1.0);
}

TEST(SloEngineTest, VerdictJsonNamesEverySpecAndTheWorstState) {
  SloEngine engine({
      MakeSpec("adm", SloKind::kRejectRate, 0.1, /*short_window=*/4,
               /*long_window=*/8),
      MakeSpec("lat", SloKind::kP99LatencyUs, 1000.0, /*short_window=*/4,
               /*long_window=*/8),
  });
  for (int i = 0; i < 4; ++i) engine.RecordAdmission(false);
  const std::string verdict = engine.VerdictJson();
  EXPECT_NE(verdict.find("\"name\":\"adm\""), std::string::npos) << verdict;
  EXPECT_NE(verdict.find("\"kind\":\"reject_rate\""), std::string::npos);
  EXPECT_NE(verdict.find("\"state\":\"BREACH\""), std::string::npos);
  EXPECT_NE(verdict.find("\"name\":\"lat\""), std::string::npos);
  EXPECT_NE(verdict.find("\"kind\":\"p99_latency_us\""), std::string::npos);
  EXPECT_NE(verdict.find("\"state\":\"OK\""), std::string::npos);
  EXPECT_NE(verdict.find("\"events\":4"), std::string::npos);
  EXPECT_NE(verdict.find("\"bad_events\":4"), std::string::npos);
  EXPECT_NE(verdict.find("\"worst\":\"BREACH\""), std::string::npos);
}

TEST(SloEngineTest, CanonicalServingSpecParsesAndStartsOk) {
  // Every committed spec must load under the runtime parser (grammar,
  // kinds, target ranges, window order, unique names) and start a fresh
  // engine in OK. A spec the parser rejects fails here, at test time,
  // rather than at the first `load-replay --slo-spec` that reads it.
  namespace fs = std::filesystem;
  const fs::path configs = fs::path(ROICL_SOURCE_DIR) / "configs";
  std::vector<fs::path> files;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(configs, ec)) {
    if (entry.path().extension() == ".slo") files.push_back(entry.path());
  }
  ASSERT_FALSE(ec) << configs << ": " << ec.message();
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty()) << "no *.slo under " << configs;
  bool saw_serving = false;
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    std::vector<SloSpec> specs;
    std::string error;
    ASSERT_TRUE(LoadSloSpecs(file.string(), &specs, &error)) << error;
    if (file.filename() == "serving.slo") {
      saw_serving = true;
      EXPECT_GE(specs.size(), 4u);
    }
    SloEngine engine(std::move(specs));
    EXPECT_EQ(engine.WorstState(), SloState::kOk);
  }
  EXPECT_TRUE(saw_serving) << "configs/serving.slo is missing";
}

}  // namespace
}  // namespace roicl::obs
