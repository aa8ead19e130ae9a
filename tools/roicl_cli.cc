// roicl — command-line front end for the library.
//
// Subcommands:
//   generate  synthesize an RCT dataset to CSV
//   methods   list every method registered with the scorer registry
//   train     fit any registered method on CSV data and save a versioned
//             pipeline artifact (--save-pipeline)
//   predict   score a CSV with a pipeline artifact (ROI and, for
//             conformal methods, interval bounds)
//   score     the same as predict (the train-once/serve-many spelling)
//   serve     run a long-lived ScoringService over a pipeline artifact
//             and push a CSV through it as micro-batched requests
//   evaluate  AUCC / Qini of a pipeline artifact on labelled CSV data
//   allocate  greedy C-BTAP budget allocation with a pipeline artifact
//   monitor-replay
//             stream a labelled CSV through a live ScoringService with
//             covariate shift injected mid-stream; the ServingMonitor
//             detects the drift and recalibrates q_hat online. Prints the
//             per-batch drift/coverage/q_hat trace plus the detection
//             latency and the coverage before/after recalibration.
//   load-replay
//             drive a live ScoringService + ServingMonitor through
//             adversarial traffic phases (baseline, queue-overflow
//             bursts, deadline-heavy mixes, oversized batches, a racing
//             conformal-quantile swap storm) with an SLO engine watching
//             (--slo-spec FILE). Prints per-phase latency percentiles
//             and reject rates; --out FILE writes the full JSON report
//             (latency percentiles, per-stage serve.stage.* breakdown,
//             exemplar trace IDs, SLO verdicts).
//
// Every model is constructed through pipeline::ScorerRegistry — there is
// no per-method construction chain here; `roicl methods` shows the names.
//
// Examples:
//   roicl generate --dataset criteo --n 20000 --seed 1 --out train.csv
//   roicl generate --dataset criteo --n 5000 --seed 2 --shifted --out calib.csv
//   roicl train --method rdrp --train train.csv --calib calib.csv
//       --save-pipeline m.pipeline
//   roicl score --pipeline m.pipeline --data test.csv --out scores.csv
//   roicl serve --pipeline m.pipeline --data test.csv --out scores.csv
//       --request-rows 128 --threads 4
//   roicl evaluate --pipeline m.pipeline --data test.csv
//   roicl monitor-replay --pipeline m.pipeline --calib calib.csv
//       --data test.csv --shift-at 20 --shift-gamma 2.5
//
// Methods are named with --method at training time, case-insensitively;
// every later subcommand reads the method, its hyperparameters and its
// interval backend from the --pipeline artifact (monitor-replay alone can
// rebind the backend, calibrating it on its --calib set).
//
// Observability flags (all subcommands):
//   --log-level LEVEL   debug|info|warn|error|off (default info; the
//                       ROICL_LOG_LEVEL env var wins when set)
//   --log-json FILE     mirror log records to FILE as JSON lines
//   --metrics-out FILE  write the metrics-registry snapshot JSON on exit
//   --metrics-prom FILE write the Prometheus text exposition on exit
//   --trace-out FILE    collect trace spans, write chrome://tracing JSON
//
// Output-path parent directories are created on startup; an uncreatable
// parent exits 2 naming the path. SIGINT/SIGTERM interrupt serve and
// load-replay cleanly: in-flight loops drain, the metrics summary and
// every --*-out file are still written, and the process exits 128+sig.

#include <atomic>
#include <cerrno>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "alloc/row_source.h"
#include "alloc/streaming.h"
#include "campaign/scenario.h"
#include "campaign/scorer.h"
#include "common/math_util.h"
#include "common/status.h"
#include "core/greedy.h"
#include "core/interval_backend.h"
#include "core/roi_star.h"
#include "data/csv.h"
#include "exp/datasets.h"
#include "metrics/cost_curve.h"
#include "metrics/qini.h"
#include "monitor/load_replay.h"
#include "monitor/monitor.h"
#include "monitor/replay.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "pipeline/registry.h"
#include "pipeline/service.h"
#include "synth/synthetic_generator.h"

// Injected by the build (git describe at configure time) so pipeline
// artifacts record which tree trained them.
#ifndef ROICL_GIT_DESCRIBE
#define ROICL_GIT_DESCRIBE "unknown"
#endif

using namespace roicl;

namespace {

/// Set by the SIGINT/SIGTERM handler; long-running loops (serve,
/// load-replay) poll it and drain early so FinishObservability still
/// flushes the serve.* histograms and every --*-out file. Plain atomics:
/// both are lock-free on every supported target, making the handler
/// async-signal-safe.
std::atomic<bool> g_interrupted{false};
std::atomic<int> g_signal{0};

void HandleSignal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
  g_interrupted.store(true, std::memory_order_relaxed);
}

void InstallSignalHandlers() {
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
}

/// strtod over the whole of `text`; false on empty text, trailing
/// characters or overflow.
bool ParseWholeDouble(const std::string& text, double* out) {
  errno = 0;
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0' && errno != ERANGE;
}

/// Minimal --flag value parser; flags without values are booleans.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      std::string key = arg.substr(2);
      // Assign a std::string, not a literal: GCC 12's -Wrestrict
      // false-positives on char_traits::copy when a literal assignment
      // is inlined this deep (documented FP class, fixed in GCC 13).
      std::string value = "1";
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
      values_.insert_or_assign(std::move(key), std::move(value));
    }
  }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  std::string Require(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing required flag --%s\n", key.c_str());
      std::exit(2);
    }
    return it->second;
  }
  /// Numeric values parse whole: text that is not a number, or a number
  /// with anything after it ("12x"), exits 2 naming the flag.
  int GetInt(const std::string& key, int fallback) const {
    std::string v = Get(key);
    if (v.empty()) return fallback;
    errno = 0;
    char* end = nullptr;
    const long value = std::strtol(v.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE || value < INT_MIN ||
        value > INT_MAX) {
      std::fprintf(stderr, "--%s must be an integer, got '%s'\n",
                   key.c_str(), v.c_str());
      std::exit(2);
    }
    return static_cast<int>(value);
  }
  double GetDouble(const std::string& key, double fallback) const {
    std::string v = Get(key);
    if (v.empty()) return fallback;
    double value = 0.0;
    if (!ParseWholeDouble(v, &value)) {
      std::fprintf(stderr, "--%s must be a number, got '%s'\n", key.c_str(),
                   v.c_str());
      std::exit(2);
    }
    return value;
  }
  /// A count flag: integer-parsed like GetInt, and a negative value exits 2
  /// naming the flag instead of wrapping to a huge unsigned count.
  uint64_t GetCount(const std::string& key, uint64_t fallback) const {
    if (!Has(key)) return fallback;
    const int value = GetInt(key, 0);
    if (value < 0) {
      std::fprintf(stderr, "--%s must be >= 0, got '%s'\n", key.c_str(),
                   Get(key).c_str());
      std::exit(2);
    }
    return static_cast<uint64_t>(value);
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// Every parsed flag name, for unknown-flag validation.
  std::vector<std::string> Keys() const {
    std::vector<std::string> keys;
    keys.reserve(values_.size());
    for (const auto& [key, value] : values_) keys.push_back(key);
    return keys;
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Rejects any flag outside the subcommand's vocabulary with a one-line
/// error naming the flag. A silently-ignored typo (`--aplha 0.2`) is far
/// worse than an exit-2 rejection: the run would proceed with the paper
/// default and report results for a configuration the user did not ask
/// for. Each subcommand lists exactly the flags it reads; artifact
/// consumers read every hyperparameter from the --pipeline artifact and
/// take only the serving knobs. Unknown subcommands fall through to the
/// usage text in RunCommand.
void RejectUnknownFlags(const std::string& command, const Flags& flags) {
  static const std::set<std::string> kObservability = {
      "log-level", "log-json", "metrics-out", "metrics-prom", "trace-out"};
  static const std::map<std::string, std::set<std::string>> kPerCommand = {
      {"generate", {"dataset", "n", "seed", "shifted", "out"}},
      {"methods", {}},
      {"train",
       {"method", "train", "calib", "save-pipeline", "epochs", "lr",
        "patience", "hidden", "dropout", "restarts", "cate-epochs",
        "forest-trees", "forest-depth", "causal-forest-trees", "mc-passes",
        "alpha", "interval-backend", "seed", "batch-size", "threads"}},
      {"predict", {"pipeline", "data", "out", "batch-size", "threads"}},
      {"score", {"pipeline", "data", "out", "batch-size", "threads"}},
      {"serve",
       {"pipeline", "data", "out", "max-batch", "max-queue",
        "deadline-micros", "request-rows", "batch-size", "threads"}},
      {"evaluate", {"pipeline", "data", "batch-size", "threads"}},
      {"allocate",
       {"pipeline", "data", "budget-frac", "streaming", "mode", "shards",
        "memory-cap-mb", "chunk-rows", "synthetic-rows", "seed",
        "batch-size", "threads"}},
      {"campaign",
       {"dataset", "arms", "arm-budgets", "budget-frac", "mode", "scorer",
        "n-train", "n-calib", "n-test", "shards", "memory-cap-mb", "epochs",
        "lr", "patience", "hidden", "dropout", "restarts", "mc-passes",
        "alpha", "interval-backend", "seed", "batch-size", "threads"}},
      {"monitor-replay",
       {"pipeline", "calib", "data", "batch-rows", "num-batches",
        "shift-at", "shift-feature", "shift-gamma", "seed", "window-rows",
        "drift-bins", "psi-threshold", "ks-threshold", "min-window",
        "feedback-window", "min-labeled", "aci-gamma", "coverage-window",
        "coverage-slack", "recalibrate-every", "interval-backend",
        "batch-size", "threads"}},
      {"load-replay",
       {"pipeline", "calib", "data", "out", "slo-spec", "requests",
        "request-rows", "client-threads", "burst-factor",
        "tight-deadline-micros", "oversized-factor", "swap-storm-swaps",
        "feedback-rows", "seed", "max-batch", "max-queue", "window-rows",
        "exemplar-rate", "exemplar-seed", "shadow-interval-every",
        "batch-size", "threads"}},
  };
  auto it = kPerCommand.find(command);
  if (it == kPerCommand.end()) return;
  for (const std::string& key : flags.Keys()) {
    if (kObservability.count(key) > 0 || it->second.count(key) > 0) continue;
    std::fprintf(stderr, "unknown flag --%s for subcommand %s\n",
                 key.c_str(), command.c_str());
    std::exit(2);
  }
}

/// Range checks for flags shared across subcommands. `--threads 0` stays
/// valid — it selects the shared global pool (see nn::BatchOptions) and
/// is the default in every test harness; only negative counts are
/// nonsense. ValidateHyperparamFlags then range-checks every
/// hyperparameter flag.
void ValidateFlagRanges(const std::string& command, const Flags& flags) {
  if (flags.Has("alpha")) {
    double alpha = 0.0;
    if (!ParseWholeDouble(flags.Get("alpha"), &alpha) ||
        !(alpha > 0.0 && alpha < 1.0)) {
      std::fprintf(stderr, "--alpha must be in (0, 1), got '%s'\n",
                   flags.Get("alpha").c_str());
      std::exit(2);
    }
  }
  if (flags.Has("batch-size") && flags.GetInt("batch-size", 0) <= 0) {
    std::fprintf(stderr, "--batch-size must be positive, got '%s'\n",
                 flags.Get("batch-size").c_str());
    std::exit(2);
  }
  if (flags.Has("threads") && flags.GetInt("threads", 0) < 0) {
    std::fprintf(stderr,
                 "--threads must be >= 0 (0 = shared pool), got '%s'\n",
                 flags.Get("threads").c_str());
    std::exit(2);
  }
  if (flags.Has("mode")) {
    std::string mode = flags.Get("mode");
    if (mode != "greedy" && mode != "dual") {
      std::fprintf(stderr, "--mode must be greedy or dual, got '%s'\n",
                   mode.c_str());
      std::exit(2);
    }
  }
  for (const char* key : {"n", "shards", "memory-cap-mb", "chunk-rows"}) {
    if (flags.Has(key) && flags.GetInt(key, 0) <= 0) {
      std::fprintf(stderr, "--%s must be positive, got '%s'\n", key,
                   flags.Get(key).c_str());
      std::exit(2);
    }
  }
  if (flags.Has("arms")) {
    int arms = flags.GetInt("arms", 0);
    if (arms < 1 || arms > 64) {
      std::fprintf(stderr, "--arms must be in [1, 64], got '%s'\n",
                   flags.Get("arms").c_str());
      std::exit(2);
    }
  }
  if (flags.Has("budget-frac")) {
    double frac = flags.GetDouble("budget-frac", 0.0);
    if (!(frac > 0.0 && frac <= 1.0)) {
      std::fprintf(stderr, "--budget-frac must be in (0, 1], got '%s'\n",
                   flags.Get("budget-frac").c_str());
      std::exit(2);
    }
  }
  if (flags.Has("synthetic-rows") && flags.GetInt("synthetic-rows", 0) < 0) {
    std::fprintf(stderr, "--synthetic-rows must be >= 0, got '%s'\n",
                 flags.Get("synthetic-rows").c_str());
    std::exit(2);
  }
  if (flags.Has("interval-backend")) {
    std::string backend = flags.Get("interval-backend");
    if (backend == "all" && command != "monitor-replay") {
      std::fprintf(stderr,
                   "--interval-backend all is only valid for "
                   "monitor-replay; pick one of %s\n",
                   core::IntervalBackendNamesCsv().c_str());
      std::exit(2);
    }
    if (!core::IsIntervalBackendName(backend) && backend != "all") {
      std::fprintf(stderr,
                   "--interval-backend must be one of %s (or 'all' for "
                   "monitor-replay), got '%s'\n",
                   core::IntervalBackendNamesCsv().c_str(), backend.c_str());
      std::exit(2);
    }
  }
}

/// Creates the parent directory of an output path up front. A typo'd
/// directory must fail at startup naming the path — not at exit, after
/// the work, with the artifact silently missing.
void EnsureParentDirOrDie(const std::string& path, const char* flag) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(parent, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create parent directory for --%s %s: %s\n",
                 flag, path.c_str(), ec.message().c_str());
    std::exit(2);
  }
}

void SetupObservability(const Flags& flags) {
  for (const char* flag :
       {"metrics-out", "metrics-prom", "trace-out", "log-json"}) {
    if (flags.Has(flag)) EnsureParentDirOrDie(flags.Get(flag), flag);
  }
  obs::Logger& logger = obs::Logger::Global();
  std::string level_text = flags.Get("log-level");
  if (!level_text.empty()) {
    obs::LogLevel level;
    if (!obs::ParseLogLevel(level_text, &level)) {
      std::fprintf(stderr,
                   "bad --log-level '%s' (debug|info|warn|error|off)\n",
                   level_text.c_str());
      std::exit(2);
    }
    logger.SetLevel(level);
  } else if (std::getenv("ROICL_LOG_LEVEL") == nullptr) {
    // The library defaults to warn; an interactive CLI run wants info.
    logger.SetLevel(obs::LogLevel::kInfo);
  }
  if (flags.Has("log-json")) {
    auto sink = std::make_unique<obs::JsonLinesSink>(flags.Get("log-json"));
    if (!sink->ok()) {
      std::fprintf(stderr, "cannot open --log-json %s\n",
                   flags.Get("log-json").c_str());
      std::exit(2);
    }
    logger.AddSink(std::move(sink));
  }
  if (flags.Has("trace-out")) {
    obs::TraceCollector::Global().SetEnabled(true);
  }
  obs::PreregisterStandardMetrics();
}

/// Metrics summary + optional JSON exports, run after the subcommand.
void FinishObservability(const Flags& flags) {
  obs::Logger& logger = obs::Logger::Global();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  if (logger.ShouldLog(obs::LogLevel::kInfo)) {
    std::vector<obs::LogField> fields;
    registry.ForEachCounter([&](const std::string& name, uint64_t value) {
      fields.emplace_back(name, static_cast<unsigned long long>(value));
    });
    registry.ForEachGauge([&](const std::string& name, double value) {
      fields.emplace_back(name, value);
    });
    // Histograms summarize as latency-style percentiles; empty ones are
    // omitted (their quantiles are undefined, and preregistration means
    // most subcommands leave most histograms untouched).
    registry.ForEachHistogram(
        [&](const std::string& name, const obs::Histogram& histogram) {
          if (histogram.count() == 0) return;
          fields.emplace_back(name + ".p50", histogram.ApproxQuantile(0.5));
          fields.emplace_back(name + ".p95",
                              histogram.ApproxQuantile(0.95));
          fields.emplace_back(name + ".p99",
                              histogram.ApproxQuantile(0.99));
        });
    logger.LogV(obs::LogLevel::kInfo, "metrics summary", fields);
  }
  if (flags.Has("metrics-out")) {
    std::string path = flags.Get("metrics-out");
    if (registry.WriteSnapshotJson(path)) {
      obs::Info("wrote metrics snapshot", {{"path", path}});
    } else {
      obs::Error("cannot write metrics snapshot", {{"path", path}});
    }
  }
  if (flags.Has("metrics-prom")) {
    std::string path = flags.Get("metrics-prom");
    if (registry.WritePrometheusText(path)) {
      obs::Info("wrote prometheus exposition", {{"path", path}});
    } else {
      obs::Error("cannot write prometheus exposition", {{"path", path}});
    }
  }
  if (flags.Has("trace-out")) {
    std::string path = flags.Get("trace-out");
    obs::TraceCollector& collector = obs::TraceCollector::Global();
    if (collector.WriteChromeJson(path)) {
      obs::Info("wrote chrome trace",
                {{"path", path}, {"events", collector.size()}});
    } else {
      obs::Error("cannot write chrome trace", {{"path", path}});
    }
  }
}

synth::SyntheticConfig DatasetConfigByName(const std::string& name) {
  if (name == "criteo") return synth::CriteoSynthConfig();
  if (name == "meituan") return synth::MeituanSynthConfig();
  if (name == "alibaba") return synth::AlibabaSynthConfig();
  std::fprintf(stderr,
               "unknown --dataset '%s' (criteo | meituan | alibaba)\n",
               name.c_str());
  std::exit(2);
}

RctDataset LoadCsvOrDie(const std::string& path) {
  StatusOr<RctDataset> data = ReadDatasetCsv(path);
  if (!data.ok()) {
    std::fprintf(stderr, "failed to read %s: %s\n", path.c_str(),
                 data.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(data).value();
}

/// The shared hyperparam block from CLI flags. Flags not given keep the
/// paper defaults, so `train --method X` alone reproduces the benchmark
/// configuration for X.
pipeline::Hyperparams HyperparamsFromFlags(const Flags& flags) {
  pipeline::Hyperparams hp;
  hp.neural_epochs = flags.GetInt("epochs", hp.neural_epochs);
  hp.learning_rate = flags.GetDouble("lr", hp.learning_rate);
  hp.patience = flags.GetInt("patience", hp.patience);
  hp.drp_hidden = flags.GetInt("hidden", hp.drp_hidden);
  hp.drp_dropout = flags.GetDouble("dropout", hp.drp_dropout);
  hp.restarts = flags.GetInt("restarts", hp.restarts);
  hp.cate_epochs = flags.GetInt("cate-epochs", hp.cate_epochs);
  hp.forest_trees = flags.GetInt("forest-trees", hp.forest_trees);
  hp.forest_depth = flags.GetInt("forest-depth", hp.forest_depth);
  hp.causal_forest_trees =
      flags.GetInt("causal-forest-trees", hp.causal_forest_trees);
  hp.mc_passes = flags.GetInt("mc-passes", hp.mc_passes);
  hp.alpha = flags.GetDouble("alpha", hp.alpha);
  hp.interval_backend =
      flags.Get("interval-backend", hp.interval_backend);
  hp.seed = static_cast<uint64_t>(flags.GetInt("seed", 1234));
  // Batched prediction engine knobs. Neither changes any predicted value
  // (results are bit-identical at every setting); they only trade memory
  // and parallelism against wall clock.
  hp.predict_batch_size = flags.GetInt("batch-size", hp.predict_batch_size);
  hp.predict_threads = flags.GetInt("threads", hp.predict_threads);
  return hp;
}

/// Runs the artifact loader's hyperparameter range table over the flags
/// of a subcommand that trains (train, campaign), so an out-of-range value
/// exits 2 naming its flag instead of aborting deep inside training.
void ValidateHyperparamFlags(const std::string& command, const Flags& flags) {
  if (command != "train" && command != "campaign") return;
  static const std::map<std::string, std::string> kFlagNames = {
      {"neural_epochs", "--epochs"},
      {"learning_rate", "--lr"},
      {"drp_hidden", "--hidden"},
      {"restarts", "--restarts"},
      {"drp_dropout", "--dropout"},
      {"cate_epochs", "--cate-epochs"},
      {"forest_trees", "--forest-trees"},
      {"causal_forest_trees", "--causal-forest-trees"},
      {"mc_passes", "--mc-passes"},
      {"alpha", "--alpha"},
      {"predict_batch_size", "--batch-size"},
      {"predict_threads", "--threads"}};
  Status valid =
      pipeline::ValidateHyperparams(HyperparamsFromFlags(flags), kFlagNames);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.message().c_str());
    std::exit(2);
  }
}

/// Runs the service's option range check with the CLI's flag names, so a
/// knob that would stall the dispatcher (--max-batch 0) or reject every
/// request (--max-queue 0) exits 2 naming its flag.
void ValidateServiceFlagsOrDie(const pipeline::ServiceOptions& options) {
  static const std::map<std::string, std::string> kFlagNames = {
      {"max_batch_requests", "--max-batch"},
      {"max_queue", "--max-queue"},
      {"default_deadline_micros", "--deadline-micros"},
      {"exemplar_rate", "--exemplar-rate"},
      {"shadow_interval_every", "--shadow-interval-every"}};
  Status valid = pipeline::ValidateServiceOptions(options, kFlagNames);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.message().c_str());
    std::exit(2);
  }
}

/// Runs the monitor's option range check with the CLI's flag names, so a
/// knob that would abort the monitor's construction (--drift-bins 1) or
/// silently disable drift detection (--psi-threshold nan) exits 2 naming
/// its flag.
void ValidateMonitorFlagsOrDie(const monitor::MonitorOptions& options) {
  static const std::map<std::string, std::string> kFlagNames = {
      {"drift_bins", "--drift-bins"},
      {"thresholds.psi", "--psi-threshold"},
      {"thresholds.ks", "--ks-threshold"},
      {"coverage.window", "--coverage-window"},
      {"coverage.slack", "--coverage-slack"},
      {"recalibrator.max_window", "--feedback-window"},
      {"recalibrator.gamma", "--aci-gamma"}};
  Status valid = monitor::ValidateMonitorOptions(options, kFlagNames);
  if (!valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.message().c_str());
    std::exit(2);
  }
}

nn::BatchOptions BatchOptionsFromFlags(const Flags& flags) {
  nn::BatchOptions opts;
  opts.batch_size = flags.GetInt("batch-size", opts.batch_size);
  opts.num_threads = flags.GetInt("threads", opts.num_threads);
  return opts;
}

/// Resolves a user-supplied method name through the registry; prints the
/// registry's unknown-name error (which lists every registered method)
/// and exits 2 on failure.
std::string ResolveMethodOrDie(const std::string& name) {
  StatusOr<std::string> resolved =
      pipeline::ScorerRegistry::Global().Resolve(name);
  if (!resolved.ok()) {
    std::fprintf(stderr, "%s\n", resolved.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(resolved).value();
}

pipeline::Pipeline LoadPipelineOrDie(const std::string& path) {
  StatusOr<pipeline::Pipeline> loaded =
      pipeline::Pipeline::LoadFromFile(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "failed to load pipeline %s: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(loaded).value();
}

int CmdGenerate(const Flags& flags) {
  synth::SyntheticConfig config =
      DatasetConfigByName(flags.Get("dataset", "criteo"));
  synth::SyntheticGenerator generator(config);
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed", 1)));
  RctDataset data = generator.Generate(flags.GetInt("n", 10000),
                                       flags.Has("shifted"), &rng);
  std::string out = flags.Require("out");
  Status status = WriteDatasetCsv(data, out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %d rows x %d features to %s\n", data.n(), data.dim(),
              out.c_str());
  return 0;
}

int CmdMethods(const Flags& /*flags*/) {
  for (const std::string& name :
       pipeline::ScorerRegistry::Global().Names()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int CmdTrain(const Flags& flags) {
  std::string method = ResolveMethodOrDie(flags.Get("method", "rdrp"));
  std::string path = flags.Require("save-pipeline");
  RctDataset train = LoadCsvOrDie(flags.Require("train"));
  RctDataset calib;
  const RctDataset* calib_ptr = nullptr;
  if (flags.Has("calib")) {
    calib = LoadCsvOrDie(flags.Get("calib"));
    calib_ptr = &calib;
  } else {
    std::fprintf(stderr,
                 "warning: no --calib set; conformal methods calibrate on "
                 "the training data (Assumption 6 will not hold)\n");
  }

  pipeline::Hyperparams hp = HyperparamsFromFlags(flags);
  pipeline::Provenance provenance;
  provenance.seed = hp.seed;
  provenance.dataset = flags.Get("train");
  provenance.git_describe = ROICL_GIT_DESCRIBE;
  provenance.tool = "roicl train";

  StatusOr<pipeline::Pipeline> trained =
      pipeline::Pipeline::Train(method, hp, train, calib_ptr, provenance);
  if (!trained.ok()) {
    std::fprintf(stderr, "%s\n", trained.status().ToString().c_str());
    return 1;
  }
  if (Status status = trained.value().SaveToFile(path); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("trained %s on %d samples -> pipeline %s\n", method.c_str(),
              train.n(), path.c_str());
  return 0;
}

/// Scores and, for conformal methods, intervals of one pipeline
/// prediction.
struct ScoredBatch {
  std::vector<double> scores;
  std::vector<metrics::Interval> intervals;  // empty for point methods
};

template <typename T>
T ValueOrDie(StatusOr<T> result) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

/// Scores `x` with the --pipeline artifact. An rDRP pipeline runs one
/// prediction: its scores and its intervals share one MC sweep.
ScoredBatch ScoreWithPipeline(const Flags& flags, const Matrix& x) {
  pipeline::Pipeline loaded = LoadPipelineOrDie(flags.Require("pipeline"));
  loaded.set_batch_options(BatchOptionsFromFlags(flags));
  ScoredBatch out;
  if (!loaded.has_conformal_quantile()) {
    out.scores = ValueOrDie(loaded.Score(x));
    return out;
  }
  core::RdrpPrediction prediction = ValueOrDie(loaded.PredictRdrp(x));
  out.intervals = ValueOrDie(loaded.Intervals(x, prediction));
  out.scores = std::move(prediction.roi);
  return out;
}

int WriteScoresCsv(const std::string& out_path, const ScoredBatch& scored) {
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  out.precision(10);
  bool with_intervals = !scored.intervals.empty();
  out << (with_intervals ? "roi,interval_lo,interval_hi\n" : "roi\n");
  for (size_t i = 0; i < scored.scores.size(); ++i) {
    out << scored.scores[i];
    if (with_intervals) {
      out << ',' << scored.intervals[i].lo << ','
          << scored.intervals[i].hi;
    }
    out << '\n';
  }
  return 0;
}

int CmdPredict(const Flags& flags) {
  RctDataset data = LoadCsvOrDie(flags.Require("data"));
  ScoredBatch scored = ScoreWithPipeline(flags, data.x);
  std::string out_path = flags.Require("out");
  if (int rc = WriteScoresCsv(out_path, scored); rc != 0) return rc;
  std::printf("wrote %zu predictions to %s\n", scored.scores.size(),
              out_path.c_str());
  return 0;
}

int CmdServe(const Flags& flags) {
  pipeline::Pipeline loaded = LoadPipelineOrDie(flags.Require("pipeline"));
  RctDataset data = LoadCsvOrDie(flags.Require("data"));
  std::string out_path = flags.Require("out");

  pipeline::ServiceOptions options;
  options.engine = BatchOptionsFromFlags(flags);
  options.max_batch_requests = flags.GetInt("max-batch", 32);
  options.max_queue = flags.GetInt("max-queue", 1 << 20);
  options.default_deadline_micros = flags.GetInt("deadline-micros", 0);
  ValidateServiceFlagsOrDie(options);
  int request_rows = flags.GetInt("request-rows", 128);
  if (request_rows <= 0) {
    std::fprintf(stderr, "--request-rows must be positive\n");
    return 2;
  }

  if (loaded.has_conformal_quantile()) {
    obs::Info("serve returns point scores only; use `score --pipeline` "
              "for conformal intervals",
              {{"scorer", loaded.scorer_name()}});
  }
  pipeline::ScoringService service(std::move(loaded), options);

  // Split the CSV into request-sized row blocks and push them through the
  // service like concurrent clients would. Point scores are row-wise, so
  // any split reproduces the in-process scores bit for bit.
  std::vector<std::future<StatusOr<std::vector<double>>>> futures;
  for (int start = 0; start < data.x.rows(); start += request_rows) {
    if (g_interrupted.load(std::memory_order_relaxed)) break;
    int end = std::min(start + request_rows, data.x.rows());
    std::vector<int> rows(AsSize(end - start));
    std::iota(rows.begin(), rows.end(), start);
    futures.push_back(service.Submit(data.x.SelectRows(rows)));
  }

  // On SIGINT/SIGTERM the drain stops early: the partial CSV is still
  // written, and — because we return through FinishObservability rather
  // than dying in the loop — the exit metrics summary carries the
  // serve.* histograms for everything scored so far.
  ScoredBatch scored;
  scored.scores.reserve(AsSize(data.n()));
  size_t drained = 0;
  for (auto& future : futures) {
    if (g_interrupted.load(std::memory_order_relaxed)) break;
    StatusOr<std::vector<double>> result = future.get();
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    const std::vector<double>& chunk = result.value();
    scored.scores.insert(scored.scores.end(), chunk.begin(), chunk.end());
    ++drained;
  }
  if (int rc = WriteScoresCsv(out_path, scored); rc != 0) return rc;
  if (g_interrupted.load(std::memory_order_relaxed)) {
    obs::Warn("serve interrupted by signal; partial results flushed",
              {{"signal", g_signal.load()},
               {"requests_drained", AsInt(drained)},
               {"requests_submitted", AsInt(futures.size())}});
  }
  std::printf("served %zu requests (%d rows, <=%d rows each) -> %s\n",
              drained, data.n(), request_rows, out_path.c_str());
  return 0;
}

int CmdLoadReplay(const Flags& flags) {
  pipeline::Pipeline loaded = LoadPipelineOrDie(flags.Require("pipeline"));
  RctDataset calib = LoadCsvOrDie(flags.Require("calib"));
  RctDataset stream = LoadCsvOrDie(flags.Require("data"));

  monitor::LoadReplayOptions options;
  options.requests_per_phase = flags.GetInt("requests", 64);
  options.rows_per_request = flags.GetInt("request-rows", 32);
  options.client_threads = flags.GetInt("client-threads", 2);
  options.burst_factor = flags.GetInt("burst-factor", options.burst_factor);
  options.tight_deadline_micros =
      flags.GetInt("tight-deadline-micros",
                   static_cast<int>(options.tight_deadline_micros));
  options.oversized_factor = flags.GetInt("oversized-factor", 32);
  options.swap_storm_swaps =
      flags.GetInt("swap-storm-swaps", options.swap_storm_swaps);
  options.feedback_rows = flags.GetInt("feedback-rows", 256);
  options.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int>(options.seed)));
  options.monitor.window_rows =
      flags.GetCount("window-rows", options.monitor.window_rows);
  options.monitor.engine = BatchOptionsFromFlags(flags);
  ValidateMonitorFlagsOrDie(options.monitor);
  options.service.engine = options.monitor.engine;
  options.service.max_batch_requests = flags.GetInt("max-batch", 8);
  // The default queue is deliberately small: the burst phase must
  // overflow it, or the reject-rate SLO has nothing to measure.
  options.service.max_queue = flags.GetInt("max-queue", 64);
  options.service.exemplar_seed = static_cast<uint64_t>(flags.GetInt(
      "exemplar-seed", static_cast<int>(options.service.exemplar_seed)));
  options.service.exemplar_rate =
      flags.GetDouble("exemplar-rate", options.service.exemplar_rate);
  options.service.shadow_interval_every =
      flags.GetInt("shadow-interval-every", 7);
  ValidateServiceFlagsOrDie(options.service);
  static const std::map<std::string, std::string> kFlagNames = {
      {"rows_per_request", "--request-rows"},
      {"requests_per_phase", "--requests"},
      {"client_threads", "--client-threads"},
      {"burst_factor", "--burst-factor"},
      {"tight_deadline_micros", "--tight-deadline-micros"},
      {"oversized_factor", "--oversized-factor"},
      {"swap_storm_swaps", "--swap-storm-swaps"},
      {"feedback_rows", "--feedback-rows"}};
  if (Status valid = monitor::ValidateLoadReplayOptions(options, kFlagNames);
      !valid.ok()) {
    std::fprintf(stderr, "%s\n", valid.message().c_str());
    return 2;
  }
  if (flags.Has("slo-spec")) {
    std::string error;
    if (!obs::LoadSloSpecs(flags.Get("slo-spec"), &options.slos, &error)) {
      std::fprintf(stderr, "bad --slo-spec %s: %s\n",
                   flags.Get("slo-spec").c_str(), error.c_str());
      return 2;
    }
  }
  options.cancelled = [] {
    return g_interrupted.load(std::memory_order_relaxed);
  };

  StatusOr<monitor::LoadReplayResult> replayed = monitor::RunLoadReplay(
      std::move(loaded), calib, stream, options);
  if (!replayed.ok()) {
    std::fprintf(stderr, "%s\n", replayed.status().ToString().c_str());
    return 1;
  }
  const monitor::LoadReplayResult& result = replayed.value();

  std::printf(
      "phase            sub    ok   rej   ddl  err    p50_us    p95_us"
      "    p99_us\n");
  for (const monitor::LoadPhaseStat& stat : result.phases) {
    std::printf("%-14s %5d %5d %5d %5d %4d %9.0f %9.0f %9.0f\n",
                stat.phase.c_str(), stat.submitted, stat.ok, stat.rejected,
                stat.deadline_exceeded, stat.errors, stat.p50_us,
                stat.p95_us, stat.p99_us);
  }
  std::printf("stage breakdown      :");
  for (const monitor::StageBreakdown& stage : result.stages) {
    std::printf(" %s p99=%.0fus", stage.stage.c_str(), stage.p99_us);
  }
  std::printf("\n");
  std::printf("reject rate          : %.4f (%d of %d)\n",
              result.reject_rate, result.total_rejected,
              result.total_submitted);
  std::printf("latency p50/p95/p99  : %.0f / %.0f / %.0f us\n",
              result.p50_us, result.p95_us, result.p99_us);
  std::printf("quantile swaps raced : %d\n", result.quantile_swaps);
  std::printf("slo worst state      : %s\n",
              result.slo_worst_state.c_str());
  if (result.interrupted) {
    std::printf("interrupted          : yes (signal %d)\n",
                g_signal.load());
  }

  if (flags.Has("out")) {
    std::string out_path = flags.Get("out");
    EnsureParentDirOrDie(out_path, "out");
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    out << result.ToJson() << '\n';
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int CmdEvaluate(const Flags& flags) {
  RctDataset data = LoadCsvOrDie(flags.Require("data"));
  ScoredBatch scored = ScoreWithPipeline(flags, data.x);
  std::printf("n          : %d\n", data.n());
  std::printf("AUCC       : %.4f\n", metrics::Aucc(scored.scores, data));
  std::printf("Qini (rev) : %.4f\n",
              metrics::QiniCoefficient(scored.scores, data));
  if (!scored.intervals.empty()) {
    double roi_star = core::BinarySearchRoiStar(data);
    int covered = 0;
    double width = 0.0;
    for (const auto& interval : scored.intervals) {
      covered += interval.Contains(roi_star);
      width += interval.width();
    }
    std::printf("coverage of this set's roi* (%.4f): %.3f\n", roi_star,
                static_cast<double>(covered) /
                    static_cast<double>(scored.intervals.size()));
    std::printf("mean interval width: %.4f\n",
                width / static_cast<double>(scored.intervals.size()));
  }
  return 0;
}

/// `allocate --streaming`: bounded-memory sharded allocation over a
/// chunked row stream (see src/alloc/streaming.h). The source is either
/// the deterministic synthetic population (`--synthetic-rows N` — scale
/// runs need no N-row CSV on disk) or the scored dataset adapted to the
/// chunk interface. Greedy mode is bitwise-identical to the in-memory
/// reference greedy; dual mode reports the Lagrangian threshold and gap.
int CmdAllocateStreaming(const Flags& flags) {
  std::unique_ptr<alloc::RowSource> source;
  std::vector<double> true_tau_r;  // CSV path only, for revenue readout
  int chunk_rows = flags.GetInt("chunk-rows", 65536);
  if (flags.Has("synthetic-rows")) {
    int64_t rows = flags.GetInt("synthetic-rows", 0);
    uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 20240942));
    source = std::make_unique<alloc::SyntheticRowSource>(rows, seed,
                                                         chunk_rows);
  } else {
    RctDataset data = LoadCsvOrDie(flags.Require("data"));
    if (!data.has_ground_truth()) {
      std::fprintf(stderr,
                   "allocate requires true_tau_c columns (synthetic data) "
                   "to account spend\n");
      return 1;
    }
    ScoredBatch scored = ScoreWithPipeline(flags, data.x);
    true_tau_r = data.true_tau_r;
    source = std::make_unique<alloc::VectorRowSource>(
        std::move(scored.scores), std::move(data.true_tau_c), chunk_rows);
  }

  StatusOr<double> total_cost = alloc::StreamingTotalCost(source.get());
  if (!total_cost.ok()) {
    std::fprintf(stderr, "%s\n", total_cost.status().ToString().c_str());
    return 1;
  }
  double budget_frac = flags.GetDouble("budget-frac", 0.15);
  double budget = budget_frac * total_cost.value();

  alloc::StreamingOptions options;
  options.mode = flags.Get("mode", "greedy") == "dual"
                     ? alloc::AllocMode::kDual
                     : alloc::AllocMode::kGreedy;
  options.num_shards = flags.GetInt("shards", 1);
  options.memory_cap_bytes =
      static_cast<size_t>(flags.GetInt("memory-cap-mb", 256)) << 20;
  options.parallel_shards = flags.GetInt("threads", 0) > 0;

  StatusOr<alloc::StreamingResult> allocated =
      alloc::StreamingAllocate(source.get(), budget, options);
  if (!allocated.ok()) {
    std::fprintf(stderr, "%s\n", allocated.status().ToString().c_str());
    return 1;
  }
  const alloc::StreamingResult& result = allocated.value();

  std::printf("mode              : %s\n",
              options.mode == alloc::AllocMode::kDual ? "dual" : "greedy");
  std::printf("budget            : %.2f (%.0f%% of all-in)\n", budget,
              100.0 * budget_frac);
  std::printf("rows streamed     : %lld\n",
              static_cast<long long>(result.rows_streamed));
  std::printf("treated           : %zu of %lld\n", result.selected.size(),
              static_cast<long long>(source->total_rows()));
  std::printf("spent             : %.2f\n", result.spent);
  std::printf("est. value        : %.2f\n", result.value);
  if (!true_tau_r.empty()) {
    double revenue = 0.0;
    for (int64_t i : result.selected) {
      revenue += true_tau_r[roicl::AsSize64(i)];
    }
    std::printf("incr. revenue     : %.2f\n", revenue);
  }
  std::printf("shards            : %d\n", options.num_shards);
  std::printf("peak memory       : %.2f MiB (cap %.0f MiB)\n",
              static_cast<double>(result.peak_memory_bytes) / 1048576.0,
              static_cast<double>(options.memory_cap_bytes) / 1048576.0);
  std::printf("frontier evictions: %lld\n",
              static_cast<long long>(result.frontier_evictions));
  if (options.mode == alloc::AllocMode::kDual) {
    std::printf("dual threshold    : %.6f\n", result.dual_threshold);
    std::printf("dual upper bound  : %.2f\n", result.dual_upper_bound);
    std::printf("dual gap          : %.4f\n", result.dual_gap);
  }
  return 0;
}

int CmdAllocate(const Flags& flags) {
  if (flags.Has("streaming")) return CmdAllocateStreaming(flags);
  RctDataset data = LoadCsvOrDie(flags.Require("data"));
  ScoredBatch scored = ScoreWithPipeline(flags, data.x);
  if (!data.has_ground_truth()) {
    std::fprintf(stderr,
                 "allocate requires true_tau_c columns (synthetic data) "
                 "to account spend\n");
    return 1;
  }
  double total_cost = 0.0;
  for (double c : data.true_tau_c) total_cost += c;
  double budget = flags.GetDouble("budget-frac", 0.15) * total_cost;
  core::AllocationResult alloc =
      core::GreedyAllocate(scored.scores, data.true_tau_c, budget,
                           /*skip_unaffordable=*/true);
  double revenue = 0.0;
  for (int i : alloc.selected) revenue += data.true_tau_r[roicl::AsSize(i)];
  std::printf("budget            : %.2f (%.0f%% of all-in)\n", budget,
              100.0 * flags.GetDouble("budget-frac", 0.15));
  std::printf("treated           : %zu of %d\n", alloc.selected.size(),
              data.n());
  std::printf("spent             : %.2f\n", alloc.spent);
  std::printf("incr. revenue     : %.2f\n", revenue);
  std::printf("revenue per spend : %.4f\n",
              alloc.spent > 0 ? revenue / alloc.spent : 0.0);
  return 0;
}

/// `roicl campaign`: the multi-treatment C-BTAP scenario — synthetic
/// K-arm data, a registered campaign scorer (dnc-rdrp carries per-arm
/// conformal intervals), per-arm AUCC/Qini/coverage, and the K-arm
/// budget allocation in streaming-greedy or Lagrangian-dual mode.
int CmdCampaign(const Flags& flags) {
  campaign::CampaignScenarioConfig config;
  std::string dataset = flags.Get("dataset", "criteo");
  config.num_arms = flags.GetInt("arms", 3);
  config.n_train = flags.GetInt("n-train", 4000);
  config.n_calibration = flags.GetInt("n-calib", 1200);
  config.n_test = flags.GetInt("n-test", 2000);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 20240819));
  config.scorer = flags.Get("scorer", "dnc-rdrp");
  config.budget_fraction = flags.GetDouble("budget-frac", 0.35);
  config.mode = flags.Get("mode", "greedy");
  config.streaming.num_shards = flags.GetInt("shards", 1);
  config.streaming.memory_cap_bytes =
      static_cast<size_t>(flags.GetInt("memory-cap-mb", 256)) << 20;
  config.streaming.parallel_shards = flags.GetInt("threads", 0) > 0;

  core::RdrpConfig& rdrp = config.scorer_config.rdrp;
  rdrp.alpha = flags.GetDouble("alpha", rdrp.alpha);
  rdrp.mc_passes = flags.GetInt("mc-passes", rdrp.mc_passes);
  rdrp.interval_backend =
      flags.Get("interval-backend", rdrp.interval_backend);
  rdrp.drp.train.epochs = flags.GetInt("epochs", rdrp.drp.train.epochs);
  rdrp.drp.train.learning_rate =
      flags.GetDouble("lr", rdrp.drp.train.learning_rate);
  rdrp.drp.train.patience =
      flags.GetInt("patience", rdrp.drp.train.patience);
  rdrp.drp.hidden_units = flags.GetInt("hidden", rdrp.drp.hidden_units);
  rdrp.drp.dropout = flags.GetDouble("dropout", rdrp.drp.dropout);
  rdrp.drp.restarts = flags.GetInt("restarts", rdrp.drp.restarts);
  rdrp.drp.predict = BatchOptionsFromFlags(flags);
  campaign::KArmRankNetConfig& ranknet = config.scorer_config.ranknet;
  ranknet.train.epochs = flags.GetInt("epochs", ranknet.train.epochs);
  ranknet.train.learning_rate =
      flags.GetDouble("lr", ranknet.train.learning_rate);
  ranknet.train.patience = flags.GetInt("patience", ranknet.train.patience);
  ranknet.dropout = flags.GetDouble("dropout", ranknet.dropout);
  ranknet.restarts = flags.GetInt("restarts", ranknet.restarts);
  ranknet.predict = rdrp.drp.predict;

  if (flags.Has("arm-budgets")) {
    // Strict per-entry parse: atof would turn "abc", "nan" or an empty
    // entry into 0 or NaN, which the scenario reads as an unbounded arm.
    const std::string list = flags.Get("arm-budgets");
    for (size_t start = 0;;) {
      const size_t comma = list.find(',', start);
      const std::string token = list.substr(start, comma - start);
      char* end = nullptr;
      const double fraction = std::strtod(token.c_str(), &end);
      if (token.empty() || *end != '\0' || !std::isfinite(fraction)) {
        std::fprintf(stderr,
                     "--arm-budgets entry '%s' is not a finite number "
                     "(in '%s')\n",
                     token.c_str(), list.c_str());
        return 2;
      }
      config.arm_budget_fractions.push_back(fraction);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (static_cast<int>(config.arm_budget_fractions.size()) !=
        config.num_arms) {
      std::fprintf(stderr,
                   "--arm-budgets needs one comma-separated fraction per "
                   "arm (%d), got '%s'\n",
                   config.num_arms, flags.Get("arm-budgets").c_str());
      return 2;
    }
  }

  std::vector<std::string> datasets;
  if (dataset != "all") datasets.push_back(dataset);
  StatusOr<std::vector<campaign::CampaignScenarioResult>> grid =
      campaign::RunCampaignGrid(config, std::move(datasets));
  if (!grid.ok()) {
    std::fprintf(stderr, "%s\n", grid.status().ToString().c_str());
    return 1;
  }

  for (const campaign::CampaignScenarioResult& result : grid.value()) {
    std::printf("=== %s / %s / %s ===\n", result.dataset.c_str(),
                result.scorer.c_str(), result.mode.c_str());
    std::printf("arm      aucc     qini  coverage   roi*     spent"
                "        budget  assigned\n");
    for (size_t k = 0; k < result.arms.size(); ++k) {
      const campaign::CampaignArmReport& arm = result.arms[k];
      char coverage[16], budget[16];
      if (result.has_intervals) {
        std::snprintf(coverage, sizeof(coverage), "%.3f",
                      arm.coverage.coverage);
      } else {
        std::snprintf(coverage, sizeof(coverage), "-");
      }
      if (std::isfinite(arm.budget)) {
        std::snprintf(budget, sizeof(budget), "%.2f", arm.budget);
      } else {
        std::snprintf(budget, sizeof(budget), "unbounded");
      }
      std::printf("%3zu  %7.4f  %7.4f  %8s  %5.3f  %8.2f  %12s  %8lld\n",
                  k + 1, arm.aucc, arm.qini, coverage, arm.roi_star_target,
                  arm.spent, budget, static_cast<long long>(arm.assigned));
    }
    std::printf("global budget     : %.2f\n", result.global_budget);
    std::printf("treated           : %lld of %d users\n",
                static_cast<long long>(result.assigned), config.n_test);
    std::printf("spent             : %.2f\n", result.spent);
    std::printf("est. value        : %.2f\n", result.value);
    if (result.mode == "dual") {
      std::printf("dual upper bound  : %.4f\n", result.dual_bound);
      std::printf("dual gap          : %.6f\n", result.dual_gap);
      std::printf("dual iterations   : %d\n", result.dual_iterations);
    }
  }
  return 0;
}

int CmdMonitorReplay(const Flags& flags) {
  std::string pipeline_path = flags.Require("pipeline");
  RctDataset calib = LoadCsvOrDie(flags.Require("calib"));
  RctDataset stream = LoadCsvOrDie(flags.Require("data"));

  monitor::ReplayOptions options;
  options.batch_rows = flags.GetInt("batch-rows", options.batch_rows);
  options.num_batches = flags.GetInt("num-batches", options.num_batches);
  options.shift_at_batch = flags.GetInt("shift-at", options.num_batches / 2);
  options.shift_feature =
      flags.GetInt("shift-feature", options.shift_feature);
  options.shift_gamma = flags.GetDouble("shift-gamma", options.shift_gamma);
  options.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int>(options.seed)));
  monitor::MonitorOptions& mon = options.monitor;
  mon.drift_bins = flags.GetInt("drift-bins", mon.drift_bins);
  mon.thresholds.psi = flags.GetDouble("psi-threshold", mon.thresholds.psi);
  mon.thresholds.ks = flags.GetDouble("ks-threshold", mon.thresholds.ks);
  mon.thresholds.min_window =
      flags.GetCount("min-window", mon.thresholds.min_window);
  mon.window_rows = flags.GetCount("window-rows", mon.window_rows);
  mon.recalibrator.max_window =
      flags.GetCount("feedback-window", mon.recalibrator.max_window);
  mon.recalibrator.min_labeled =
      flags.GetCount("min-labeled", mon.recalibrator.min_labeled);
  mon.recalibrator.gamma =
      flags.GetDouble("aci-gamma", mon.recalibrator.gamma);
  mon.coverage.window = flags.GetCount("coverage-window", mon.coverage.window);
  mon.coverage.slack = flags.GetDouble("coverage-slack", mon.coverage.slack);
  mon.recalibrate_every = flags.GetCount("recalibrate-every", 0);
  mon.engine = BatchOptionsFromFlags(flags);
  options.service.engine = mon.engine;
  ValidateMonitorFlagsOrDie(mon);

  // One replay per requested backend. `--interval-backend NAME` rebinds
  // the artifact's backend (with the calibration set, so cqr can refit);
  // `all` sweeps every registered backend over the identical traffic,
  // producing the per-backend coverage table. Without the flag the
  // artifact's own backend runs, as before.
  std::string backend_flag = flags.Get("interval-backend", "");
  std::vector<std::string> backend_names;
  if (backend_flag == "all") {
    backend_names.assign(core::kIntervalBackendNames.begin(),
                         core::kIntervalBackendNames.end());
  } else {
    backend_names.push_back(backend_flag);  // "" keeps artifact backend
  }

  struct BackendRun {
    std::string name;
    monitor::ReplayResult result;
  };
  std::vector<BackendRun> runs;
  for (const std::string& backend : backend_names) {
    pipeline::Pipeline loaded = LoadPipelineOrDie(pipeline_path);
    if (!backend.empty()) {
      if (Status status = loaded.RebindIntervalBackend(backend, calib);
          !status.ok()) {
        std::fprintf(stderr,
                     "cannot rebind interval backend to '%s': %s\n",
                     backend.c_str(), status.ToString().c_str());
        return 1;
      }
    }
    std::string label = backend;
    if (label.empty()) {
      label = loaded.interval_backend() != nullptr
                  ? loaded.interval_backend()->name()
                  : "none";
    }
    StatusOr<monitor::ReplayResult> replayed =
        monitor::RunReplay(std::move(loaded), calib, stream, options);
    if (!replayed.ok()) {
      std::fprintf(stderr, "%s\n", replayed.status().ToString().c_str());
      return 1;
    }
    runs.push_back({label, std::move(replayed).value()});
  }

  if (runs.size() == 1) {
    const monitor::ReplayResult& result = runs.front().result;
    std::printf(
        "batch  stream   max_psi  max_ks  drift  recal  coverage     "
        "q_hat\n");
    for (const monitor::ReplayBatchStat& stat : result.batches) {
      std::printf("%5d  %-7s %8.3f %7.3f  %-5s  %-5s  %8.3f  %8.4f\n",
                  stat.batch, stat.shifted ? "shifted" : "base",
                  stat.max_psi, stat.max_ks,
                  stat.drift_latched ? "yes" : "-",
                  stat.recalibrated ? "yes" : "-", stat.coverage,
                  stat.q_hat);
    }
    if (result.shift_batch >= 0) {
      std::printf("shift injected       : batch %d\n", result.shift_batch);
    } else {
      std::printf("shift injected       : never\n");
    }
    if (result.detect_batch >= 0 && result.shift_batch >= 0) {
      std::printf("drift detected       : batch %d (latency %d batches)\n",
                  result.detect_batch,
                  result.detect_batch - result.shift_batch);
    } else {
      std::printf("drift detected       : never\n");
    }
    if (result.recalibrate_batch >= 0) {
      std::printf("recalibrated         : batch %d (q_hat %.4f -> %.4f)\n",
                  result.recalibrate_batch, result.q_hat_initial,
                  result.q_hat_final);
    } else {
      std::printf("recalibrated         : never\n");
    }
  }

  // Per-backend phase-coverage table: mean per-batch coverage before the
  // shift, between shift and recalibration, and after recalibration.
  std::printf(
      "backend   pre-shift  shift->recal  post-recal  detect  recal  "
      "q_hat_final\n");
  for (const BackendRun& run : runs) {
    const monitor::ReplayResult& r = run.result;
    std::printf("%-9s %9.3f %13.3f %11.3f %7d %6d %12.4f\n",
                run.name.c_str(), r.coverage_pre_shift,
                r.coverage_shift_to_recal, r.coverage_post_recal,
                r.detect_batch, r.recalibrate_batch, r.q_hat_final);
  }
  return 0;
}

void PrintUsage() {
  std::fputs(
      "usage: roicl "
      "<generate|methods|train|predict|score|serve|evaluate|allocate"
      "|campaign|monitor-replay|load-replay> [--flags]\n"
      "run with a subcommand and no flags to see its required arguments\n"
      "train once, serve many:\n"
      "  train --method NAME --train CSV [--calib CSV] "
      "--save-pipeline FILE\n"
      "  score --pipeline FILE --data CSV --out CSV\n"
      "  serve --pipeline FILE --data CSV --out CSV [--request-rows N]\n"
      "  monitor-replay --pipeline FILE --calib CSV --data CSV\n"
      "      [--shift-at N --shift-gamma G --window-rows N "
      "--num-batches N]\n"
      "  load-replay --pipeline FILE --calib CSV --data CSV\n"
      "      [--slo-spec FILE --out JSON --requests N --max-queue N]\n"
      "  allocate --streaming [--synthetic-rows N | --pipeline FILE "
      "--data CSV]\n"
      "      [--mode greedy|dual --shards N --memory-cap-mb MB "
      "--chunk-rows N --budget-frac F --seed N]\n"
      "  campaign [--dataset criteo|meituan|alibaba|all --arms K "
      "--scorer dnc-rdrp|dnc-ranknet]\n"
      "      [--mode greedy|dual --arm-budgets F1,..,FK --budget-frac F "
      "--shards N --seed N]\n"
      "`roicl methods` lists every registered method name\n"
      "observability flags (any subcommand): --log-level LEVEL, "
      "--log-json FILE, --metrics-out FILE, --metrics-prom FILE, "
      "--trace-out FILE\n"
      "prediction engine flags: --batch-size N (default 256), --threads N "
      "(0 = shared pool, 1 = serial; results are identical either way)\n",
      stderr);
}

int RunCommand(const std::string& command, const Flags& flags) {
  obs::ScopedSpan span("roicl." + command);
  if (command == "generate") return CmdGenerate(flags);
  if (command == "methods") return CmdMethods(flags);
  if (command == "train") return CmdTrain(flags);
  if (command == "predict" || command == "score") return CmdPredict(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "evaluate") return CmdEvaluate(flags);
  if (command == "allocate") return CmdAllocate(flags);
  if (command == "campaign") return CmdCampaign(flags);
  if (command == "monitor-replay") return CmdMonitorReplay(flags);
  if (command == "load-replay") return CmdLoadReplay(flags);
  PrintUsage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  std::string command = argv[1];
  Flags flags(argc, argv, 2);
  RejectUnknownFlags(command, flags);
  ValidateFlagRanges(command, flags);
  ValidateHyperparamFlags(command, flags);
  SetupObservability(flags);
  InstallSignalHandlers();
  int exit_code = RunCommand(command, flags);
  FinishObservability(flags);
  // Conventional 128+sig exit after the observability flush — scripts
  // see the interruption, but the metrics/trace files are intact.
  if (g_interrupted.load(std::memory_order_relaxed)) {
    return 128 + g_signal.load(std::memory_order_relaxed);
  }
  return exit_code;
}
