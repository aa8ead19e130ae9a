// roicl_perfbench: runs one benchmark workload against the roicl libraries
// and prints its metrics; the last line of stdout is the JSON result.
//
//   roicl_perfbench --workload batch_score|serve_mixed|allocate_stream
//                   --seed N --seconds S --trace 0|1 --threads T
//                   --out-dir DIR
//
// perfbench/run.py builds this binary and is the supported entry point.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "common.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace {

using perfbench::Metric;
using perfbench::Result;

int Usage(const char* why) {
  std::fprintf(stderr,
               "roicl_perfbench: %s\nusage: roicl_perfbench --workload "
               "batch_score|serve_mixed|allocate_stream --seed N --seconds S "
               "--trace 0|1 [--threads T] [--out-dir DIR]\n",
               why);
  return 2;
}

void PrintMetrics(const char* kind, const std::map<std::string, Metric>& map) {
  for (const auto& [name, metric] : map) {
    std::printf("%-5s %-28s %18.6f %s\n", kind, name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

/// {"name":{"value":v,"unit":"u"},...} with every digit of each value.
/// Returns false when a value is not finite (JSON cannot carry it).
bool AppendJsonMetrics(const std::map<std::string, Metric>& map,
                       std::string* out) {
  bool finite = true;
  *out += "{";
  bool first = true;
  for (const auto& [name, metric] : map) {
    double value = metric.value;
    if (!std::isfinite(value)) {
      finite = false;
      value = -1.0;
    }
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    *out += (first ? "\"" : ",\"") + name + "\":{\"value\":" + buffer +
            ",\"unit\":\"" + metric.unit + "\"}";
    first = false;
  }
  *out += "}";
  return finite;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value.c_str());
      have_seconds = config.seconds > 0.0;
    } else if (flag == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--threads") {
      config.threads = std::atoi(value.c_str());
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("every flag takes one value");
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (config.threads < 1) return Usage("--threads must be positive");
  if (config.out_dir.empty()) config.out_dir = ".bench_out";
  mkdir(config.out_dir.c_str(), 0755);

  // The library's INFO and WARN logs (drift and coverage alerts the
  // feedback stream is expected to raise) would bury the report; its own
  // trace collector stays off in timed and traced runs alike.
  roicl::obs::Logger::Global().SetLevel(roicl::obs::LogLevel::kError);
  roicl::obs::TraceCollector::Global().SetEnabled(false);

  Result result;
  if (config.workload == "batch_score") {
    result = perfbench::RunBatchScore(config);
  } else if (config.workload == "serve_mixed") {
    result = perfbench::RunServeMixed(config);
  } else if (config.workload == "allocate_stream") {
    result = perfbench::RunAllocateStream(config);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  if (config.trace) perfbench::FillUnexercisedLayers(&result);

  std::printf("workload %s seed %llu seconds %g trace %d threads %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.threads);
  const std::map<std::string, Metric>& metrics =
      config.trace ? result.per_layer : result.end_to_end;
  PrintMetrics(config.trace ? "layer" : "e2e", metrics);
  for (const perfbench::SelfTimeTable& table : result.tables) {
    std::printf("self-time  %s  (wall %.3f ms)\n", table.title.c_str(),
                table.wall_ms);
    double sum = 0.0;
    for (const perfbench::SelfTimeRow& row : table.rows) {
      std::printf("  %-36s %12.3f ms %6.1f%%\n", row.name.c_str(), row.ms,
                  table.wall_ms > 0 ? 100.0 * row.ms / table.wall_ms : 0.0);
      sum += row.ms;
    }
    std::printf("  %-36s %12.3f ms\n", "(rows sum)", sum);
  }
  for (const std::string& note : result.notes) {
    std::printf("note  %s\n", note.c_str());
  }
  if (config.trace) {
    const std::string path = config.out_dir + "/trace-" + config.workload +
                             "-seed" + std::to_string(config.seed) + ".json";
    if (perfbench::SpanLog::Global().WriteChromeTrace(path)) {
      std::printf("spans written to %s\n", path.c_str());
    } else {
      result.Fail("cannot write " + path);
    }
  }

  std::string metrics_json;
  if (!AppendJsonMetrics(metrics, &metrics_json)) {
    result.Fail("a metric is not finite (reported as -1)");
    std::printf("note  CHECK FAILED: a metric is not finite\n");
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":%s}\n",
      result.correct ? "true" : "false",
      static_cast<long long>(result.attempted),
      static_cast<long long>(result.failed), metrics_json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
