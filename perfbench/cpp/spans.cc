#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>

namespace perfbench {
namespace {

std::atomic<int> next_lane{0};

struct ThreadState {
  int lane = next_lane.fetch_add(1, std::memory_order_relaxed);
  std::vector<int> open;  ///< stack of this thread's open span ids
};

ThreadState& Local() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

int64_t NowNs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

SpanLog& SpanLog::Global() {
  static SpanLog& log = *new SpanLog();
  return log;
}

int SpanLog::Open(const char* name, uint64_t request) {
  if (!enabled()) return -1;
  ThreadState& local = Local();
  SpanRecord record;
  record.name = name;
  record.start_ns = NowNs();
  record.parent = local.open.empty() ? -1 : local.open.back();
  record.lane = local.lane;
  record.request = request;
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(record);
  }
  local.open.push_back(id);
  return id;
}

void SpanLog::Close(int id) {
  const int64_t end = NowNs();
  ThreadState& local = Local();
  if (!local.open.empty() && local.open.back() == id) local.open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end;
}

void SpanLog::Record(const char* name, int64_t start_ns, int64_t end_ns,
                     uint64_t request) {
  if (!enabled()) return;
  ThreadState& local = Local();
  SpanRecord record;
  record.name = name;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  record.parent = local.open.empty() ? -1 : local.open.back();
  record.lane = local.lane;
  record.request = request;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(record);
}

std::vector<SpanRecord> SpanLog::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::vector<SpanRecord> spans = Snapshot();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

SelfTimeTable SelfTimes(const std::vector<SpanRecord>& spans,
                        const std::string& root, const std::string& title) {
  // A parent is always opened, hence recorded, before its children, so one
  // forward pass decides window membership and a second subtracts each
  // child's duration from its parent.
  std::vector<bool> in_window(spans.size(), false);
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    in_window[i] = root == s.name ||
                   (s.parent >= 0 && in_window[static_cast<size_t>(s.parent)]);
    self[i] = s.end_ns - s.start_ns;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (in_window[i] && s.parent >= 0 && root != s.name) {
      self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
    }
  }
  SelfTimeTable table;
  table.title = title;
  std::map<std::string, double> by_name;
  double unattributed = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (!in_window[i]) continue;
    const double ms = static_cast<double>(self[i]) / 1e6;
    if (root == spans[i].name) {
      table.wall_ms +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
      unattributed += ms;
    } else {
      by_name[spans[i].name] += ms;
    }
  }
  for (const auto& [name, ms] : by_name) table.rows.push_back({name, ms});
  std::sort(table.rows.begin(), table.rows.end(),
            [](const SelfTimeRow& a, const SelfTimeRow& b) {
              return a.ms > b.ms;
            });
  table.rows.push_back({"unattributed", unattributed});
  return table;
}

}  // namespace perfbench
