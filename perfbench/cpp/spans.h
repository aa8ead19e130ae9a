#ifndef PERFBENCH_CPP_SPANS_H_
#define PERFBENCH_CPP_SPANS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

/// \file
/// The benchmark's own span recorder. Spans are taken around calls into
/// the program's public functions (the program's TraceCollector stays
/// off), kept in memory, and written out as a chrome://tracing file when
/// the run ends. A span's parent is the innermost span still open on the
/// same thread, so children never overlap their siblings and a span's self
/// time is its duration minus its children's durations.

namespace perfbench {

/// Nanoseconds on the steady clock since the first call in this process.
int64_t NowNs();

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;        ///< index of the enclosing span, -1 for a root
  int lane = 0;           ///< recording thread, numbered in first-use order
  uint64_t request = 0;   ///< request id (serve_mixed), 0 otherwise
};

class SpanLog {
 public:
  static SpanLog& Global();

  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; -1 (and nothing recorded) while
  /// recording is off.
  int Open(const char* name, uint64_t request);
  void Close(int id);

  /// Records an interval measured elsewhere as a child of the calling
  /// thread's innermost open span. No-op while recording is off.
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              uint64_t request);

  std::vector<SpanRecord> Snapshot() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t request = 0)
      : id_(SpanLog::Global().Open(name, request)) {}
  ~ScopedSpan() {
    if (id_ >= 0) SpanLog::Global().Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

/// One row of a self-time table.
struct SelfTimeRow {
  std::string name;
  double ms = 0.0;
};

/// Self time per span name over a window. `wall_ms` is the window's wall
/// time; the rows, including the "unattributed" row, sum to it.
struct SelfTimeTable {
  std::string title;
  double wall_ms = 0.0;
  std::vector<SelfTimeRow> rows;
};

/// Builds the table over every span named `root` and its descendants:
/// each descendant contributes its self time under its own name, and the
/// roots' own self time is the "unattributed" row.
SelfTimeTable SelfTimes(const std::vector<SpanRecord>& spans,
                        const std::string& root, const std::string& title);

}  // namespace perfbench

#endif  // PERFBENCH_CPP_SPANS_H_
