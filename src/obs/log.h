#ifndef ROICL_OBS_LOG_H_
#define ROICL_OBS_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotated_mutex.h"

/// \file
/// Structured, leveled, thread-safe logging for the roicl library.
///
/// Design goals, in order: (1) a filtered-out call costs one relaxed
/// atomic load plus the construction of its fields; (2) records carry
/// key=value fields rather than pre-formatted text, so sinks can render
/// either human-readable lines (stderr) or machine-readable JSON lines;
/// (3) no dependency on any other roicl library, so even `roicl_common`
/// (thread pool) can log and export metrics without a cycle.
///
/// Level selection: `ROICL_LOG_LEVEL` environment variable
/// (debug|info|warn|error|off) at first use of `Logger::Global()`, or
/// `SetLevel()` programmatically (the CLI maps `--log-level` onto it).
/// The library default is `warn`: quiet under tests and benches.

namespace roicl::obs {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

/// "DEBUG" / "INFO" / "WARN" / "ERROR" / "OFF".
const char* LogLevelName(LogLevel level);

/// Parses "debug"/"info"/"warn"/"error"/"off" (case-insensitive).
/// Returns false (leaving `*out` untouched) on unknown text.
bool ParseLogLevel(std::string_view text, LogLevel* out);

/// Process-unique small integer for the calling thread (1, 2, ...),
/// assigned on first use. Shared by log records and trace events so the
/// two streams can be correlated.
uint32_t CurrentThreadId();

/// Renders `v` as a JSON number with ten significant digits ("%.10g"),
/// enough to round-trip diagnostics; `null` when `v` is not finite (JSON
/// has no Infinity or NaN literals).
std::string JsonNumber(double v);

/// Escapes `text` for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string JsonEscape(std::string_view text);

/// One key=value pair attached to a log record. Values are rendered to
/// text at construction; `quoted` records whether a JSON sink must quote
/// the value (strings/bools yes, numbers no).
struct LogField {
  LogField(std::string_view k, std::string_view v)
      : key(k), value(v), quoted(true) {}
  LogField(std::string_view k, const char* v)
      : key(k), value(v), quoted(true) {}
  LogField(std::string_view k, const std::string& v)
      : key(k), value(v), quoted(true) {}
  LogField(std::string_view k, bool v)
      : key(k), value(v ? "true" : "false"), quoted(false) {}
  LogField(std::string_view k, double v);
  LogField(std::string_view k, int v)
      : key(k), value(std::to_string(v)), quoted(false) {}
  LogField(std::string_view k, long v)
      : key(k), value(std::to_string(v)), quoted(false) {}
  LogField(std::string_view k, long long v)
      : key(k), value(std::to_string(v)), quoted(false) {}
  LogField(std::string_view k, unsigned v)
      : key(k), value(std::to_string(v)), quoted(false) {}
  LogField(std::string_view k, unsigned long v)
      : key(k), value(std::to_string(v)), quoted(false) {}
  LogField(std::string_view k, unsigned long long v)
      : key(k), value(std::to_string(v)), quoted(false) {}

  std::string key;
  std::string value;
  bool quoted;
};

/// A log record as handed to sinks. Field storage is borrowed from the
/// caller; sinks must not retain pointers past Write().
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  std::string_view message;
  const LogField* fields = nullptr;
  size_t num_fields = 0;
  /// Seconds since the Unix epoch at the time of the call.
  double unix_seconds = 0.0;
  uint32_t thread_id = 0;
};

/// Output target for log records. Write() calls are serialized by the
/// owning Logger; sinks need no locking of their own.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const LogRecord& record) = 0;
};

/// Human-readable single-line text sink:
///   `12.345 INFO  message key=value key="two words"` to a FILE*
/// (stderr by default, not owned).
class TextSink : public LogSink {
 public:
  explicit TextSink(std::FILE* stream = stderr) : stream_(stream) {}
  void Write(const LogRecord& record) override;

 private:
  std::FILE* stream_;
};

/// JSON-lines sink: one JSON object per record,
///   {"ts":...,"level":"INFO","tid":1,"msg":"...","key":value,...}
class JsonLinesSink : public LogSink {
 public:
  explicit JsonLinesSink(const std::string& path);
  bool ok() const { return out_.is_open(); }
  void Write(const LogRecord& record) override;

 private:
  std::ofstream out_;
};

/// Leveled structured logger with pluggable sinks. All methods are
/// thread-safe; the level check is lock-free.
class Logger {
 public:
  /// A fresh logger (used by tests). When `with_default_sink`, starts
  /// with one TextSink on stderr; otherwise with no sinks.
  explicit Logger(bool with_default_sink = true);

  /// The process-wide logger used by all library instrumentation.
  /// Initialized on first use; honors ROICL_LOG_LEVEL.
  static Logger& Global();

  void SetLevel(LogLevel level) {
    level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }
  bool ShouldLog(LogLevel level) const {
    return level != LogLevel::kOff &&
           static_cast<int>(level) >=
               level_.load(std::memory_order_relaxed);
  }

  void AddSink(std::unique_ptr<LogSink> sink) ROICL_EXCLUDES(mutex_);
  /// Replaces the sink list, returning the previous sinks (tests use
  /// this to install a capture sink and restore the original).
  std::vector<std::unique_ptr<LogSink>> SwapSinks(
      std::vector<std::unique_ptr<LogSink>> sinks) ROICL_EXCLUDES(mutex_);

  void Log(LogLevel level, std::string_view message,
           std::initializer_list<LogField> fields = {}) {
    if (!ShouldLog(level)) return;
    LogImpl(level, message, fields.begin(), fields.size());
  }
  /// Same as Log() but with a dynamically built field list.
  void LogV(LogLevel level, std::string_view message,
            const std::vector<LogField>& fields) {
    if (!ShouldLog(level)) return;
    LogImpl(level, message, fields.data(), fields.size());
  }

 private:
  void LogImpl(LogLevel level, std::string_view message,
               const LogField* fields, size_t num_fields)
      ROICL_EXCLUDES(mutex_);

  std::atomic<int> level_;
  Mutex mutex_;
  /// Sink list AND each sink's Write() are serialized under mutex_; that
  /// serialization is the "sinks need no locking of their own" contract.
  std::vector<std::unique_ptr<LogSink>> sinks_ ROICL_GUARDED_BY(mutex_);
};

/// Convenience wrappers over Logger::Global().
inline void Debug(std::string_view message,
                  std::initializer_list<LogField> fields = {}) {
  Logger::Global().Log(LogLevel::kDebug, message, fields);
}
inline void Info(std::string_view message,
                 std::initializer_list<LogField> fields = {}) {
  Logger::Global().Log(LogLevel::kInfo, message, fields);
}
inline void Warn(std::string_view message,
                 std::initializer_list<LogField> fields = {}) {
  Logger::Global().Log(LogLevel::kWarn, message, fields);
}
inline void Error(std::string_view message,
                  std::initializer_list<LogField> fields = {}) {
  Logger::Global().Log(LogLevel::kError, message, fields);
}

}  // namespace roicl::obs

#endif  // ROICL_OBS_LOG_H_
