#include "obs/log.h"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>

namespace roicl::obs {
namespace {

double UnixSecondsNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

bool NeedsQuoting(const std::string& value) {
  if (value.empty()) return true;
  for (char c : value) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '"') return true;
  }
  return false;
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kOff:
      return "OFF";
  }
  return "?";
}

bool ParseLogLevel(std::string_view text, LogLevel* out) {
  std::string lower(text);
  for (char& c : lower) c = static_cast<char>(std::tolower(
                            static_cast<unsigned char>(c)));
  if (lower == "debug") {
    *out = LogLevel::kDebug;
  } else if (lower == "info") {
    *out = LogLevel::kInfo;
  } else if (lower == "warn" || lower == "warning") {
    *out = LogLevel::kWarn;
  } else if (lower == "error") {
    *out = LogLevel::kError;
  } else if (lower == "off" || lower == "none") {
    *out = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

uint32_t CurrentThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.10g", v);
  return buffer;
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

LogField::LogField(std::string_view k, double v) : key(k), quoted(false) {
  if (std::isfinite(v)) {
    value = JsonNumber(v);
  } else {
    // JSON has no Infinity/NaN literals; quote so sinks stay parseable.
    value = v > 0 ? "inf" : (v < 0 ? "-inf" : "nan");
    quoted = true;
  }
}

void TextSink::Write(const LogRecord& record) {
  std::string line;
  line.reserve(96);
  char head[64];
  std::snprintf(head, sizeof(head), "%.3f %-5s [t%u] ",
                record.unix_seconds, LogLevelName(record.level),
                record.thread_id);
  line += head;
  line.append(record.message);
  for (size_t i = 0; i < record.num_fields; ++i) {
    const LogField& field = record.fields[i];
    line += ' ';
    line += field.key;
    line += '=';
    if (field.quoted && NeedsQuoting(field.value)) {
      line += '"';
      line += field.value;
      line += '"';
    } else {
      line += field.value;
    }
  }
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stream_);
  std::fflush(stream_);
}

JsonLinesSink::JsonLinesSink(const std::string& path)
    : out_(path, std::ios::out | std::ios::app) {}

void JsonLinesSink::Write(const LogRecord& record) {
  if (!out_) return;
  std::string line;
  line.reserve(128);
  line += "{\"ts\":";
  line += JsonNumber(record.unix_seconds);
  line += ",\"level\":\"";
  line += LogLevelName(record.level);
  line += "\",\"tid\":";
  line += std::to_string(record.thread_id);
  line += ",\"msg\":\"";
  line += JsonEscape(record.message);
  line += '"';
  for (size_t i = 0; i < record.num_fields; ++i) {
    const LogField& field = record.fields[i];
    line += ",\"";
    line += JsonEscape(field.key);
    line += "\":";
    if (field.quoted) {
      line += '"';
      line += JsonEscape(field.value);
      line += '"';
    } else {
      line += field.value;
    }
  }
  line += "}\n";
  out_ << line;
  out_.flush();
}

Logger::Logger(bool with_default_sink)
    : level_(static_cast<int>(LogLevel::kWarn)) {
  if (with_default_sink) {
    sinks_.push_back(std::make_unique<TextSink>(stderr));
  }
}

Logger& Logger::Global() {
  static Logger& logger = *[] {
    auto* l = new Logger(/*with_default_sink=*/true);
    if (const char* env = std::getenv("ROICL_LOG_LEVEL")) {
      LogLevel level;
      if (ParseLogLevel(env, &level)) l->SetLevel(level);
    }
    return l;
  }();
  return logger;
}

void Logger::AddSink(std::unique_ptr<LogSink> sink) {
  MutexLock lock(mutex_);
  sinks_.push_back(std::move(sink));
}

std::vector<std::unique_ptr<LogSink>> Logger::SwapSinks(
    std::vector<std::unique_ptr<LogSink>> sinks) {
  MutexLock lock(mutex_);
  sinks_.swap(sinks);
  return sinks;
}

void Logger::LogImpl(LogLevel level, std::string_view message,
                     const LogField* fields, size_t num_fields) {
  LogRecord record;
  record.level = level;
  record.message = message;
  record.fields = fields;
  record.num_fields = num_fields;
  record.unix_seconds = UnixSecondsNow();
  record.thread_id = CurrentThreadId();
  MutexLock lock(mutex_);
  for (std::unique_ptr<LogSink>& sink : sinks_) sink->Write(record);
}

}  // namespace roicl::obs
