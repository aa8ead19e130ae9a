#ifndef ROICL_COMMON_STATUS_H_
#define ROICL_COMMON_STATUS_H_

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "common/macros.h"

namespace roicl {

/// Error category for a `Status`.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIoError,
  kFailedPrecondition,
  kInternal,
};

/// Minimal status object for recoverable failures (file I/O, parsing,
/// user-supplied configuration). Invariant violations use ROICL_CHECK
/// instead. [[nodiscard]] at class scope makes silently dropping any
/// returned Status a compile-time warning (an error under ROICL_STRICT).
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status IoError(std::string message) {
    return Status(StatusCode::kIoError, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "INVALID_ARGUMENT: empty dataset".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// The range rules of an options struct, checked in order: the first
/// broken rule becomes InvalidArgument "<name> must be <range>, got
/// <value>", where a field is named by `names[key]` if given (the CLI
/// passes its flag names) and by `key` otherwise. `names` must outlive the
/// check.
class RangeCheck {
 public:
  explicit RangeCheck(const std::map<std::string, std::string>& names)
      : names_(names) {}

  void operator()(const char* key, double value, bool holds,
                  const char* range);
  Status status() const {
    return failure_.empty() ? Status::Ok() : Status::InvalidArgument(failure_);
  }

 private:
  const std::map<std::string, std::string>& names_;
  std::string failure_;  // the first rule broken
};

/// Value-or-error wrapper. `ok()` must be checked before `value()`.
/// [[nodiscard]] for the same reason as Status.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  /// Implicit from value and from Status, mirroring absl::StatusOr usage.
  StatusOr(T value) : status_(Status::Ok()), value_(std::move(value)) {}
  StatusOr(Status status) : status_(std::move(status)) {
    ROICL_CHECK_MSG(!status_.ok(), "StatusOr constructed from OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    ROICL_CHECK_MSG(ok(), "value() on errored StatusOr: %s",
                    status_.message().c_str());
    return *value_;
  }
  T& value() & {
    ROICL_CHECK_MSG(ok(), "value() on errored StatusOr: %s",
                    status_.message().c_str());
    return *value_;
  }
  T&& value() && {
    ROICL_CHECK_MSG(ok(), "value() on errored StatusOr: %s",
                    status_.message().c_str());
    return std::move(*value_);
  }

 private:
  Status status_;
  // optional<> so T need not be default-constructible.
  std::optional<T> value_;
};

}  // namespace roicl

#endif  // ROICL_COMMON_STATUS_H_
