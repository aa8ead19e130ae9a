#include "common/status.h"

#include <cstdio>

namespace roicl {
namespace {

const char* CodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kIoError:
      return "IO_ERROR";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

}  // namespace

void RangeCheck::operator()(const char* key, double value, bool holds,
                            const char* range) {
  if (holds || !failure_.empty()) return;
  auto name = names_.find(key);
  char shown[32];
  std::snprintf(shown, sizeof(shown), "%.17g", value);
  failure_ = (name == names_.end() ? std::string(key) : name->second) +
             " must be " + range + ", got " + shown;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = CodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace roicl
