#include "util/status.h"

namespace biorank {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kUnavailable:
      return "Unavailable";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
    case StatusCode::kDeadlineExceeded:
      return "DeadlineExceeded";
    case StatusCode::kDataLoss:
      return "DataLoss";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  out += ": ";
  out += message_;
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

}  // namespace biorank
