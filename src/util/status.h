// Status and Result<T>: the error-handling vocabulary used across
// the library instead of exceptions.

#ifndef BIORANK_UTIL_STATUS_H_
#define BIORANK_UTIL_STATUS_H_

#include <ostream>
#include <string>
#include <utility>
#include <variant>

namespace biorank {

/// Error categories used across the library. Modeled after the RocksDB /
/// Google `Status` idiom: fallible operations return a `Status` (or a
/// `Result<T>`, below) instead of throwing.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< Caller passed a malformed value (e.g. p outside [0,1]).
  kNotFound,          ///< A looked-up entity, node, or source does not exist.
  kFailedPrecondition,///< Operation not valid in the current state (e.g. cycle).
  kOutOfRange,        ///< Index or id outside the valid range.
  kUnimplemented,     ///< Feature intentionally not provided.
  kInternal,          ///< Invariant violation inside the library (a bug).
  kUnavailable,       ///< A dependency (shard, transport) failed to answer.
  kResourceExhausted, ///< Admission control rejected the request (backpressure).
  kDeadlineExceeded,  ///< The request's deadline passed before it could be served.
  kDataLoss,          ///< Unrecoverable corruption (checksum mismatch, bad file).
};

/// Human-readable name of a status code, e.g. "InvalidArgument".
const char* StatusCodeToString(StatusCode code);

/// Lightweight success/error value. Cheap to copy in the OK case.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Named constructors, one per error category.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// A value-or-error holder, analogous to absl::StatusOr<T>.
///
/// Usage:
///   Result<int> r = Parse(s);
///   if (!r.ok()) return r.status();
///   Use(r.value());
template <typename T>
class Result {
 public:
  /// Constructs from a value (success).
  Result(T value) : data_(std::move(value)) {}  // NOLINT: implicit by design.

  /// Constructs from an error status. `status.ok()` must be false.
  Result(Status status) : data_(std::move(status)) {}  // NOLINT

  bool ok() const { return std::holds_alternative<T>(data_); }

  /// The error status; OK if this holds a value.
  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(data_);
  }

  /// The contained value. Must only be called when ok().
  const T& value() const& { return std::get<T>(data_); }
  T& value() & { return std::get<T>(data_); }
  T&& value() && { return std::get<T>(std::move(data_)); }

  /// Returns the value or `fallback` when this holds an error.
  T value_or(T fallback) const {
    if (ok()) return value();
    return fallback;
  }

 private:
  std::variant<T, Status> data_;
};

/// Propagates an error status out of the current function.
#define BIORANK_RETURN_IF_ERROR(expr)                   \
  do {                                                  \
    ::biorank::Status _st = (expr);                     \
    if (!_st.ok()) return _st;                          \
  } while (false)

}  // namespace biorank

#endif  // BIORANK_UTIL_STATUS_H_
