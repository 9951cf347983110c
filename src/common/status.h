// Status: exception-free error handling for the WATTER library.
//
// Library code never throws; fallible operations return a Status (or a
// Result<T>, see result.h). This mirrors the convention of production
// database engines (Arrow, RocksDB) where error propagation must be explicit
// and cheap.
#ifndef WATTER_COMMON_STATUS_H_
#define WATTER_COMMON_STATUS_H_

#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>
#include <utility>

namespace watter {

/// Coarse error category carried by a Status.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kInfeasible = 6,  ///< A planning request has no feasible solution.
  kIoError = 7,
  kInternal = 8,
};

/// Returns a short human-readable name for a status code ("Ok", "NotFound"...).
const char* StatusCodeName(StatusCode code);

/// Value type describing the outcome of a fallible operation.
///
/// A default-constructed Status is OK. Error statuses carry a code and a
/// message. Status is cheap to copy (two words + shared string). It is
/// [[nodiscard]], like Result: a caller that drops one gets a warning
/// (an error under -Werror) and must handle it or WATTER_CHECK_OK it.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with an explicit code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// Factory helpers, one per error category.
  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "Ok" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }
  bool operator!=(const Status& other) const { return !(*this == other); }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

}  // namespace watter

/// Propagates an error Status from the current function.
#define WATTER_RETURN_IF_ERROR(expr)                 \
  do {                                               \
    ::watter::Status _watter_status = (expr);        \
    if (!_watter_status.ok()) return _watter_status; \
  } while (false)

/// Aborts if `expr` is not OK. For call sites where failure means a broken
/// invariant (not a recoverable condition) and the status would otherwise be
/// silently discarded.
#define WATTER_CHECK_OK(expr)                                           \
  do {                                                                  \
    ::watter::Status _watter_status = (expr);                           \
    if (!_watter_status.ok()) {                                         \
      ::std::fprintf(stderr, "WATTER_CHECK_OK failed at %s:%d: %s\n",   \
                     __FILE__, __LINE__,                                \
                     _watter_status.ToString().c_str());                \
      ::std::abort();                                                   \
    }                                                                   \
  } while (false)

/// Aborts with `message` if `cond` is false. The boolean sibling of
/// WATTER_CHECK_OK, for invariants that are not Status-valued.
#define WATTER_CHECK(cond, message)                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      ::std::fprintf(stderr, "WATTER_CHECK failed at %s:%d: %s\n",   \
                     __FILE__, __LINE__, (message));                 \
      ::std::abort();                                                \
    }                                                                \
  } while (false)

#endif  // WATTER_COMMON_STATUS_H_
