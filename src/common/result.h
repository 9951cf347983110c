// Result<T>: a value-or-Status union, the exception-free analogue of
// StatusOr/arrow::Result used throughout the WATTER library.
#ifndef WATTER_COMMON_RESULT_H_
#define WATTER_COMMON_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "src/common/status.h"

namespace watter {

/// Holds either a value of type T or an error Status.
///
/// Accessing the value of an errored Result is a programming error and
/// asserts in debug builds. Typical usage:
///
///   Result<Route> r = planner.PlanBest(orders);
///   if (!r.ok()) return r.status();
///   Use(*r);
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)

  /// Implicit construction from an error Status. `status` must not be OK.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
    if (status_.ok()) {
      status_ = Status::Internal("Result constructed from OK status");
    }
  }

  bool ok() const { return value_.has_value(); }

  /// Returns the carried status; OK when a value is present.
  const Status& status() const { return status_; }

  /// Accessors for the stored value; require ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  /// Returns the value, or `fallback` if this Result is an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  std::optional<T> value_;
  Status status_;  // OK when value_ is engaged.
};

}  // namespace watter

/// Evaluates an expression yielding Result<T>, assigns to `lhs` on success and
/// propagates the error Status otherwise.
#define WATTER_ASSIGN_OR_RETURN(lhs, expr)                  \
  auto WATTER_CONCAT_(_watter_result, __LINE__) = (expr);   \
  if (!WATTER_CONCAT_(_watter_result, __LINE__).ok())       \
    return WATTER_CONCAT_(_watter_result, __LINE__).status(); \
  lhs = std::move(WATTER_CONCAT_(_watter_result, __LINE__)).value()

#define WATTER_CONCAT_IMPL_(a, b) a##b
#define WATTER_CONCAT_(a, b) WATTER_CONCAT_IMPL_(a, b)

#endif  // WATTER_COMMON_RESULT_H_
