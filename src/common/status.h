// Error-handling primitives for the CDB library.
//
// The library does not use exceptions. Fallible operations return a
// cdb::Status, or a cdb::Result<T> when they also produce a value, following
// the conventions of large C++ database codebases.
#ifndef CDB_COMMON_STATUS_H_
#define CDB_COMMON_STATUS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

namespace cdb {

// Canonical error space. Keep small; codes are for dispatch, messages for
// humans.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kFailedPrecondition,
  kUnimplemented,
  kParseError,
  kInternal,
  // Admission control / quota: the request is well-formed but a bounded
  // resource (queue slot, tenant budget, session table) cannot grant it now.
  kResourceExhausted,
  // Persistent state failed integrity checks (truncated, bit-flipped, or
  // version-incompatible snapshot blobs).
  kDataLoss,
};

// Returns a stable human-readable name, e.g. "INVALID_ARGUMENT".
const char* StatusCodeToString(StatusCode code);

// A success-or-error value. Cheap to copy on the success path (no message
// allocation). The class itself is [[nodiscard]]: any function returning a
// Status forces callers to consume it (CDB_RETURN_IF_ERROR, an ok() branch,
// or an explicit (void) cast with a comment explaining why the error is
// ignorable). tests/status_nodiscard_test.cc probes that this attribute
// actually fires under -Werror.
class [[nodiscard]] Status {
 public:
  // Default-constructed Status is OK.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

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
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DataLoss(std::string msg) {
    return Status(StatusCode::kDataLoss, std::move(msg));
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  // "OK" or "<CODE>: <message>".
  [[nodiscard]] std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

// A value-or-error. Access to value() on an error aborts the process, so
// callers must check ok() (or use the CDB_ASSIGN_OR_RETURN macro). Like
// Status, the class is [[nodiscard]].
template <typename T>
class [[nodiscard]] Result {
 public:
  // Implicit construction from a value or an error Status keeps call sites
  // terse: `return value;` / `return Status::NotFound(...)`.
  Result(T value) : status_(Status::Ok()), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {}                // NOLINT

  [[nodiscard]] bool ok() const { return status_.ok(); }
  [[nodiscard]] const Status& status() const { return status_; }

  const T& value() const& {
    AbortIfError();
    return *value_;
  }
  T& value() & {
    AbortIfError();
    return *value_;
  }
  // By value: a reference would dangle once a temporary Result dies, as in
  // `for (auto& x : f().value())`.
  T value() && {
    AbortIfError();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void AbortIfError() const;

  Status status_;
  std::optional<T> value_;
};

namespace internal_status {
[[noreturn]] void DieOnBadResultAccess(const Status& status);
}  // namespace internal_status

template <typename T>
void Result<T>::AbortIfError() const {
  if (!ok()) internal_status::DieOnBadResultAccess(status_);
}

}  // namespace cdb

// Propagates a non-OK Status from `expr` out of the enclosing function.
#define CDB_RETURN_IF_ERROR(expr)                   \
  do {                                              \
    ::cdb::Status cdb_status_tmp_ = (expr);         \
    if (!cdb_status_tmp_.ok()) return cdb_status_tmp_; \
  } while (false)

#define CDB_STATUS_CONCAT_INNER_(x, y) x##y
#define CDB_STATUS_CONCAT_(x, y) CDB_STATUS_CONCAT_INNER_(x, y)

// Evaluates `rexpr` (a Result<T>); on error returns the Status, otherwise
// move-assigns the value into `lhs` (which may be a declaration).
#define CDB_ASSIGN_OR_RETURN(lhs, rexpr)                                  \
  CDB_ASSIGN_OR_RETURN_IMPL_(CDB_STATUS_CONCAT_(cdb_result_, __LINE__),   \
                             lhs, rexpr)
#define CDB_ASSIGN_OR_RETURN_IMPL_(result, lhs, rexpr) \
  auto result = (rexpr);                               \
  if (!result.ok()) return result.status();            \
  lhs = std::move(result).value()

#endif  // CDB_COMMON_STATUS_H_
