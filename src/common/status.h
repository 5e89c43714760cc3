#ifndef WATTDB_COMMON_STATUS_H_
#define WATTDB_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace wattdb {

/// Error categories used across the engine. Modeled after the RocksDB
/// `Status` idiom: cheap to construct/copy for OK, carries a message for
/// error paths. No exceptions are thrown on hot paths.
enum class StatusCode {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kOutOfRange,
  kAborted,         ///< Transaction aborted (conflict, deadlock victim, ...)
  kBusy,            ///< Resource locked; retry later.
  kTimedOut,        ///< Lock wait timeout exceeded.
  kCorruption,      ///< On-"disk" structure violated an invariant.
  kNotSupported,
  kResourceExhausted,
  kInternal,
  kUnavailable,         ///< Node offline or partition mid-migration.
  kFailedPrecondition,  ///< Handle in the wrong state (moved-from, closed).
};

/// Result of a fallible operation. `Status::OK()` is the success value;
/// error statuses carry a `StatusCode` and a human-readable message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg = "") {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg = "") {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Busy(std::string msg = "") {
    return Status(StatusCode::kBusy, std::move(msg));
  }
  static Status TimedOut(std::string msg = "") {
    return Status(StatusCode::kTimedOut, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg = "") {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg = "") {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Internal(std::string msg = "") {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg = "") {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg = "") {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsInvalidArgument() const { return code_ == StatusCode::kInvalidArgument; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsBusy() const { return code_ == StatusCode::kBusy; }
  bool IsTimedOut() const { return code_ == StatusCode::kTimedOut; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsNotSupported() const { return code_ == StatusCode::kNotSupported; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }

  StatusCode code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// "OK" or "<code>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  Status(StatusCode code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  StatusCode code_;
  std::string msg_;
};

/// Value-or-error wrapper (the facade API's return type). Access `value()`
/// only after checking `ok()`.
template <typename T>
class StatusOr {
 public:
  /// Implicit from value: `return 42;` in a `StatusOr<int>` function.
  StatusOr(T value) : var_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status. Constructing from an OK status is a bug and
  /// is converted into an internal error.
  StatusOr(Status status)  // NOLINT(runtime/explicit)
      : var_(std::move(status)) {
    if (std::get<Status>(var_).ok()) {
      var_ = Status::Internal("StatusOr constructed from OK status");
    }
  }

  bool ok() const { return std::holds_alternative<T>(var_); }
  bool has_value() const { return ok(); }

  const T& value() const& { return std::get<T>(var_); }
  T& value() & { return std::get<T>(var_); }
  T&& value() && { return std::get<T>(std::move(var_)); }

  /// The held value, or `fallback` when holding an error.
  template <typename U>
  T value_or(U&& fallback) const& {
    return ok() ? value() : static_cast<T>(std::forward<U>(fallback));
  }

  /// OK() when holding a value, the error otherwise.
  Status status() const {
    return ok() ? Status::OK() : std::get<Status>(var_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> var_;
};

const char* StatusCodeName(StatusCode code);

}  // namespace wattdb

/// Propagate a non-OK Status out of the current function.
#define WATTDB_RETURN_IF_ERROR(expr)          \
  do {                                        \
    ::wattdb::Status _s = (expr);             \
    if (!_s.ok()) return _s;                  \
  } while (0)

/// Assign a StatusOr's value or propagate its error.
#define WATTDB_ASSIGN_OR_RETURN(lhs, expr)    \
  auto WATTDB_CONCAT_(_res_, __LINE__) = (expr);            \
  if (!WATTDB_CONCAT_(_res_, __LINE__).ok())                \
    return WATTDB_CONCAT_(_res_, __LINE__).status();        \
  lhs = std::move(WATTDB_CONCAT_(_res_, __LINE__)).value()

#define WATTDB_CONCAT_(a, b) WATTDB_CONCAT_IMPL_(a, b)
#define WATTDB_CONCAT_IMPL_(a, b) a##b

#endif  // WATTDB_COMMON_STATUS_H_
