// Status / StatusOr error handling (Google style; the library does not use
// exceptions). A Status is either OK or carries an error code and message.
#ifndef DQSQ_COMMON_STATUS_H_
#define DQSQ_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.h"

namespace dqsq {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kResourceExhausted,  // evaluation budget exceeded
  kInternal,
  kUnimplemented,
};

/// Returns a human-readable name for `code` (e.g. "INVALID_ARGUMENT").
std::string_view StatusCodeToString(StatusCode code);

/// Result of an operation that can fail without a payload.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    DQSQ_CHECK(code != StatusCode::kOk);
  }

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "CODE: message".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status AlreadyExistsError(std::string message);
Status FailedPreconditionError(std::string message);
Status ResourceExhaustedError(std::string message);
Status InternalError(std::string message);
Status UnimplementedError(std::string message);

/// Result of an operation that yields a T on success.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    DQSQ_CHECK(!status_.ok());
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    DQSQ_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T& value() & {
    DQSQ_CHECK(ok()) << status_.ToString();
    return *value_;
  }
  T&& value() && {
    DQSQ_CHECK(ok()) << status_.ToString();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

#define DQSQ_RETURN_IF_ERROR(expr)                   \
  do {                                               \
    ::dqsq::Status dqsq_rie_status = (expr);         \
    if (!dqsq_rie_status.ok()) return dqsq_rie_status; \
  } while (0)

#define DQSQ_CONCAT_INNER(a, b) a##b
#define DQSQ_CONCAT(a, b) DQSQ_CONCAT_INNER(a, b)

#define DQSQ_ASSIGN_OR_RETURN(lhs, expr)                                  \
  auto DQSQ_CONCAT(dqsq_aor_, __LINE__) = (expr);                         \
  if (!DQSQ_CONCAT(dqsq_aor_, __LINE__).ok())                             \
    return DQSQ_CONCAT(dqsq_aor_, __LINE__).status();                     \
  lhs = std::move(DQSQ_CONCAT(dqsq_aor_, __LINE__)).value()

}  // namespace dqsq

#endif  // DQSQ_COMMON_STATUS_H_
