// Lightweight status / result types used throughout the Tango codebase.
//
// We deliberately avoid exceptions on hot paths: every fallible operation in
// the log and runtime layers returns a Status or a Result<T>.  Status codes
// mirror the error surface of the CORFU protocol (write-once violations,
// trimmed addresses, sealed epochs, ...) plus generic transport failures.

#ifndef SRC_UTIL_STATUS_H_
#define SRC_UTIL_STATUS_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace tango {

enum class StatusCode : uint8_t {
  kOk = 0,
  // The address was already written; write-once semantics reject overwrite.
  kWritten,
  // The address has not been written yet.
  kUnwritten,
  // The address was trimmed (garbage collected).
  kTrimmed,
  // The address holds a junk (fill) entry.
  kJunk,
  // The request carried a stale epoch; caller must refresh its projection.
  kSealedEpoch,
  // The target is not reachable / the node is down.
  kUnavailable,
  // The request is malformed or violates an invariant.
  kInvalidArgument,
  // The named entity does not exist.
  kNotFound,
  // The named entity already exists.
  kAlreadyExists,
  // A transaction aborted due to a read-set conflict.
  kAborted,
  // A precondition (e.g. znode version check) failed.
  kFailedPrecondition,
  // The operation ran out of retries or time.
  kTimeout,
  // Resource capacity exceeded (log full, too many streams per entry, ...).
  kOutOfRange,
  // Internal invariant violation; indicates a bug.
  kInternal,
  // The server shed the request under overload.  Carries a server-computed
  // retry-after hint (Status::retry_after_us) telling the client how long to
  // back off before retrying; retrying sooner just feeds the storm.
  kBusy,
  // In-process only, never on the wire: the operation would have had to
  // block on a thread that must not (MustNotBlock()) and changed nothing.
  // The transport reruns it on a handler thread.
  kWouldBlock,
};

// Returns a stable human-readable name for a status code.
std::string_view StatusCodeName(StatusCode code);

// A status word: a code plus an optional context message.  Copyable, cheap
// when OK (no allocation unless a message is attached).
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  explicit Status(StatusCode code) : code_(code) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  // A kBusy status carrying the server's backoff hint.
  static Status Busy(uint32_t retry_after_us, std::string message = "") {
    Status st(StatusCode::kBusy, std::move(message));
    st.retry_after_us_ = retry_after_us;
    return st;
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Server-computed backoff hint in microseconds; 0 when the server did not
  // provide one.  Meaningful on kBusy (load shed) but transports preserve it
  // for any non-OK code.
  uint32_t retry_after_us() const { return retry_after_us_; }
  Status& set_retry_after_us(uint32_t us) {
    retry_after_us_ = us;
    return *this;
  }

  // Renders "CODE: message" (or just "CODE").
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }
  bool operator==(StatusCode code) const { return code_ == code; }

 private:
  StatusCode code_;
  uint32_t retry_after_us_ = 0;
  std::string message_;
};

// Result<T>: either a value or a non-OK status.  Modeled after
// absl::StatusOr; we roll our own because the build is dependency-free.
template <typename T>
class Result {
 public:
  // Intentionally implicit so `return value;` and `return status;` both work.
  Result(T value) : status_(), value_(std::move(value)) {}
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "Result constructed from OK status without value");
  }
  Result(StatusCode code) : status_(code) {
    assert(code != StatusCode::kOk);
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

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

  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

// Propagates a non-OK status out of the enclosing function.
#define TANGO_RETURN_IF_ERROR(expr)          \
  do {                                       \
    ::tango::Status _st = (expr);            \
    if (!_st.ok()) {                         \
      return _st;                            \
    }                                        \
  } while (0)

// Assigns the value of a Result expression or propagates its status.
#define TANGO_ASSIGN_OR_RETURN(lhs, expr)    \
  auto TANGO_CONCAT_(res_, __LINE__) = (expr);             \
  if (!TANGO_CONCAT_(res_, __LINE__).ok()) {               \
    return TANGO_CONCAT_(res_, __LINE__).status();         \
  }                                                        \
  lhs = std::move(TANGO_CONCAT_(res_, __LINE__)).value()

#define TANGO_CONCAT_(a, b) TANGO_CONCAT_IMPL_(a, b)
#define TANGO_CONCAT_IMPL_(a, b) a##b

}  // namespace tango

#endif  // SRC_UTIL_STATUS_H_
