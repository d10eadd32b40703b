#pragma once
// Result<T> / Status: lightweight expected-style error propagation for
// *anticipated* failures (parse errors, unbound task leaves, unknown names in
// queries).  Programmer errors (violated preconditions) throw
// std::logic_error instead; callers are not expected to recover from those.

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace herc::util {

/// Error payload: a category plus a human-readable message.
struct Error {
  enum class Code {
    kParse,        ///< malformed DSL / query / JSON input
    kNotFound,     ///< named object does not exist
    kInvalid,      ///< semantically invalid request (e.g. cyclic schema)
    kUnbound,      ///< task tree leaf has no bound instance
    kConflict,     ///< operation conflicts with database state
    kUnsupported,  ///< feature not available in this configuration
    kIoError,      ///< storage failure (EIO/ENOSPC/short write); retryable
  };

  Code code = Code::kInvalid;
  std::string message;

  [[nodiscard]] std::string str() const {
    return std::string(code_name(code)) + ": " + message;
  }

  /// Transient conditions a client should retry (after backoff) rather than
  /// treat as a hard failure: the request itself was well-formed, the system
  /// just could not serve it right now.
  [[nodiscard]] bool retryable() const { return code == Code::kIoError; }

  [[nodiscard]] static const char* code_name(Code c) {
    switch (c) {
      case Code::kParse: return "parse error";
      case Code::kNotFound: return "not found";
      case Code::kInvalid: return "invalid";
      case Code::kUnbound: return "unbound";
      case Code::kConflict: return "conflict";
      case Code::kUnsupported: return "unsupported";
      case Code::kIoError: return "io error";
    }
    return "unknown";
  }
};

/// Result of an operation returning a T on success.
template <class T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Error error) : error_(std::move(error)) {}  // NOLINT

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  /// Access the value; throws if this Result holds an error.  Use only after
  /// checking ok(), or in tests/examples where failure is a bug.
  [[nodiscard]] const T& value() const& {
    require_ok();
    return *value_;
  }
  [[nodiscard]] T& value() & {
    require_ok();
    return *value_;
  }
  [[nodiscard]] T&& take() && {
    require_ok();
    return std::move(*value_);
  }

  [[nodiscard]] const Error& error() const {
    if (ok()) throw std::logic_error("Result::error() on success value");
    return *error_;
  }

 private:
  void require_ok() const {
    if (!ok()) throw std::runtime_error("Result::value() on error: " + error_->str());
  }

  std::optional<T> value_;
  std::optional<Error> error_;
};

/// Result with no payload.
class [[nodiscard]] Status {
 public:
  Status() = default;  // success
  Status(Error error) : error_(std::move(error)) {}  // NOLINT

  [[nodiscard]] static Status ok_status() { return Status{}; }

  [[nodiscard]] bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const Error& error() const {
    if (ok()) throw std::logic_error("Status::error() on OK status");
    return *error_;
  }

  /// Throws std::runtime_error if not OK.  For tests and examples.
  void expect(const std::string& context) const {
    if (!ok()) throw std::runtime_error(context + ": " + error_->str());
  }

 private:
  std::optional<Error> error_;
};

// Convenience factories.
inline Error parse_error(std::string msg) {
  return Error{Error::Code::kParse, std::move(msg)};
}
inline Error not_found(std::string msg) {
  return Error{Error::Code::kNotFound, std::move(msg)};
}
inline Error invalid(std::string msg) {
  return Error{Error::Code::kInvalid, std::move(msg)};
}
inline Error unbound(std::string msg) {
  return Error{Error::Code::kUnbound, std::move(msg)};
}
inline Error conflict(std::string msg) {
  return Error{Error::Code::kConflict, std::move(msg)};
}
inline Error unsupported(std::string msg) {
  return Error{Error::Code::kUnsupported, std::move(msg)};
}
inline Error io_error(std::string msg) {
  return Error{Error::Code::kIoError, std::move(msg)};
}

}  // namespace herc::util
