// lumos::Status / lumos::Result<T>: structured, exception-free error
// handling for the public API surface (src/api/).
//
// Everything exported from lumos::api reports failure through these types
// instead of throwing: internal layers may still use exceptions, but the
// facade catches them at the boundary and converts them to a Status with a
// structured code. This is what lets front ends (CLI, services) branch on
// *what* failed — unknown model name vs. malformed trace vs. deadlocked
// simulation — without string-matching exception messages.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace lumos {

/// Structured failure classes of the public API.
enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,     ///< malformed input (bad parallelism label, bad rank)
  kUnknownModel,        ///< model name not in the registry
  kParseError,          ///< trace/JSON could not be parsed
  kCyclicGraph,         ///< execution graph contains a dependency cycle
  kDeadlock,            ///< simulation stuck (unsatisfiable dependencies)
  kUnsupported,         ///< valid request the system does not support (TP change)
  kIoError,             ///< file system failure (missing trace files, ...)
  kValidationError,     ///< config/model combination fails validation
  kFailedPrecondition,  ///< call not available in this session's state
  kInternal,            ///< unexpected internal failure (escaped exception)
  // Appended after kInternal so the integer values above — which travel on
  // the serve NDJSON wire as plain ints — never change.
  kDeadlineExceeded,    ///< request missed its deadline (serve request_timeout_ms)
};

/// Stable lowercase name of a code ("ok", "unknown_model", ...).
std::string_view to_string(ErrorCode code);

/// A success-or-error outcome. Default-constructed Status is OK; failures
/// carry a code and a human-readable message.
class Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return Status(); }

  bool is_ok() const { return code_ == ErrorCode::kOk; }
  explicit operator bool() const { return is_ok(); }

  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "unknown_model: no model named 'gpt5'" (or "ok").
  std::string to_string() const;

  bool operator==(const Status& other) const = default;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

// Factories, one per failure class, for terse call sites.
Status invalid_argument_error(std::string message);
Status unknown_model_error(std::string message);
Status parse_error(std::string message);
Status cyclic_graph_error(std::string message);
Status deadlock_error(std::string message);
Status unsupported_error(std::string message);
Status io_error(std::string message);
Status validation_error(std::string message);
Status failed_precondition_error(std::string message);
Status internal_error(std::string message);
Status deadline_exceeded_error(std::string message);

/// Expected-style result: either a value of type T or a non-OK Status.
/// Move-aware: `Result<Session>` can carry move-only payloads, and
/// `std::move(result).value()` moves the payload out.
///
/// Accessing value() on an error (or status() semantics on a value) is a
/// programming error; value() on an error aborts with the status printed,
/// it never throws — the facade's no-exception guarantee includes misuse.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : state_(std::in_place_index<0>, std::move(value)) {}
  Result(Status status) : state_(std::in_place_index<1>, std::move(status)) {
    if (std::get<1>(state_).is_ok()) {
      std::fprintf(stderr,
                   "lumos::Result constructed from an OK status but no "
                   "value\n");
      std::abort();
    }
  }

  bool is_ok() const { return state_.index() == 0; }
  explicit operator bool() const { return is_ok(); }

  /// OK when holding a value, the error otherwise. A reference into this
  /// result (or to a static OK status), so `r.status().message()` may be
  /// bound to a reference for as long as `r` lives.
  const Status& status() const& {
    static const Status kOk;
    return is_ok() ? kOk : std::get<1>(state_);
  }
  /// On a temporary result, a copy: nothing can refer into a dead result.
  Status status() && { return status(); }

  const T& value() const& { return checked(); }
  T& value() & { return checked(); }
  T&& value() && { return std::move(checked()); }

  const T& operator*() const& { return checked(); }
  T& operator*() & { return checked(); }
  const T* operator->() const { return &checked(); }
  T* operator->() { return &checked(); }

  T value_or(T fallback) const& {
    return is_ok() ? std::get<0>(state_) : std::move(fallback);
  }
  T value_or(T fallback) && {
    return is_ok() ? std::move(std::get<0>(state_)) : std::move(fallback);
  }

 private:
  const T& checked() const {
    if (!is_ok()) die();
    return std::get<0>(state_);
  }
  T& checked() {
    if (!is_ok()) die();
    return std::get<0>(state_);
  }
  [[noreturn]] void die() const {
    std::fprintf(stderr, "lumos::Result::value() on error: %s\n",
                 std::get<1>(state_).to_string().c_str());
    std::abort();
  }

  std::variant<T, Status> state_;
};

}  // namespace lumos
