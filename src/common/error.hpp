// Error handling primitives for the gridvc library.
//
// The library reports programmer errors (precondition violations) via
// GRIDVC_REQUIRE, which throws gridvc::PreconditionError so tests can
// observe the failure, and domain errors (e.g. unroutable endpoints,
// rejected reservations) via dedicated exception types.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace gridvc {

/// Thrown when a documented precondition of a public API is violated.
class PreconditionError : public std::logic_error {
 public:
  /// `reason_at` is where what()'s message starts, after the source
  /// location and expression GRIDVC_REQUIRE puts in front of it.
  explicit PreconditionError(const std::string& what, std::size_t reason_at = 0)
      : std::logic_error(what), reason_at_(reason_at < what.size() ? reason_at : what.size()) {}

  /// The message alone, without the source location and expression: what
  /// a remote client may be told. Empty when the check gave none.
  const char* reason() const noexcept { return what() + reason_at_; }

 private:
  std::size_t reason_at_;
};

/// Thrown when an input file or record cannot be parsed.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a simulation entity is referenced that does not exist.
class NotFoundError : public std::runtime_error {
 public:
  explicit NotFoundError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void precondition_failure(const char* expr, const char* file,
                                              int line, const std::string& msg) {
  const std::string what = std::string(file) + ":" + std::to_string(line) +
                           ": precondition `" + expr + "` failed";
  const std::size_t reason_at = what.size() + 2;  // past the ": " before msg
  throw PreconditionError(msg.empty() ? what : what + ": " + msg, reason_at);
}
}  // namespace detail

}  // namespace gridvc

/// Validate a documented precondition of a public entry point.
#define GRIDVC_REQUIRE(expr, msg)                                              \
  do {                                                                         \
    if (!(expr)) {                                                             \
      ::gridvc::detail::precondition_failure(#expr, __FILE__, __LINE__, (msg)); \
    }                                                                          \
  } while (false)
