#pragma once
// Error handling utilities shared by every nocsched library.
//
// The libraries throw `nocsched::Error` (a std::runtime_error) for all
// recoverable failures: malformed benchmark files, infeasible scheduling
// inputs, out-of-range queries.  Programming errors (violated
// preconditions inside the library itself) use NOCSCHED_ASSERT, which is
// active in every build type.

#include <sstream>
#include <stdexcept>
#include <string>

namespace nocsched {

/// Exception type thrown by all nocsched libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

inline void cat_into(std::ostringstream&) {}

template <typename T, typename... Rest>
void cat_into(std::ostringstream& os, const T& v, const Rest&... rest) {
  os << v;
  cat_into(os, rest...);
}

}  // namespace detail

/// Concatenate any streamable values into a std::string.
/// libstdc++ 12 has no <format>, so this is the formatting workhorse.
template <typename... Args>
[[nodiscard]] std::string cat(const Args&... args) {
  std::ostringstream os;
  detail::cat_into(os, args...);
  return os.str();
}

/// Throw nocsched::Error with a concatenated message.
template <typename... Args>
[[noreturn]] void fail(const Args&... args) {
  throw Error(cat(args...));
}

/// Throw nocsched::Error with message `args...` unless `cond` holds.
/// Like any function argument, `args...` are evaluated on every call,
/// even when `cond` holds: pass only cheap values (literals, numbers).
/// A message that needs string building (`.name()`, `cat(...)`,
/// `describe()`) belongs in `if (!cond) fail(...)`, which formats only
/// on failure — nocsched-lint rule P1 flags the eager form in src/.
template <typename... Args>
void ensure(bool cond, const Args&... args) {
  if (!cond) fail(args...);
}

[[noreturn]] void assert_failed(const char* expr, const char* file, int line);

}  // namespace nocsched

/// Precondition check that stays on in release builds; use for internal
/// invariants whose violation means a bug in this library, not bad input.
#define NOCSCHED_ASSERT(expr) \
  ((expr) ? static_cast<void>(0) : ::nocsched::assert_failed(#expr, __FILE__, __LINE__))
