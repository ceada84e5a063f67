#pragma once
// Precondition / invariant checking.
//
// Public API entry points validate arguments with WRSN_REQUIRE (throws
// wrsn::InvalidArgument, always on). Its message is what the tools print for
// bad input ("invalid argument: <msg>"), so it carries no source location.
// Internal invariants use WRSN_ASSERT, which throws wrsn::LogicError with the
// failed expression and its file:line, and stays enabled in release builds —
// the simulator is cheap enough that we keep our own guard rails on.

#include <stdexcept>
#include <string>

namespace wrsn {

class InvalidArgument : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class LogicError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

// Invoked (with the formatted message) just before an invariant failure
// throws LogicError — the flight recorder (obs/flight.hpp) registers itself
// here so the last-N event ring is dumped while the state that tripped the
// assert is still live. Argument-validation failures (WRSN_REQUIRE) do not
// fire the hook: bad user input is not a post-mortem. Returns the previous
// hook; pass nullptr to clear. Not thread-safe against concurrent set calls
// (install once at startup).
using FailureHook = void (*)(const char* message);
FailureHook set_failure_hook(FailureHook hook);

namespace detail {
[[noreturn]] void throw_invalid_argument(const std::string& msg);
[[noreturn]] void throw_logic_error(const char* expr, const char* file, int line,
                                    const std::string& msg);
}  // namespace detail

}  // namespace wrsn

#define WRSN_REQUIRE(expr, msg)                    \
  do {                                             \
    if (!(expr)) {                                 \
      ::wrsn::detail::throw_invalid_argument(msg); \
    }                                              \
  } while (false)

#define WRSN_ASSERT(expr, msg)                                               \
  do {                                                                       \
    if (!(expr)) {                                                           \
      ::wrsn::detail::throw_logic_error(#expr, __FILE__, __LINE__, (msg));   \
    }                                                                        \
  } while (false)

// Invariants too hot for release builds (per-event battery/queue checks);
// compiled out under NDEBUG so the release event loop stays branch-free.
#ifdef NDEBUG
#define WRSN_DEBUG_ASSERT(expr, msg) \
  do {                               \
  } while (false)
#else
#define WRSN_DEBUG_ASSERT(expr, msg) WRSN_ASSERT(expr, msg)
#endif
