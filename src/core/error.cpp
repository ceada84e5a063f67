#include "core/error.hpp"

#include <atomic>
#include <sstream>

namespace wrsn {

namespace {
std::atomic<FailureHook> g_failure_hook{nullptr};
}  // namespace

FailureHook set_failure_hook(FailureHook hook) {
  return g_failure_hook.exchange(hook);
}

}  // namespace wrsn

namespace wrsn::detail {

void throw_invalid_argument(const std::string& msg) {
  throw InvalidArgument("invalid argument: " + msg);
}

void throw_logic_error(const char* expr, const char* file, int line,
                       const std::string& msg) {
  std::ostringstream os;
  os << "invariant violated: " << msg << " [" << expr << "] at " << file << ":"
     << line;
  const std::string what = os.str();
  if (const FailureHook hook = g_failure_hook.load()) hook(what.c_str());
  throw LogicError(what);
}

}  // namespace wrsn::detail
