#pragma once
// Strict numeric flag parsing shared by wrsn_sim, wrsn_sweep and wrsn_trace.
//
// std::stoul accepts "-1" and wraps it to 2^64-1, and stops at the first
// non-digit ("1x" reads as 1). Count flags go through parse_count instead,
// which accepts plain decimal integers that fit in 64 bits and nothing
// else. Failure throws InvalidArgument naming the flag; each tool's
// top-level handler prints it as a one-line diagnostic and exits 1.

#include <cstddef>
#include <optional>
#include <string>

#include "core/config_io.hpp"
#include "core/error.hpp"

namespace wrsn {

inline std::size_t parse_count(const std::string& flag, const std::string& value) {
  const std::optional<std::uint64_t> v = parse_decimal_u64(value);
  if (!v) {
    throw InvalidArgument(flag + " expects a non-negative integer below 2^64, got '" +
                          value + "'");
  }
  return static_cast<std::size_t>(*v);
}

}  // namespace wrsn
