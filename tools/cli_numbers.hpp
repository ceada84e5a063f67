#pragma once
// Strict numeric flag parsing shared by wrsn_sim, wrsn_sweep and wrsn_trace.
//
// std::stoul accepts "-1" and wraps it to 2^64-1, and stops at the first
// non-digit ("1x" reads as 1); std::stod has the same trailing-junk hole and
// also accepts "inf" and "nan". Count flags go through parse_count, which
// accepts plain decimal integers that fit in 64 bits and nothing else;
// real-valued flags go through parse_finite, which accepts one whole finite
// decimal number within its bound. Failure throws InvalidArgument naming the
// flag; each tool's top-level handler prints it as a one-line diagnostic and
// exits 1.

#include <charconv>
#include <cmath>
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

// Lower bound of a real-valued flag: strictly positive (a period) or
// non-negative (a budget where 0 means "off" or "none").
enum class Bound { kPositive, kNonNegative };

inline double parse_finite(const std::string& flag, const std::string& value,
                           Bound bound) {
  double v = 0.0;
  const char* const end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, v);
  const bool in_bound = bound == Bound::kPositive ? v > 0.0 : v >= 0.0;
  if (ec != std::errc{} || ptr != end || !std::isfinite(v) || !in_bound) {
    throw InvalidArgument(flag + " expects a finite number " +
                          (bound == Bound::kPositive ? "> 0" : ">= 0") + ", got '" +
                          value + "'");
  }
  return v;
}

}  // namespace wrsn
