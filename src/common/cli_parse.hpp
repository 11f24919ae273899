// Strict numeric parsing for the command-line front ends (virec-sim,
// virec-fuzz, virec-simd). The whole value must be consumed, so
// "--threads 8x" is an error instead of silently parsing as 8, and a
// value that does not fit its field is an error instead of wrapping
// ("--cores 4294967297" would otherwise run 1 core). Every error is a
// std::invalid_argument naming the flag and the offending value.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/types.hpp"

namespace virec::cli {

/// Unsigned decimal, hex (0x...) or octal (0...) integer. A sign or
/// leading whitespace is rejected: strtoull would silently negate
/// "-1" into 2^64-1.
inline u64 parse_u64(const std::string& flag, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const u64 out = std::strtoull(v.c_str(), &end, 0);
  if (v.empty() || v[0] < '0' || v[0] > '9' ||
      end != v.c_str() + v.size() || errno == ERANGE) {
    throw std::invalid_argument(flag + ": invalid number '" + v + "'");
  }
  return out;
}

/// parse_u64 for 32-bit fields: values above UINT32_MAX are rejected.
inline u32 parse_u32(const std::string& flag, const std::string& v) {
  const u64 out = parse_u64(flag, v);
  if (out > std::numeric_limits<u32>::max()) {
    throw std::invalid_argument(flag + ": number '" + v +
                                "' out of range (max 4294967295)");
  }
  return static_cast<u32>(out);
}

inline double parse_double(const std::string& flag, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE) {
    throw std::invalid_argument(flag + ": invalid number '" + v + "'");
  }
  return out;
}

}  // namespace virec::cli
