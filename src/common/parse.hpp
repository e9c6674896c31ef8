// Strict decimal parsing for the grammars read from the environment
// (CUSAN_FAULT_PLAN, CUSAN_SCHEDULE).
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace common {

/// Parse a non-negative decimal integer into `out`; returns false if `s` is
/// empty, holds anything but the digits 0-9 (no sign, no space) or is above
/// `max` (never wraps).
[[nodiscard]] inline bool parse_uint(
    std::string_view s, std::uint64_t& out,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  if (s.empty()) {
    return false;
  }
  out = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (out > (max - digit) / 10) {
      return false;
    }
    out = out * 10 + digit;
  }
  return true;
}

}  // namespace common
