// Strict decimal parsing for command-line values.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace ccnvm {

/// Rejects empty strings, signs, non-digits and overflow instead of
/// letting std::stoull throw (or silently accepting "12abc").
inline std::optional<std::uint64_t> parse_u64(std::string_view arg) {
  if (arg.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : arg) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return std::nullopt;  // overflow
    }
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace ccnvm
