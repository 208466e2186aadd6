#pragma once
/// \file parse_number.hpp
/// \brief Whole-string number parsing for command-line values.
///
/// `std::stod` throws on "abc" (which, outside a try block, aborts the
/// process) and both it and `std::atol` silently accept "5x"; a command
/// line wants neither.  `parse_number` accepts the value only when the
/// entire string is one finite number that fits in `T` — no blanks, no
/// trailing characters — so every entry point can turn anything else into
/// its usage error.

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace tacos {

template <typename T>
std::optional<T> parse_number(std::string_view s) {
  T value{};
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;  // "inf", "nan"
  }
  return value;
}

}  // namespace tacos
