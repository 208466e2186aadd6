#pragma once
/// \file backoff.hpp
/// \brief Capped exponential backoff.
///
/// The sweep fabric's worker-restart schedule (src/core/fabric.cpp):
///
///   delay(n) = min(base * 2^n, cap)
///
/// a pure function of the attempt number, so two runs restart crashed
/// workers at the same instants.

#include <cstdint>

namespace tacos {

/// Stateless delay schedule: query `delay_ms(n)` for the nth retry.
struct BackoffPolicy {
  std::uint64_t base_ms = 200;   ///< first delay
  std::uint64_t max_ms = 2'000;  ///< cap on the exponential growth

  /// Delay before retry `attempt` (0-based): monotone-capped exponential.
  std::uint64_t delay_ms(std::uint64_t attempt) const {
    // Shift-safe doubling: past 63 doublings everything is capped anyway.
    std::uint64_t raw = attempt >= 63 ? max_ms : base_ms << attempt;
    if (raw > max_ms || raw < base_ms) raw = max_ms;  // overflow ⇒ capped
    return raw;
  }
};

}  // namespace tacos
