#include "common/backoff.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tacos {
namespace {

// The contract (common/backoff.hpp): delay(n) = min(base * 2^n, cap),
// reproducing the sweep fabric's historical restart schedule bit-exactly.

TEST(BackoffPolicy, JitterlessMatchesHistoricalFabricSchedule) {
  // The fabric's original expression was min(base << n, max) with
  // base = 200, max = 2000.
  const BackoffPolicy p{200, 2'000};
  const std::vector<std::uint64_t> expected{200, 400, 800, 1600,
                                            2000, 2000, 2000};
  for (std::size_t n = 0; n < expected.size(); ++n)
    EXPECT_EQ(p.delay_ms(n), expected[n]) << "attempt " << n;
}

TEST(BackoffPolicy, CapsForever) {
  const BackoffPolicy p{100, 3'000};
  for (std::uint64_t n = 5; n < 200; n += 13) EXPECT_EQ(p.delay_ms(n), 3'000);
  // Shift-overflow territory: 1 << 64 is UB if computed naively; the
  // policy must stay capped, not wrap to tiny delays.
  EXPECT_EQ(p.delay_ms(62), 3'000u);
  EXPECT_EQ(p.delay_ms(63), 3'000u);
  EXPECT_EQ(p.delay_ms(64), 3'000u);
  EXPECT_EQ(p.delay_ms(std::uint64_t(1) << 40), 3'000u);
}

}  // namespace
}  // namespace tacos
