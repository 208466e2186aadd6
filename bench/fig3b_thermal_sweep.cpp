/// Reproduces Fig. 3(b): peak temperature of 2.5D systems vs interposer
/// size for chiplet counts 2x2..10x10 and synthetic power densities
/// 0.5..2.0 W/mm^2, plus the "new 2D single chip" reference (E2).
#include "bench_main.hpp"

int main(int argc, char** argv) {
  tacos::benchmain::Harness harness(argc, argv, tacos::entry::kJournalFlags);
  const auto& opts = harness.options();
  tacos::RunHealth health;
  const int rc = tacos::benchmain::run(
      "Fig. 3(b): peak temperature design-space exploration",
      [&] { return tacos::fig3b_thermal_table(opts, &health); });
  tacos::benchmain::report_health("fig3b", health);
  return harness.finish(rc);
}
