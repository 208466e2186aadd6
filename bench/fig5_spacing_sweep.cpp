/// Reproduces Fig. 5: peak temperature vs uniform chiplet spacing for all
/// eight benchmarks with every core active at 1 GHz, for 4/16/64/256
/// chiplets; 0 mm is the single-chip baseline (E4).
#include "bench_main.hpp"

int main(int argc, char** argv) {
  tacos::benchmain::Harness harness(argc, argv, tacos::entry::kJournalFlags);
  const auto& opts = harness.options();
  tacos::RunHealth health;
  const int rc = tacos::benchmain::run(
      "Fig. 5: peak temperature vs chiplet spacing",
      [&] { return tacos::fig5_spacing_table(opts, &health); });
  tacos::benchmain::report_health("fig5", health);
  return harness.finish(rc);
}
