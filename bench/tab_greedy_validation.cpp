/// Reproduces the §III-D validation (E9): the multi-start greedy finds the
/// exhaustive-search optimum (paper: 99% of the time) at a small fraction
/// of the full design space's simulation cost (paper: 400x fewer).
/// Runs at a coarsened granularity so the oracle comparison stays cheap.
#include "bench_main.hpp"

int main(int argc, char** argv) {
  tacos::ExperimentOptions defaults;
  defaults.grid = 24;
  defaults.opt_step_mm = 2.0;
  defaults.w_step_mm = 2.0;
  using namespace tacos::entry;
  tacos::benchmain::Harness harness(argc, argv, kJournalFlags | kRefineFlags,
                                    defaults);
  const auto& opts = harness.options();
  tacos::RunHealth health;
  const int rc = tacos::benchmain::run(
      "Greedy vs exhaustive validation",
      [&] { return tacos::greedy_validation_table(opts, &health); });
  tacos::benchmain::report_health("greedy-validation", health);
  return harness.finish(rc);
}
