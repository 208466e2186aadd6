/// Reproduces Fig. 8: the chiplet organization chosen for each benchmark
/// at (alpha, beta) = (1, 0) under 85C — 2D baseline operating point vs
/// the optimized 2.5D organization, improvement and cost (E7).
#include "bench_main.hpp"

int main(int argc, char** argv) {
  using namespace tacos::entry;
  tacos::benchmain::Harness harness(argc, argv, kJournalFlags | kRefineFlags);
  const auto& opts = harness.options();
  tacos::RunHealth health;
  const int rc = tacos::benchmain::run(
      "Fig. 8: chosen chiplet organizations (alpha=1, beta=0)",
      [&] { return tacos::fig8_chosen_orgs_table(opts, &health); });
  tacos::benchmain::report_health("fig8", health);
  return harness.finish(rc);
}
