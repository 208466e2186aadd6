/// Reproduces the headline results (§V-B and the conclusion, E8): per-
/// benchmark performance improvement at iso-cost for thresholds 75/85/95/
/// 105 C (paper averages: 41/41/27/16 %), and the iso-performance cost
/// reduction (paper: 36 %).
#include "bench_main.hpp"

int main(int argc, char** argv) {
  tacos::benchmain::Harness harness(argc, argv, tacos::entry::kJournalFlags);
  const auto& opts = harness.options();
  tacos::RunHealth h_impr, h_iso;
  int rc = tacos::benchmain::run(
      "Improvement at iso-cost across temperature thresholds",
      [&] { return tacos::improvement_summary_table(opts, &h_impr); });
  tacos::benchmain::report_health("improvement-summary", h_impr);
  rc |= tacos::benchmain::run(
      "Iso-performance minimum-cost organizations (85C)",
      [&] { return tacos::iso_performance_cost_table(opts, &h_iso); });
  tacos::benchmain::report_health("iso-performance", h_iso);
  return harness.finish(rc);
}
