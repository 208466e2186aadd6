/// Reproduces Fig. 6: maximum IPS and cost of 2.5D systems (normalized to
/// the single chip) under the 85C threshold across interposer sizes, for
/// the representative low/medium/high-power benchmarks (E5).
#include "bench_main.hpp"

int main(int argc, char** argv) {
  tacos::benchmain::Harness harness(argc, argv, tacos::entry::kJournalFlags);
  const auto& opts = harness.options();
  std::vector<std::string> reps;
  for (auto name : tacos::representative_benchmarks())
    reps.emplace_back(name);
  tacos::RunHealth health;
  const int rc = tacos::benchmain::run(
      "Fig. 6: max IPS and cost vs interposer size",
      [&] { return tacos::fig6_perf_cost_table(opts, reps, &health); });
  tacos::benchmain::report_health("fig6", health);
  return harness.finish(rc);
}
