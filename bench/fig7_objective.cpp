/// Reproduces Fig. 7: minimum Eq. (5) objective value across interposer
/// sizes for (alpha, beta) in {(0,1), (1,0), (0.5,0.5)}, for the
/// representative benchmarks (E6).
#include "bench_main.hpp"

int main(int argc, char** argv) {
  tacos::benchmain::Harness harness(argc, argv, tacos::entry::kJournalFlags);
  const auto& opts = harness.options();
  std::vector<std::string> reps;
  for (auto name : tacos::representative_benchmarks())
    reps.emplace_back(name);
  tacos::RunHealth health;
  const int rc = tacos::benchmain::run(
      "Fig. 7: objective value vs interposer size",
      [&] { return tacos::fig7_objective_table(opts, reps, &health); });
  tacos::benchmain::report_health("fig7", health);
  return harness.finish(rc);
}
