/// Extension experiment (design-choice ablation): the paper's multi-start
/// greedy vs a simulated-annealing search over the joint organization
/// space.  The greedy exploits that Eq. (5) is simulation-free per
/// combination (only Eq. (6) needs thermal solves); annealing pays a
/// solve per move.  This bench compares solution quality and simulation
/// budgets on identical evaluators.
#include <sstream>

#include "bench_main.hpp"
#include "core/annealing.hpp"

namespace {

tacos::TextTable annealing_table(const tacos::ExperimentOptions& opts) {
  using namespace tacos;
  TextTable t({"benchmark", "method", "objective", "ips_norm", "peak_c",
               "thermal_solves"});
  for (const auto* bench_name : {"cholesky", "canneal"}) {
    const BenchmarkProfile& bench = benchmark_by_name(bench_name);
    // Fresh evaluators so the two methods' solve counts are comparable.
    {
      Evaluator eval(opts.eval_config());
      const BaselinePoint& base = eval.baseline_2d(bench, opts.threshold_c);
      eval.reset_stats();
      const OptResult g =
          optimize_greedy(eval, bench, opts.optimizer_options(1.0, 0.0));
      t.add_row({std::string(bench.name), "multi-start greedy",
                 g.found ? TextTable::fmt(g.objective, 4) : "none",
                 g.found && base.feasible
                     ? TextTable::fmt(g.ips / base.ips, 3)
                     : "n/a",
                 g.found ? TextTable::fmt(g.peak_c, 1) : "n/a",
                 std::to_string(g.thermal_solves)});
    }
    {
      Evaluator eval(opts.eval_config());
      const BaselinePoint& base = eval.baseline_2d(bench, opts.threshold_c);
      eval.reset_stats();
      AnnealOptions ao;
      ao.alpha = 1.0;
      ao.beta = 0.0;
      ao.threshold_c = opts.threshold_c;
      ao.step_mm = opts.opt_step_mm;
      ao.iterations = 250;
      ao.seed = opts.seed;
      const OptResult a = optimize_annealing(eval, bench, ao);
      t.add_row({std::string(bench.name), "simulated annealing",
                 a.found ? TextTable::fmt(a.objective, 4) : "none",
                 a.found && base.feasible
                     ? TextTable::fmt(a.ips / base.ips, 3)
                     : "n/a",
                 a.found ? TextTable::fmt(a.peak_c, 1) : "n/a",
                 std::to_string(a.thermal_solves)});
    }
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  tacos::ExperimentOptions defaults;
  defaults.grid = 24;
  using namespace tacos::entry;
  const tacos::benchmain::Harness harness(argc, argv,
                                          kSolveFlags | kRefineFlags, defaults);
  return tacos::benchmain::run(
      "Extension: multi-start greedy vs simulated annealing",
      [&] { return annealing_table(harness.options()); });
}
