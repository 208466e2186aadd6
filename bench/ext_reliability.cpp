/// Extension experiment (paper §V-B, last sentence): quantify the
/// reliability benefit of thermally-aware organization.  For each
/// benchmark, run the 2D baseline's best operating point on (a) the
/// single chip and (b) a spaced 16-chiplet system, and convert the
/// temperature drop into an Arrhenius lifetime factor (Ea = 0.7 eV).
#include <sstream>

#include "bench_main.hpp"
#include "core/evaluator.hpp"
#include "core/reliability.hpp"

namespace {

tacos::TextTable reliability_table(const tacos::ExperimentOptions& opts) {
  using namespace tacos;
  Evaluator eval(opts.eval_config());
  TextTable t({"benchmark", "operating_point", "2D_peak_c", "25D_peak_c",
               "delta_c", "lifetime_factor"});
  for (const BenchmarkProfile& bench : benchmarks()) {
    const BaselinePoint& base = eval.baseline_2d(bench, opts.threshold_c);
    if (!base.feasible) {
      t.add_row({std::string(bench.name), "2D infeasible", "-", "-", "-",
                 "-"});
      continue;
    }
    // Same operating point, spaced 16-chiplet organization (4 mm uniform).
    const Organization org25{16, {4.0, 2.0, 4.0}, base.dvfs_idx,
                             base.active_cores};
    const double t25 = eval.thermal_eval(org25, bench).peak_c;
    std::ostringstream op;
    op << kDvfsLevels[base.dvfs_idx].freq_mhz << "MHz p="
       << base.active_cores;
    t.add_row({std::string(bench.name), op.str(),
               TextTable::fmt(base.peak_c, 1), TextTable::fmt(t25, 1),
               TextTable::fmt(base.peak_c - t25, 1),
               TextTable::fmt(mttf_factor(t25, base.peak_c), 2) + "x"});
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  tacos::ExperimentOptions defaults;
  defaults.grid = 24;
  const tacos::benchmain::Harness harness(argc, argv,
                                          tacos::entry::kSolveFlags, defaults);
  return tacos::benchmain::run(
      "Extension: lifetime benefit at the 2D operating point",
      [&] { return reliability_table(harness.options()); });
}
