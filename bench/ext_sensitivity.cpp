/// Extension experiment (robustness ablation): the thermal calibration's
/// single free parameter is the convective heat-transfer coefficient h
/// (DESIGN.md).  This bench re-runs the iso-cost improvement study for
/// the representative benchmarks at h ± ~30% and with the leakage slope
/// halved/doubled — the paper's qualitative conclusions (large gains for
/// high-power benchmarks, saturation-limited gains for low-power ones)
/// must not hinge on the calibration point.
#include <sstream>

#include "bench_main.hpp"

namespace {

tacos::TextTable sensitivity_table(const tacos::ExperimentOptions& opts) {
  using namespace tacos;
  TextTable t({"variant", "benchmark", "2D_best", "improvement_pct"});

  struct Variant {
    std::string name;
    double h;
    double lambda;
  };
  const std::vector<Variant> variants = {
      {"baseline (h=2800, l=0.012)", 2800.0, 0.012},
      {"weak cooling (h=2000)", 2000.0, 0.012},
      {"strong cooling (h=3600)", 3600.0, 0.012},
      {"low leakage slope (l=0.006)", 2800.0, 0.006},
      {"high leakage slope (l=0.024)", 2800.0, 0.024},
  };
  for (const Variant& v : variants) {
    EvalConfig cfg = opts.eval_config();
    cfg.thermal.package.h_convection = v.h;
    cfg.power.lambda_per_k = v.lambda;
    Evaluator eval(cfg);
    for (auto name : representative_benchmarks()) {
      const BenchmarkProfile& bench = benchmark_by_name(name);
      const BaselinePoint& base = eval.baseline_2d(bench, opts.threshold_c);
      OptimizerOptions oo = opts.optimizer_options(1.0, 0.0);
      Rng rng(opts.seed);
      // Iso-cost 16-chiplet interposer (~42 mm, h-independent).
      const MaxIpsResult r =
          max_ips_at_interposer(eval, bench, 16, 42.0, oo, rng);
      std::ostringstream b2d;
      if (base.feasible)
        b2d << kDvfsLevels[base.dvfs_idx].freq_mhz << "MHz p="
            << base.active_cores;
      else
        b2d << "infeasible";
      t.add_row({v.name, std::string(bench.name), b2d.str(),
                 r.found && base.feasible
                     ? TextTable::fmt((r.ips / base.ips - 1.0) * 100.0, 1)
                     : "n/a"});
    }
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
      "Extension: calibration sensitivity of the iso-cost improvement",
      [&] { return sensitivity_table(harness.options()); });
}
