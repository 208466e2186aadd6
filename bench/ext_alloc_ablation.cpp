/// Extension experiment (design-choice ablation): the paper adopts the
/// MinTemp workload-allocation policy [20] without comparison.  This
/// bench re-runs the 2D baseline search and the iso-cost maximum-IPS
/// optimization under each allocation policy.  MinTemp's outward
/// chessboard spreading raises the 2D baseline (absolute IPS) the most;
/// once the 2.5D optimizer activates all 256 cores the policies converge
/// (every core is on), which is itself an interesting null result.
#include <sstream>

#include "bench_main.hpp"

namespace {

tacos::TextTable ablation_table(const tacos::ExperimentOptions& opts) {
  using namespace tacos;
  TextTable t({"benchmark", "policy", "2D_best", "2D_ips", "25D_ips",
               "25D_org"});
  for (const auto* bench_name : {"cholesky", "hpccg"}) {
    const BenchmarkProfile& bench = benchmark_by_name(bench_name);
    for (AllocPolicy policy :
         {AllocPolicy::kMinTemp, AllocPolicy::kCheckerboard,
          AllocPolicy::kRowMajor, AllocPolicy::kCenterFirst}) {
      EvalConfig cfg = opts.eval_config();
      cfg.policy = policy;
      Evaluator eval(cfg);
      const BaselinePoint& base = eval.baseline_2d(bench, opts.threshold_c);
      OptimizerOptions oo = opts.optimizer_options(1.0, 0.0);
      Rng rng(opts.seed);
      // Iso-cost 16-chiplet interposer is ~42mm (cost crosses 1.0 there).
      const MaxIpsResult r =
          max_ips_at_interposer(eval, bench, 16, 42.0, oo, rng);
      std::ostringstream b2d;
      if (base.feasible)
        b2d << kDvfsLevels[base.dvfs_idx].freq_mhz << "MHz p="
            << base.active_cores;
      else
        b2d << "infeasible";
      std::ostringstream org;
      if (r.found)
        org << level_of(r.org).freq_mhz << "MHz p=" << r.org.active_cores;
      t.add_row({std::string(bench.name),
                 std::string(alloc_policy_name(policy)), b2d.str(),
                 base.feasible ? TextTable::fmt(base.ips, 0) : "n/a",
                 r.found ? TextTable::fmt(r.ips, 0) : "n/a",
                 r.found ? org.str() : "none"});
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
      "Extension: allocation-policy ablation (iso-cost max IPS)",
      [&] { return ablation_table(harness.options()); });
}
