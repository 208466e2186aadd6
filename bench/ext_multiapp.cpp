/// Extension experiment (paper §IV, final paragraph): multi-application
/// chiplet organization.  A fixed placement must serve a mix of
/// applications, each running at its own best (f, p).  Compares the
/// paper's three designer strategies — worst-case, average-case and
/// weighted-average — on a high/medium/low-power mix.
#include <sstream>

#include "bench_main.hpp"
#include "core/multiapp.hpp"

namespace {

tacos::TextTable multiapp_table(const tacos::ExperimentOptions& opts) {
  using namespace tacos;
  // Mix: mostly cholesky (frequent), some hpccg, occasional canneal.
  const std::vector<AppWeight> mix = {
      {"cholesky", 0.6}, {"hpccg", 0.3}, {"canneal", 0.1}};

  TextTable t({"strategy", "alpha/beta", "n", "spacing(s1 s2 s3)",
               "interposer_mm", "cost_norm", "per_app_ips_vs_2D"});
  struct Case {
    MultiAppStrategy strategy;
    const char* name;
    double alpha, beta;
  };
  const std::vector<Case> cases = {
      {MultiAppStrategy::kWeighted, "weighted", 1.0, 0.0},
      {MultiAppStrategy::kWeighted, "weighted", 0.5, 0.5},
      {MultiAppStrategy::kAverage, "average", 0.5, 0.5},
      {MultiAppStrategy::kWorstCase, "worst-case", 1.0, 0.0},
  };
  for (const Case& c : cases) {
    Evaluator eval(opts.eval_config());
    OptimizerOptions oo = opts.optimizer_options(c.alpha, c.beta);
    oo.step_mm = 2.0;  // placement enumeration granularity
    oo.starts = 4;
    const MultiAppResult r =
        optimize_multiapp(eval, mix, c.strategy, oo);
    std::ostringstream ab, sp, apps;
    ab << c.alpha << "/" << c.beta;
    if (r.found) {
      sp << "(" << r.spacing.s1 << " " << r.spacing.s2 << " "
         << r.spacing.s3 << ")";
      for (const auto& a : r.apps)
        apps << a.benchmark << "=" << TextTable::fmt(a.ips_vs_2d, 2) << " ";
    }
    t.add_row({c.name, ab.str(),
               r.found ? std::to_string(r.n_chiplets) : "-",
               r.found ? sp.str() : "none",
               r.found ? TextTable::fmt(r.interposer_mm, 1) : "-",
               r.found ? TextTable::fmt(r.cost_norm, 3) : "-",
               r.found ? apps.str() : "-"});
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
      "Extension: multi-application organization strategies",
      [&] { return multiapp_table(harness.options()); });
}
