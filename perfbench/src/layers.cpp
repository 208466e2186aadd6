#include "layers.hpp"

#include <initializer_list>
#include <map>

namespace perfbench {

namespace {

using tacos::obs::MetricsSnapshot;

class Reader {
 public:
  explicit Reader(const MetricsSnapshot& snap) {
    for (const auto& [name, v] : snap.counters) counters_[name] = v;
    for (const auto& [name, h] : snap.histograms)
      hists_[name] = {h.sum, static_cast<double>(h.count)};
  }

  double counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }
  /// Sum of `span.<site>.<field>` over the given sites.
  double spans(std::initializer_list<const char*> sites,
               const char* field) const {
    double s = 0.0;
    for (const char* site : sites)
      s += counter(std::string("span.") + site + "." + field);
    return s;
  }
  double hist_sum(const std::string& name) const { return hist(name).first; }
  double hist_count(const std::string& name) const {
    return hist(name).second;
  }

 private:
  std::pair<double, double> hist(const std::string& name) const {
    const auto it = hists_.find(name);
    return it == hists_.end() ? std::pair<double, double>{0.0, 0.0}
                              : it->second;
  }
  std::map<std::string, double> counters_;
  std::map<std::string, std::pair<double, double>> hists_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<Metric> layer_metrics(const MetricsSnapshot& snap,
                                  const Counts& c) {
  const Reader r(snap);
  const auto n = [](std::size_t v) { return static_cast<double>(v); };
  const double leak_iters = r.hist_sum("leakage.iterations");
  const double leak_runs = r.hist_count("leakage.iterations");
  const double pcg_iters = r.hist_sum("pcg.iterations");
  const double pcg_solves = r.hist_count("pcg.iterations");
  return {
      // core: optimizer walk
      {"optimizer.combos", n(c.combos), "count"},
      {"optimizer.self_s", r.spans({"opt.task"}, "self_s"), "s"},
      {"optimizer.baseline_s", r.spans({"eval.baseline"}, "total_s"), "s"},
      // core: fidelity ladder
      {"ladder.screened", n(c.screened), "count"},
      {"ladder.rejected", n(c.rejected), "count"},
      {"ladder.reject_ratio", ratio(n(c.rejected), n(c.screened)), "ratio"},
      {"ladder.surrogate_scores", n(c.surrogate_scores), "count"},
      {"ladder.coarse_solves", n(c.coarse_solves), "count"},
      {"ladder.medium_solves", n(c.medium_solves), "count"},
      {"ladder.rung0_s", r.spans({"eval.rung0"}, "total_s"), "s"},
      {"ladder.rung1_s", r.spans({"eval.rung1"}, "total_s"), "s"},
      {"ladder.rung2_s", r.spans({"eval.rung2"}, "total_s"), "s"},
      // core: evaluator (holds model assembly: the library has no span
      // around the ThermalModel constructor)
      {"evaluator.evals", n(c.evals), "count"},
      {"evaluator.self_s",
       r.spans({"eval.thermal", "eval.perf", "eval.cost"}, "self_s"), "s"},
      // core: leakage fixed point
      {"leakage.fixed_points", leak_runs, "count"},
      {"leakage.iters", leak_iters, "count"},
      {"leakage.iters_per_eval", ratio(leak_iters, leak_runs), "ratio"},
      {"leakage.nonconverged", n(c.leak_nonconverged), "count"},
      {"leakage.self_s", r.spans({"eval.leakage", "leakage.iter"}, "self_s"),
       "s"},
      // thermal + floorplan: model assembly, timed by the benchmark
      {"thermal.build_calls", r.spans({"bench.thermal.build"}, "calls"),
       "count"},
      {"thermal.build_s", r.spans({"bench.thermal.build"}, "total_s"), "s"},
      // thermal: steady solve
      {"thermal.solves", r.counter("thermal.solves"), "count"},
      {"thermal.solve_s", r.spans({"thermal.solve"}, "total_s"), "s"},
      {"thermal.recoveries", n(c.recoveries), "count"},
      // thermal: transient steps
      {"thermal.steps", n(c.steps), "count"},
      {"thermal.step_s", r.spans({"bench.thermal.step"}, "total_s"), "s"},
      {"thermal.step_iters", n(c.step_iters), "count"},
      // linalg: PCG (the CG loop outside the preconditioner: steady rungs,
      // the coarse rung and the Jacobi transient steps)
      {"pcg.solves", pcg_solves, "count"},
      {"pcg.iters", pcg_iters, "count"},
      {"pcg.iters_per_solve", ratio(pcg_iters, pcg_solves), "ratio"},
      {"pcg.self_s",
       r.spans({"thermal.rung.warm", "thermal.rung.cold", "thermal.rung.cap",
                "thermal.rung.gs", "thermal.coarse", "bench.thermal.step"},
               "self_s"),
       "s"},
      // linalg: multigrid
      {"mg.builds", r.spans({"thermal.mg.build"}, "calls"), "count"},
      {"mg.build_s", r.spans({"thermal.mg.build"}, "total_s"), "s"},
      {"mg.cycles", r.counter("thermal.mg.cycles"), "count"},
      {"mg.cycle_s", r.spans({"thermal.mg.cycle"}, "total_s"), "s"},
      {"mg.coarse_s", r.spans({"thermal.mg.coarse"}, "total_s"), "s"},
      // power: power maps (inside the leakage loop, and per transient step)
      {"power.map_calls", r.spans({"power.build_map", "bench.power.map"}, "calls"),
       "count"},
      {"power.map_s", r.spans({"power.build_map", "bench.power.map"}, "total_s"),
       "s"},
      // common: run journal
      {"journal.rows", n(c.journal_rows), "count"},
      {"journal.bytes", n(c.journal_bytes), "bytes"},
      {"journal.open_s", r.spans({"bench.journal.open"}, "total_s"), "s"},
  };
}

double span_self_seconds(const MetricsSnapshot& before,
                         const MetricsSnapshot& after) {
  const auto self_sum = [](const MetricsSnapshot& s) {
    double t = 0.0;
    for (const auto& [name, v] : s.counters)
      if (name.starts_with("span.") && name.ends_with(".self_s")) t += v;
    return t;
  };
  return self_sum(after) - self_sum(before);
}

}  // namespace perfbench
