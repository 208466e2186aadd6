/// Extension experiment: phase-resolved transient analysis.  The paper
/// sizes organizations against the worst-case steady state; real
/// workloads alternate compute and stall phases (Sniper's 1 ms stats,
/// §IV).  For each benchmark this bench runs a 30 s synthetic phase trace
/// on the Fig. 8 iso-cost organization and reports the transient peak vs
/// the steady-state peak — the steady-state methodology is conservative,
/// and the margin is the headroom a phase-aware controller could exploit.
#include "bench_main.hpp"
#include "core/leakage.hpp"
#include "core/trace_sim.hpp"
#include "materials/stack.hpp"

namespace {

tacos::TextTable trace_table(const tacos::ExperimentOptions& opts) {
  using namespace tacos;
  const SystemSpec spec;
  const PowerModelParams pm;
  std::vector<int> all(256);
  for (int i = 0; i < 256; ++i) all[static_cast<std::size_t>(i)] = i;

  const ThermalConfig cfg = opts.thermal_config();
  const ChipletLayout layout = make_uniform_layout(4, 6.0, spec);  // 16c, 40mm

  TextTable t({"benchmark", "mean_activity", "steady_peak_c",
               "trace_max_peak_c", "trace_mean_peak_c", "headroom_c",
               "time_above_85c_s"});
  for (const BenchmarkProfile& bench : benchmarks()) {
    ThermalModel model(layout, make_25d_stack(), cfg);
    const LeakageResult steady = run_leakage_fixed_point(
        model, layout, bench, kDvfsLevels[0], all, pm);
    // Start the trace from the mean-activity steady state... approximated
    // by resetting to ambient and letting a warm-up prefix settle.
    model.reset_to_ambient();
    const auto warmup = synthetic_trace(bench, 20.0, 0.25, opts.seed + 1);
    simulate_trace(model, layout, bench, kDvfsLevels[0], all, pm, warmup);
    const auto trace = synthetic_trace(bench, 30.0, 0.25, opts.seed);
    const TraceStats st = simulate_trace(model, layout, bench,
                                         kDvfsLevels[0], all, pm, trace);
    t.add_row({std::string(bench.name),
               TextTable::fmt(mean_activity(trace), 3),
               TextTable::fmt(steady.peak_c, 1),
               TextTable::fmt(st.max_peak_c, 1),
               TextTable::fmt(st.mean_peak_c, 1),
               TextTable::fmt(steady.peak_c - st.max_peak_c, 1),
               TextTable::fmt(st.time_above_threshold_s, 2)});
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
      "Extension: phase-trace transient vs steady-state sizing",
      [&] { return trace_table(harness.options()); });
}
