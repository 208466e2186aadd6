/// Extension experiment (not in the paper): computational sprinting on
/// 2.5D organizations.  The paper lists computational sprinting [7] as a
/// complementary dark-silicon technique; this bench quantifies the
/// complement — how long each organization can run ALL 256 cores at 1 GHz
/// from a cold start before crossing 85 C, and what power it can sustain
/// forever.  Chiplet spacing both raises the sustainable budget and
/// stretches the sprint.
#include <vector>

#include "bench_main.hpp"
#include "core/sprint.hpp"
#include "materials/stack.hpp"

namespace {

tacos::TextTable sprint_table(const tacos::ExperimentOptions& opts) {
  using namespace tacos;
  const SystemSpec spec;
  const PowerModelParams pm;
  std::vector<int> all(256);
  for (int i = 0; i < 256; ++i) all[static_cast<std::size_t>(i)] = i;

  const ThermalConfig cfg = opts.thermal_config();

  struct Config {
    std::string name;
    ChipletLayout layout;
    const LayerStack stack;
  };
  std::vector<Config> configs;
  configs.push_back({"2D single chip", make_single_chip_layout(spec),
                     make_2d_stack()});
  configs.push_back({"16c packed (20mm)", make_uniform_layout(4, 0.0, spec),
                     make_25d_stack()});
  configs.push_back({"16c g=4mm (32mm)", make_uniform_layout(4, 4.0, spec),
                     make_25d_stack()});
  configs.push_back({"16c g=10mm (50mm)", make_uniform_layout(4, 10.0, spec),
                     make_25d_stack()});

  TextTable t({"organization", "benchmark", "sprint_s_to_85C",
               "steady_peak_c", "sustainable"});
  for (const auto& bench_name : {"shock", "hpccg", "canneal"}) {
    const BenchmarkProfile& bench = benchmark_by_name(bench_name);
    for (const auto& c : configs) {
      ThermalModel model(c.layout, c.stack, cfg);
      // Steady-state peak at full tilt (sustainability check).
      const LeakageResult steady = run_leakage_fixed_point(
          model, c.layout, bench, kDvfsLevels[0], all, pm);
      model.reset_to_ambient();
      const SprintResult r = measure_sprint(model, c.layout, bench,
                                            kDvfsLevels[0], all, pm, 85.0,
                                            0.25, 120.0);
      t.add_row({c.name, std::string(bench.name),
                 r.sustainable ? ">120" : TextTable::fmt(r.duration_s, 2),
                 TextTable::fmt(steady.peak_c, 1),
                 steady.peak_c <= 85.0 ? "yes" : "no"});
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
      "Extension: computational sprinting across organizations",
      [&] { return sprint_table(harness.options()); });
}
