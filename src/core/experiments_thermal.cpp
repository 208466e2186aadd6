#include <string>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "core/durable.hpp"
#include "core/experiments.hpp"
#include "core/leakage.hpp"
#include "materials/stack.hpp"

namespace tacos {

namespace {

/// A monolithic chip of arbitrary edge (for Fig. 3(b)'s "new 2D single
/// chip" series): reuse the tile machinery with a scaled tile edge.
ChipletLayout grown_single_chip(double edge_mm) {
  SystemSpec spec;
  spec.tile_edge_mm = edge_mm / spec.tiles_per_side;
  spec.max_interposer_mm = std::max(spec.max_interposer_mm, edge_mm);
  return make_single_chip_layout(spec);
}

PowerMap uniform_power(const ChipletLayout& l, double total_w) {
  PowerMap p;
  for (const auto& c : l.chiplets())
    p.add(c.rect, total_w * c.rect.area() / l.total_chiplet_area());
  return p;
}

// GuardedRows / quarantine_cell / durable_rows_map come from
// core/durable.hpp: the catch sits inside each task body, so surviving
// rows stay deterministic at any thread count, and the durability layer
// (journal replay, deadlines, interrupts) wraps the body.

}  // namespace

TextTable fig3b_thermal_table(const ExperimentOptions& opts,
                              RunHealth* health) {
  const SystemSpec spec;
  const double chip_area = spec.chip_edge_mm() * spec.chip_edge_mm();

  TextTable t({"series", "interposer_mm", "power_density_w_mm2", "peak_c"});
  const std::vector<double> densities = {0.5, 1.0, 1.5, 2.0};

  // One parallel task per series (r = 2..10 chiplet grids, plus the grown
  // single chip as r = 0); each task owns its models, and the join emits
  // rows in series order, so the table is identical at any thread count.
  std::vector<int> series;
  for (int r = 2; r <= 10; ++r) series.push_back(r);
  series.push_back(0);  // "new-2D"

  const auto series_label = [](int r) {
    return r == 0 ? std::string("new-2D")
                  : std::to_string(r) + "x" + std::to_string(r);
  };
  const std::vector<GuardedRows> blocks = durable_rows_map(
      series, opts.run, "fig3b", opts.fingerprint(),
      [&](int r) { return "fig3b:" + series_label(r); },
      [&](int r, const CancelToken* cancel) {
        GuardedRows out;
        SolveLedger led;  // one fault/health clock per series task
        const std::string label = series_label(r);
        const ThermalConfig task_cfg = opts.thermal_config(cancel);
        try {
          for (double w = 20.0; w <= spec.max_interposer_mm + 1e-9;
               w += 1.0) {
            const ChipletLayout l =
                r == 0 ? grown_single_chip(w)
                       : make_uniform_layout_for_interposer(r, w, spec);
            ThermalModel model(l, r == 0 ? make_2d_stack() : make_25d_stack(),
                               task_cfg);
            model.set_ledger(&led);
            for (double pd : densities) {
              const ThermalResult res =
                  model.solve(uniform_power(l, pd * chip_area));
              out.rows.push_back({label, TextTable::fmt(w, 0),
                                  TextTable::fmt(pd, 1),
                                  TextTable::fmt(res.peak_c, 2)});
            }
          }
        } catch (const Error& e) {
          out.rows = {{label, "-", "-", quarantine_cell(e)}};
          out.health.quarantined = 1;
        }
        out.health += led.health;
        return out;
      },
      [&](int r, const CancelledError& c) {
        GuardedRows g;
        g.rows = {{series_label(r), "-", "-", c.what()}};
        return g;
      });
  RunHealth h = merge_guarded(t, blocks);
  if (health) *health = h;
  return t;
}

TextTable fig5_spacing_table(const ExperimentOptions& opts,
                             RunHealth* health) {
  const SystemSpec spec;
  const PowerModelParams pm;
  const DvfsLevel& nominal = kDvfsLevels[0];
  std::vector<int> all_cores(static_cast<std::size_t>(spec.core_count()));
  for (int i = 0; i < spec.core_count(); ++i)
    all_cores[static_cast<std::size_t>(i)] = i;

  TextTable t({"benchmark", "chiplets", "spacing_mm", "interposer_mm",
               "power_w", "peak_c"});
  // One parallel task per benchmark; each task owns its thermal models and
  // returns its rows, appended at the join in benchmark order.
  std::vector<std::string> names;
  for (const BenchmarkProfile& bench : benchmarks())
    names.emplace_back(bench.name);
  const std::vector<GuardedRows> blocks = durable_rows_map(
      names, opts.run, "fig5", opts.fingerprint(),
      [](const std::string& name) { return "fig5:" + name; },
      [&](const std::string& name, const CancelToken* cancel) {
        GuardedRows out;
        SolveLedger led;  // one fault/health clock per benchmark task
        const ThermalConfig task_cfg = opts.thermal_config(cancel);
        try {
          const BenchmarkProfile& bench = benchmark_by_name(name);
          const auto note_leak = [&led](const LeakageResult& lr) {
            if (!lr.converged) ++led.health.leak_nonconverged;
          };
          // 0 mm: the single-chip system.
          {
            const ChipletLayout chip = make_single_chip_layout(spec);
            ThermalModel model(chip, make_2d_stack(), task_cfg);
            model.set_ledger(&led);
            const LeakageResult lr = run_leakage_fixed_point(
                model, chip, bench, nominal, all_cores, pm);
            note_leak(lr);
            out.rows.push_back({name, "1", "0.0",
                                TextTable::fmt(chip.interposer_edge(), 1),
                                TextTable::fmt(lr.total_power_w, 1),
                                TextTable::fmt(lr.peak_c, 2)});
          }
          // 2.5D: r x r chiplets, uniform spacing 0.5..10 mm within Eq. (7).
          for (int r : {2, 4, 8, 16}) {
            const double g_max = max_uniform_spacing(r, spec);
            for (double g = 0.5; g <= 10.0 + 1e-9; g += 0.5) {
              if (g > g_max + 1e-9) break;
              const ChipletLayout l = make_uniform_layout(r, g, spec);
              ThermalModel model(l, make_25d_stack(), task_cfg);
              model.set_ledger(&led);
              const LeakageResult lr = run_leakage_fixed_point(
                  model, l, bench, nominal, all_cores, pm);
              note_leak(lr);
              out.rows.push_back(
                  {name, std::to_string(r * r), TextTable::fmt(g, 1),
                   TextTable::fmt(l.interposer_edge(), 1),
                   TextTable::fmt(lr.total_power_w, 1),
                   TextTable::fmt(lr.peak_c, 2)});
            }
          }
        } catch (const Error& e) {
          out.rows = {{name, "-", "-", "-", "-", quarantine_cell(e)}};
          out.health.quarantined = 1;
        }
        out.health += led.health;
        return out;
      },
      [](const std::string& name, const CancelledError& c) {
        GuardedRows g;
        g.rows = {{name, "-", "-", "-", "-", c.what()}};
        return g;
      });
  RunHealth h = merge_guarded(t, blocks);
  if (health) *health = h;
  return t;
}

TextTable network_power_table(const ExperimentOptions&) {
  const SystemSpec spec;
  const MeshParams mesh;
  TextTable t({"layout", "onchip_links", "interposer_links",
               "avg_ilink_mm", "driver_size_15mm", "delay_ps_15mm",
               "power_w_peak", "power_w_avg_bench"});

  // Average network activity across the benchmark set.
  double avg_act = 0.0;
  for (const auto& b : benchmarks()) avg_act += b.net_activity;
  avg_act /= static_cast<double>(benchmarks().size());
  BenchmarkProfile peak_traffic = benchmark_by_name("shock");
  peak_traffic.net_activity = 1.0;
  BenchmarkProfile avg_traffic = peak_traffic;
  avg_traffic.net_activity = avg_act;

  const LinkDesign d15 = design_link(15.0, kNominalFreqMhz, mesh.link);

  const auto add = [&](const std::string& name, const ChipletLayout& l) {
    const MeshStructure s = analyze_mesh(l, mesh);
    t.add_row({name, std::to_string(s.onchip_links),
               std::to_string(s.interposer_links),
               TextTable::fmt(s.avg_interposer_link_mm, 2),
               std::to_string(d15.driver_size),
               TextTable::fmt(d15.delay_ps, 0),
               TextTable::fmt(network_power_w(l, peak_traffic, 1000.0, 0.9,
                                              mesh),
                              2),
               TextTable::fmt(network_power_w(l, avg_traffic, 1000.0, 0.9,
                                              mesh),
                              2)});
  };
  add("single-chip", make_single_chip_layout(spec));
  add("4-chiplet g=2mm", make_uniform_layout(2, 2.0, spec));
  add("4-chiplet g=8mm", make_uniform_layout(2, 8.0, spec));
  add("16-chiplet g=2mm", make_uniform_layout(4, 2.0, spec));
  add("16-chiplet g=10mm", make_uniform_layout(4, 10.0, spec));
  return t;
}

}  // namespace tacos
