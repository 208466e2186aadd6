#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/sprint.hpp"
#include "floorplan/layout.hpp"
#include "materials/stack.hpp"
#include "obs/metrics.hpp"
#include "perf/phases.hpp"
#include "power/power_model.hpp"
#include "thermal/grid_model.hpp"

namespace tacos {
namespace {

ThermalConfig coarse(std::size_t n = 16,
                     PrecondKind precond = PrecondKind::kAuto) {
  ThermalConfig c;
  c.grid_nx = c.grid_ny = n;
  c.solve.precond = precond;
  return c;
}

/// The two step paths: Jacobi (forced) at grid 16, kAuto (multigrid)
/// at grid 32.
PrecondKind precond_at(std::size_t grid) {
  return grid == 16 ? PrecondKind::kJacobi : PrecondKind::kAuto;
}

PowerMap uniform_power(const ChipletLayout& l, double watts) {
  PowerMap p;
  for (const auto& c : l.chiplets()) p.add(c.rect, watts / l.chiplet_count());
  return p;
}

TEST(Transient, ZeroPowerStaysAtAmbient) {
  const ChipletLayout l = make_uniform_layout(2, 2.0);
  ThermalModel m(l, make_25d_stack(), coarse());
  m.reset_to_ambient();
  const ThermalResult r = m.step_transient(PowerMap{}, 0.1);
  EXPECT_NEAR(r.peak_c, 45.0, 1e-6);
}

TEST(Transient, HeatsMonotonicallyFromAmbientUnderConstantPower) {
  const ChipletLayout l = make_uniform_layout(2, 2.0);
  ThermalModel m(l, make_25d_stack(), coarse());
  m.reset_to_ambient();
  const PowerMap p = uniform_power(l, 250.0);
  double prev = 45.0;
  for (int i = 0; i < 10; ++i) {
    const double peak = m.step_transient(p, 0.05).peak_c;
    EXPECT_GT(peak, prev);
    prev = peak;
  }
}

TEST(Transient, ConvergesToSteadyState) {
  // Grid 16 steps on Jacobi, grid 32 on multigrid (precond_at).
  for (const std::size_t grid : {16u, 32u}) {
    const ChipletLayout l = make_uniform_layout(2, 3.0);
    ThermalModel m_ss(l, make_25d_stack(), coarse(grid, precond_at(grid)));
    const PowerMap p = uniform_power(l, 200.0);
    const double steady = m_ss.solve(p).peak_c;

    ThermalModel m_tr(l, make_25d_stack(), coarse(grid, precond_at(grid)));
    m_tr.reset_to_ambient();
    double peak = 0.0;
    // Long steps march straight to the steady state (backward Euler is
    // unconditionally stable, so dt can exceed every time constant).
    for (int i = 0; i < 40; ++i) peak = m_tr.step_transient(p, 5.0).peak_c;
    EXPECT_NEAR(peak, steady, 0.05) << "grid " << grid;
    // And never overshoots it.
    EXPECT_LE(peak, steady + 1e-6) << "grid " << grid;
  }
}

TEST(Transient, DiscreteEnergyBalanceHolds) {
  // Backward Euler identity: sum_i C_i (T1_i - T0_i) / dt
  //   = P_total - sum_i g_i (T1_i - T_amb), exact per step up to the
  // solver tolerance.  Grid 16 steps on Jacobi, grid 32 on multigrid
  // (precond_at).
  for (const std::size_t grid : {16u, 32u}) {
    const ChipletLayout l = make_uniform_layout(4, 2.0);
    ThermalConfig cfg = coarse(grid, precond_at(grid));
    cfg.solve.rel_tolerance = 1e-11;
    ThermalModel m(l, make_25d_stack(), cfg);
    m.reset_to_ambient();
    const double dt = 0.02;
    for (int step = 0; step < 6; ++step) {
      const PowerMap p = uniform_power(l, step % 2 == 0 ? 300.0 : 120.0);
      const double before = m.stored_heat_j();
      m.step_transient(p, dt);
      const double rate = (m.stored_heat_j() - before) / dt;
      const double net_in = p.total() - m.heat_outflow_w();
      EXPECT_NEAR(rate, net_in, 1e-6 * p.total())
          << "grid " << grid << " step " << step;
    }
    // Six 20 ms steps heat silicon by a bounded, positive amount.
    EXPECT_GT(m.current_peak_c(), 45.0) << "grid " << grid;
    EXPECT_LT(m.current_peak_c(), 70.0) << "grid " << grid;
  }
}

TEST(Transient, MultigridStepsMatchJacobiSteps) {
  // A phase trace at grid 32 on the 16-chiplet 6 mm layout and on the 2D
  // baseline chip (the chip ext_sprinting steps): steps on the multigrid
  // hierarchy (kAuto) must land on the Jacobi steps' temperatures after
  // every step, in at most a fifth of the PCG iterations.  Both models
  // step under the same power maps.  At the default 1e-8 tolerance a
  // Jacobi step is itself only ~1e-4 °C from the exact solution, so both
  // run at 1e-10 (~2e-6 °C apart).
  const ChipletLayout l25 = make_uniform_layout(4, 6.0);
  const ChipletLayout l2d = make_single_chip_layout(SystemSpec{});
  const struct {
    const ChipletLayout* layout;
    LayerStack stack;
  } inputs[] = {{&l25, make_25d_stack()}, {&l2d, make_2d_stack()}};
  for (const auto& in : inputs) {
    const ChipletLayout& l = *in.layout;
    ThermalConfig cfg = coarse(32);
    cfg.solve.rel_tolerance = 1e-10;
    ThermalModel mg(l, in.stack, cfg);
    cfg.solve.precond = PrecondKind::kJacobi;
    ThermalModel jacobi(l, in.stack, cfg);
    ASSERT_EQ(mg.steady_precond(), PrecondKind::kMultigrid);
    jacobi.reset_to_ambient();
    mg.reset_to_ambient();

    const BenchmarkProfile& bench = benchmark_by_name("shock");
    std::vector<int> all(256);
    for (int i = 0; i < 256; ++i) all[static_cast<std::size_t>(i)] = i;
    const std::vector<Phase> trace = synthetic_trace(bench, 10.0, 0.25, 2018);
    ASSERT_GE(trace.size(), 40u);
    std::optional<std::vector<double>> tiles;
    std::size_t jacobi_iters = 0, mg_iters = 0;
    const std::string chip =
        std::to_string(l.chiplet_count()) + " chiplet(s)";
    for (std::size_t k = 0; k < trace.size(); ++k) {
      const PowerMap p = build_power_map(l, bench, kDvfsLevels[0], all, tiles,
                                         PowerModelParams{},
                                         trace[k].activity);
      jacobi_iters += jacobi.step_transient(p, trace[k].duration_s)
                          .solve_info.iterations;
      mg_iters +=
          mg.step_transient(p, trace[k].duration_s).solve_info.iterations;
      tiles = jacobi.tile_temperatures();
      const std::vector<double> tm = mg.tile_temperatures();
      for (std::size_t i = 0; i < tm.size(); ++i)
        ASSERT_NEAR((*tiles)[i], tm[i], 1e-5)
            << chip << " step " << k << " tile " << i;
    }
    EXPECT_LE(5 * mg_iters, jacobi_iters)
        << chip << " jacobi=" << jacobi_iters << " mg=" << mg_iters;
  }
}

TEST(Transient, StepsAreTracedApartFromSteadySolves) {
  // Model builds, steps and the step hierarchy's build each leave their
  // own span; steps count in thermal.steps and never in thermal.solves.
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::global().reset_values();
  {
    const ChipletLayout l = make_uniform_layout(2, 2.0);
    ThermalModel m(l, make_25d_stack(), coarse(32));
    m.solve(uniform_power(l, 200.0));
    for (int i = 0; i < 3; ++i) m.step_transient(uniform_power(l, 250.0), 0.1);
  }
  obs::set_metrics_enabled(false);
  std::map<std::string, double> c;
  for (const auto& [name, v] :
       obs::MetricsRegistry::global().snapshot().counters)
    c[name] = v;
  EXPECT_EQ(c["thermal.solves"], 1.0);
  EXPECT_EQ(c["thermal.steps"], 3.0);
  EXPECT_EQ(c["span.thermal.build.calls"], 1.0);
  EXPECT_EQ(c["span.thermal.step.calls"], 3.0);
  EXPECT_EQ(c["span.thermal.solve.calls"], 1.0);
  EXPECT_EQ(c["span.thermal.rung.warm.calls"], 4.0);
  // One hierarchy for G, one for G + C/dt.
  EXPECT_EQ(c["span.thermal.mg.build.calls"], 2.0);
}

TEST(Transient, TimeSteppingIsConsistentAcrossStepSizes) {
  const ChipletLayout l = make_uniform_layout(2, 2.0);
  const PowerMap p = uniform_power(l, 250.0);
  ThermalModel fine(l, make_25d_stack(), coarse());
  ThermalModel coarse_steps(l, make_25d_stack(), coarse());
  fine.reset_to_ambient();
  coarse_steps.reset_to_ambient();
  for (int i = 0; i < 20; ++i) fine.step_transient(p, 0.05);
  for (int i = 0; i < 5; ++i) coarse_steps.step_transient(p, 0.2);
  // Backward Euler is first order: agree within a couple of degrees.
  EXPECT_NEAR(fine.current_peak_c(), coarse_steps.current_peak_c(), 2.5);
}

TEST(Transient, CoolsAfterPowerOff) {
  const ChipletLayout l = make_uniform_layout(2, 2.0);
  ThermalModel m(l, make_25d_stack(), coarse());
  const PowerMap p = uniform_power(l, 300.0);
  m.solve(p);  // hot steady state
  const double hot = m.current_peak_c();
  double prev = hot;
  for (int i = 0; i < 5; ++i) {
    const double peak = m.step_transient(PowerMap{}, 1.0).peak_c;
    EXPECT_LT(peak, prev);
    prev = peak;
  }
}

TEST(Transient, InvalidStepRejected) {
  const ChipletLayout l = make_uniform_layout(2, 1.0);
  ThermalModel m(l, make_25d_stack(), coarse(8));
  EXPECT_THROW(m.step_transient(PowerMap{}, 0.0), Error);
  EXPECT_THROW(m.step_transient(PowerMap{}, -1.0), Error);
}

TEST(Transient, CapacitanceIsPhysicallyPlausible) {
  // The 22 mm-interposer package is dominated by the copper sink
  // (88 mm edge, 6.9 mm thick): C ≈ 3.45 MJ/m^3K * 53 cm^3 ≈ 184 J/K,
  // plus spreader ≈ 6.7 J/K and the thin die stack.
  const ChipletLayout l = make_uniform_layout(2, 2.0);
  ThermalModel m(l, make_25d_stack(), coarse());
  EXPECT_GT(m.total_capacitance(), 150.0);
  EXPECT_LT(m.total_capacitance(), 260.0);
}

TEST(Sprint, HotterPowerShortensSprint) {
  const ChipletLayout l = make_uniform_layout(4, 1.0);
  const PowerModelParams pm;
  std::vector<int> all(256);
  for (int i = 0; i < 256; ++i) all[static_cast<std::size_t>(i)] = i;

  ThermalModel m1(l, make_25d_stack(), coarse());
  m1.reset_to_ambient();
  const SprintResult fast = measure_sprint(
      m1, l, benchmark_by_name("shock"), kDvfsLevels[0], all, pm, 85.0, 0.2,
      40.0);

  ThermalModel m2(l, make_25d_stack(), coarse());
  m2.reset_to_ambient();
  const SprintResult slow = measure_sprint(
      m2, l, benchmark_by_name("lu.cont"), kDvfsLevels[0], all, pm, 85.0,
      0.2, 40.0);

  ASSERT_FALSE(fast.sustainable);  // shock at full tilt must hit 85 °C
  if (!slow.sustainable) EXPECT_GT(slow.duration_s, fast.duration_s);
}

TEST(Sprint, SpacingExtendsSprintDuration) {
  // The extension's headline: chiplet spacing buys sprint time.
  const PowerModelParams pm;
  std::vector<int> all(256);
  for (int i = 0; i < 256; ++i) all[static_cast<std::size_t>(i)] = i;
  const BenchmarkProfile& bench = benchmark_by_name("shock");

  const ChipletLayout packed = make_uniform_layout(4, 0.0);
  ThermalModel mp(packed, make_25d_stack(), coarse());
  mp.reset_to_ambient();
  const SprintResult sp = measure_sprint(mp, packed, bench, kDvfsLevels[0],
                                         all, pm, 85.0, 0.2, 40.0);

  const ChipletLayout spread = make_uniform_layout(4, 6.0);
  ThermalModel ms(spread, make_25d_stack(), coarse());
  ms.reset_to_ambient();
  const SprintResult ss = measure_sprint(ms, spread, bench, kDvfsLevels[0],
                                         all, pm, 85.0, 0.2, 40.0);

  ASSERT_FALSE(sp.sustainable);
  if (!ss.sustainable) {
    EXPECT_GT(ss.duration_s, sp.duration_s * 1.2);
  }
}

TEST(Sprint, AlreadyHotReturnsZeroDuration) {
  const ChipletLayout l = make_uniform_layout(2, 0.0);
  const PowerModelParams pm;
  std::vector<int> all(256);
  for (int i = 0; i < 256; ++i) all[static_cast<std::size_t>(i)] = i;
  ThermalModel m(l, make_25d_stack(), coarse());
  // Pre-heat far beyond the threshold.
  m.solve(uniform_power(l, 500.0));
  const SprintResult r = measure_sprint(
      m, l, benchmark_by_name("shock"), kDvfsLevels[0], all, pm, 85.0);
  EXPECT_FALSE(r.sustainable);
  EXPECT_DOUBLE_EQ(r.duration_s, 0.0);
}

}  // namespace
}  // namespace tacos
