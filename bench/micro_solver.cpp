/// Google-benchmark microbenchmarks of the thermal substrate (E12):
/// conductance-matrix assembly, cold and warm steady-state solves across
/// grid resolutions, and a full leakage-fixed-point evaluation.  These
/// quantify the per-simulation cost that the paper's 180k-CPU-hour
/// exhaustive-search estimate is built on.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "core/leakage.hpp"
#include "entry/run_options.hpp"
#include "floorplan/layout.hpp"
#include "materials/stack.hpp"
#include "perf/phases.hpp"
#include "power/power_model.hpp"
#include "thermal/grid_model.hpp"

namespace {

using namespace tacos;

/// Preconditioner every benchmarked solve uses (--precond=auto|jacobi|mg).
PrecondKind g_precond = PrecondKind::kAuto;

ThermalConfig config_for(std::size_t n) {
  ThermalConfig c;
  c.grid_nx = c.grid_ny = n;
  c.solve.precond = g_precond;
  return c;
}

PowerMap uniform_power(const ChipletLayout& l, double total_w) {
  PowerMap p;
  for (const auto& c : l.chiplets()) p.add(c.rect, total_w / l.chiplet_count());
  return p;
}

void BM_ModelAssembly(benchmark::State& state) {
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  const LayerStack stack = make_25d_stack();
  const ThermalConfig cfg = config_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ThermalModel model(l, stack, cfg);
    benchmark::DoNotOptimize(model.node_count());
  }
}
BENCHMARK(BM_ModelAssembly)->Arg(16)->Arg(32)->Arg(64);

void BM_ColdSolve(benchmark::State& state) {
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  const LayerStack stack = make_25d_stack();
  const ThermalConfig cfg = config_for(static_cast<std::size_t>(state.range(0)));
  const PowerMap p = uniform_power(l, 300.0);
  for (auto _ : state) {
    ThermalModel model(l, stack, cfg);  // fresh model -> cold start
    benchmark::DoNotOptimize(model.solve(p).peak_c);
  }
}
BENCHMARK(BM_ColdSolve)->Arg(16)->Arg(32)->Arg(64);

void BM_WarmSolve(benchmark::State& state) {
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  const LayerStack stack = make_25d_stack();
  const ThermalConfig cfg = config_for(static_cast<std::size_t>(state.range(0)));
  ThermalModel model(l, stack, cfg);
  PowerMap p = uniform_power(l, 300.0);
  model.solve(p);
  double w = 300.0;
  for (auto _ : state) {
    w = (w == 300.0) ? 303.0 : 300.0;  // small perturbation, warm restart
    benchmark::DoNotOptimize(model.solve(uniform_power(l, w)).peak_c);
  }
}
BENCHMARK(BM_WarmSolve)->Arg(16)->Arg(32)->Arg(64);

void BM_LeakageFixedPoint(benchmark::State& state) {
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  const LayerStack stack = make_25d_stack();
  const BenchmarkProfile& bench = benchmark_by_name("cholesky");
  const PowerModelParams pm;
  std::vector<int> active(256);
  for (int i = 0; i < 256; ++i) active[static_cast<std::size_t>(i)] = i;
  const ThermalConfig cfg = config_for(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ThermalModel model(l, stack, cfg);
    const LeakageResult r = run_leakage_fixed_point(
        model, l, bench, kDvfsLevels[0], active, pm);
    benchmark::DoNotOptimize(r.peak_c);
  }
}
BENCHMARK(BM_LeakageFixedPoint)->Arg(24)->Arg(32);

/// Steady half of the CI smoke check: cold-solve the 16-chiplet layout at
/// `grid` with Jacobi and with multigrid.  Fails unless both converge,
/// multigrid needs at least 8x fewer PCG iterations, and the temperature
/// fields agree to well within solver tolerance.
bool steady_selftest(std::size_t grid) {
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  const LayerStack stack = make_25d_stack();
  const PowerMap p = uniform_power(l, 300.0);

  struct Run {
    PrecondKind kind;
    SolveResult sr;
    std::vector<double> tile_temps;
  } runs[2] = {{PrecondKind::kJacobi, {}, {}},
               {PrecondKind::kMultigrid, {}, {}}};
  for (Run& r : runs) {
    ThermalConfig cfg;
    cfg.grid_nx = cfg.grid_ny = grid;
    cfg.solve.precond = r.kind;
    ThermalModel model(l, stack, cfg);  // fresh model -> cold start
    r.sr = model.solve(p).solve_info;
    r.tile_temps = model.tile_temperatures();
  }

  double max_diff_c = 0.0;
  for (std::size_t i = 0; i < runs[0].tile_temps.size(); ++i)
    max_diff_c = std::max(
        max_diff_c, std::abs(runs[0].tile_temps[i] - runs[1].tile_temps[i]));
  const double ratio =
      static_cast<double>(runs[0].sr.iterations) /
      static_cast<double>(std::max<std::size_t>(1, runs[1].sr.iterations));

  std::printf(
      "[selftest] grid=%zu jacobi_iters=%zu mg_iters=%zu ratio=%.2f "
      "max_tile_diff_c=%.3g\n",
      grid, runs[0].sr.iterations, runs[1].sr.iterations, ratio, max_diff_c);
  bool ok = true;
  if (!runs[0].sr.converged || !runs[1].sr.converged) {
    std::fprintf(stderr, "[selftest] FAIL: a solve did not converge\n");
    ok = false;
  }
  if (ratio < 8.0) {
    std::fprintf(stderr,
                 "[selftest] FAIL: multigrid iteration reduction %.2fx < 8x\n",
                 ratio);
    ok = false;
  }
  if (!(max_diff_c < 1e-4)) {
    std::fprintf(stderr,
                 "[selftest] FAIL: preconditioners disagree by %.3g C\n",
                 max_diff_c);
    ok = false;
  }
  return ok;
}

/// Transient half of the CI smoke check: 24 backward-Euler steps of a
/// phase trace on the 16-chiplet 6 mm layout at grid 32, once on Jacobi
/// and once on multigrid, under the same power maps.  Fails unless the
/// tile temperatures agree within 1e-5 °C after every step and multigrid
/// needs at least 5x fewer PCG iterations.  Both run at a 1e-10 relative
/// tolerance: at the default 1e-8 a Jacobi step is itself ~1e-4 °C from
/// the exact solution.
bool transient_selftest() {
  const ChipletLayout l = make_uniform_layout(4, 6.0);
  const LayerStack stack = make_25d_stack();
  const BenchmarkProfile& bench = benchmark_by_name("shock");
  const PowerModelParams pm;
  std::vector<int> all(256);
  for (int i = 0; i < 256; ++i) all[static_cast<std::size_t>(i)] = i;
  const std::vector<Phase> trace = synthetic_trace(bench, 6.0, 0.25, 2018);

  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 32;
  cfg.solve.rel_tolerance = 1e-10;
  cfg.solve.precond = PrecondKind::kJacobi;
  ThermalModel jacobi(l, stack, cfg);
  cfg.solve.precond = PrecondKind::kMultigrid;
  ThermalModel mg(l, stack, cfg);
  jacobi.reset_to_ambient();
  mg.reset_to_ambient();

  std::optional<std::vector<double>> tiles;
  std::size_t iters[2] = {0, 0};
  double max_diff_c = 0.0;
  bool converged = true;
  for (const Phase& ph : trace) {
    const PowerMap p = build_power_map(l, bench, kDvfsLevels[0], all, tiles,
                                       pm, ph.activity);
    const SolveResult rj = jacobi.step_transient(p, ph.duration_s).solve_info;
    const SolveResult rm = mg.step_transient(p, ph.duration_s).solve_info;
    converged = converged && rj.converged && rm.converged;
    iters[0] += rj.iterations;
    iters[1] += rm.iterations;
    tiles = jacobi.tile_temperatures();
    const std::vector<double> tm = mg.tile_temperatures();
    for (std::size_t i = 0; i < tm.size(); ++i)
      max_diff_c = std::max(max_diff_c, std::abs((*tiles)[i] - tm[i]));
  }
  const double ratio = static_cast<double>(iters[0]) /
                       static_cast<double>(std::max<std::size_t>(1, iters[1]));
  std::printf(
      "[selftest] transient grid=32 steps=%zu jacobi_iters=%zu mg_iters=%zu "
      "ratio=%.2f max_tile_diff_c=%.3g\n",
      trace.size(), iters[0], iters[1], ratio, max_diff_c);
  bool ok = true;
  if (!converged) {
    std::fprintf(stderr, "[selftest] FAIL: a transient step did not converge\n");
    ok = false;
  }
  if (ratio < 5.0) {
    std::fprintf(stderr,
                 "[selftest] FAIL: multigrid step iteration reduction %.2fx "
                 "< 5x\n",
                 ratio);
    ok = false;
  }
  if (!(max_diff_c < 1e-5)) {
    std::fprintf(stderr,
                 "[selftest] FAIL: transient steps disagree by %.3g C\n",
                 max_diff_c);
    ok = false;
  }
  return ok;
}

/// CI smoke check (--selftest[=GRID], default 64 — the paper's
/// resolution): the steady check at GRID and the transient check at grid
/// 32.  A solve that throws fails the check.  Returns a process exit code.
int run_selftest(std::size_t grid) {
  try {
    const bool steady_ok = steady_selftest(grid);
    const bool transient_ok = transient_selftest();
    return steady_ok && transient_ok ? 0 : 1;
  } catch (const tacos::Error& e) {
    std::fprintf(stderr, "[selftest] FAIL: %s\n", e.what());
    return 1;
  }
}

}  // namespace

// Expanded BENCHMARK_MAIN: our flags are parsed here and only
// `--benchmark_*` reaches google-benchmark; the --metrics/--trace
// artifacts are published after the run, as in every other bench main.
int main(int argc, char** argv) {
  using namespace tacos::entry;
  RunOptions opts;
  std::vector<std::string> rest =
      parse_args(argc, argv, kSolveFlags | kSelftest,
                 "[--benchmark_...]", opts, false, "--benchmark_");
  g_precond = opts.experiment.precond;
  opts.obs.finalize();
  if (opts.selftest) {
    const int rc = run_selftest(*opts.selftest);
    if (opts.obs.any()) opts.obs.publish();
    return rc;
  }
  std::vector<char*> kept{argv[0]};
  for (std::string& arg : rest) kept.push_back(arg.data());
  int kept_argc = static_cast<int>(kept.size());
  benchmark::Initialize(&kept_argc, kept.data());
  if (benchmark::ReportUnrecognizedArguments(kept_argc, kept.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (opts.obs.any()) opts.obs.publish();
  return 0;
}
