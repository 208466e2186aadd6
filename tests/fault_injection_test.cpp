#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "common/thread_pool.hpp"
#include "core/leakage.hpp"
#include "core/optimizer.hpp"
#include "floorplan/layout.hpp"
#include "materials/stack.hpp"
#include "thermal/grid_model.hpp"

namespace tacos {
namespace {

// Fault-tolerance contract (docs/ROBUSTNESS.md): every rung of the
// thermal recovery ladder is reachable on demand through FaultPlan, a
// ladder-exhausting failure restores the pre-solve field (no warm-start
// poisoning), batch drivers quarantine failing tasks deterministically at
// any thread count, and parallel_for never silently swallows secondary
// chunk exceptions.

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() {
    ThreadPool::set_global_threads(ThreadPool::default_thread_count());
  }
};

PowerMap uniform_power(const ChipletLayout& l, double total_w) {
  PowerMap p;
  for (const auto& c : l.chiplets()) p.add(c.rect, total_w / l.chiplet_count());
  return p;
}

ThermalConfig small_thermal_config() {
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 12;
  return cfg;
}

/// Model + layout pair for the ladder tests (4 chiplets, 12x12 grid).
struct Rig {
  ChipletLayout layout = make_uniform_layout(2, 4.0);
  ThermalModel model;
  explicit Rig(const ThermalConfig& cfg)
      : model(layout, make_25d_stack(), cfg) {}
};

// --- Recovery ladder: one test per rung. ---------------------------------

TEST(FaultInjection, RungOneColdRestartRecovers) {
  ThermalConfig cfg = small_thermal_config();
  cfg.solve.fault.pcg_fail_at = 0;
  cfg.solve.fault.pcg_fail_rungs = 1;
  Rig faulted(cfg);
  Rig clean(small_thermal_config());
  const PowerMap power = uniform_power(faulted.layout, 200.0);

  const ThermalResult fr = faulted.model.solve(power);
  const ThermalResult cr = clean.model.solve(power);

  EXPECT_EQ(faulted.model.health().cold_restarts, 1u);
  EXPECT_EQ(faulted.model.health().cap_retries, 0u);
  EXPECT_EQ(faulted.model.health().gs_fallbacks, 0u);
  EXPECT_EQ(faulted.model.health().solve_failures, 0u);
  // The cold restart starts from ambient — exactly where the clean
  // model's first solve starts — so recovery is bit-identical, not just
  // approximately right.
  EXPECT_EQ(fr.peak_c, cr.peak_c);
  EXPECT_EQ(faulted.model.tile_temperatures(), clean.model.tile_temperatures());
}

TEST(FaultInjection, RungTwoRaisedCapRecovers) {
  ThermalConfig cfg = small_thermal_config();
  cfg.solve.fault.pcg_fail_at = 0;
  cfg.solve.fault.pcg_fail_rungs = 2;
  Rig rig(cfg);

  const ThermalResult r = rig.model.solve(uniform_power(rig.layout, 200.0));
  EXPECT_TRUE(r.solve_info.converged);
  EXPECT_EQ(rig.model.health().cold_restarts, 1u);
  EXPECT_EQ(rig.model.health().cap_retries, 1u);
  EXPECT_EQ(rig.model.health().gs_fallbacks, 0u);
  EXPECT_EQ(rig.model.health().solve_failures, 0u);
}

TEST(FaultInjection, RungThreeGaussSeidelFallbackRecovers) {
  ThermalConfig cfg = small_thermal_config();
  cfg.solve.fault.pcg_fail_at = 0;
  cfg.solve.fault.pcg_fail_rungs = 3;
  Rig faulted(cfg);
  Rig clean(small_thermal_config());
  const PowerMap power = uniform_power(faulted.layout, 200.0);

  const ThermalResult fr = faulted.model.solve(power);
  const ThermalResult cr = clean.model.solve(power);
  EXPECT_TRUE(fr.solve_info.converged);
  EXPECT_EQ(faulted.model.health().cold_restarts, 1u);
  EXPECT_EQ(faulted.model.health().cap_retries, 1u);
  EXPECT_EQ(faulted.model.health().gs_fallbacks, 1u);
  EXPECT_EQ(faulted.model.health().solve_failures, 0u);
  // Gauss-Seidel solves the same system to the same relative tolerance;
  // the fields agree to solver precision, not bit-exactly.
  EXPECT_NEAR(fr.peak_c, cr.peak_c, 1e-3);
}

TEST(FaultInjection, ExhaustedLadderThrowsThermalErrorWithContext) {
  ThermalConfig cfg = small_thermal_config();
  cfg.solve.fault.pcg_fail_at = 0;
  cfg.solve.fault.pcg_fail_rungs = 4;
  Rig rig(cfg);

  try {
    rig.model.solve(uniform_power(rig.layout, 200.0));
    FAIL() << "expected ThermalError";
  } catch (const ThermalError& e) {
    EXPECT_EQ(e.solve_index(), 0u);
    EXPECT_EQ(e.attempts(), 4);
    EXPECT_EQ(error_kind(e), std::string("thermal"));
    EXPECT_EQ(exit_code_for(e), exit_code::kThermal);
  }
  EXPECT_EQ(rig.model.health().cold_restarts, 1u);
  EXPECT_EQ(rig.model.health().cap_retries, 1u);
  EXPECT_EQ(rig.model.health().gs_fallbacks, 1u);
  EXPECT_EQ(rig.model.health().solve_failures, 1u);
}

// --- Warm-start poisoning regression. ------------------------------------

TEST(FaultInjection, FailedSolveRestoresPreSolveField) {
  ThermalConfig cfg = small_thermal_config();
  cfg.solve.fault.pcg_fail_at = 1;  // first solve clean, second fails
  cfg.solve.fault.pcg_fail_rungs = 4;
  Rig rig(cfg);
  const PowerMap power = uniform_power(rig.layout, 200.0);

  rig.model.solve(power);
  const std::vector<double> settled = rig.model.tile_temperatures();

  EXPECT_THROW(rig.model.solve(uniform_power(rig.layout, 350.0)),
               ThermalError);
  // The diverged iterate must not leak into the field: it is restored to
  // the pre-solve state exactly.
  EXPECT_EQ(rig.model.tile_temperatures(), settled);

  // And the restored field still warm-starts correctly: re-solving the
  // original power map converges immediately to the same answer.
  rig.model.solve(power);
  EXPECT_EQ(rig.model.tile_temperatures(), settled);
}

// --- Non-finite input gate. ----------------------------------------------

TEST(FaultInjection, NanPowerInputRejectedAndFieldUntouched) {
  ThermalConfig cfg = small_thermal_config();
  cfg.solve.fault.nan_rhs_at = 0;
  Rig rig(cfg);
  const PowerMap power = uniform_power(rig.layout, 200.0);

  try {
    rig.model.solve(power);
    FAIL() << "expected ThermalError";
  } catch (const ThermalError& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
  }
  EXPECT_EQ(rig.model.health().nonfinite_inputs, 1u);
  EXPECT_EQ(rig.model.health().solve_failures, 0u);

  // The gate fires before the solver touches the field; the next solve
  // (index 1, past the injection point) runs normally.
  const ThermalResult r = rig.model.solve(power);
  EXPECT_TRUE(r.solve_info.converged);
  EXPECT_GT(r.peak_c, 0.0);
}

// --- Transient steps: same fault hooks, no ladder. -----------------------

/// Every gridded layer's field, plus the stored heat summed over all
/// nodes (which covers the lumped ones): equal vectors mean an identical
/// temperature field.
std::vector<double> full_field(const ThermalModel& m) {
  std::vector<double> out;
  for (std::size_t l = 0; l < m.layer_count(); ++l) {
    const std::vector<double> f = m.layer_field(l);
    out.insert(out.end(), f.begin(), f.end());
  }
  out.push_back(m.stored_heat_j());
  return out;
}

TEST(FaultInjection, FailedTransientStepRestoresFieldAndNextStepRuns) {
  // Steps take solve indices from the ledger, so the plan reaches them:
  // step 3 is forced to fail and step 5 gets a NaN right-hand side.  A
  // failed step throws, restores the pre-step field bit for bit and never
  // retries; the following step runs exactly as on a model that never
  // attempted the failed one.
  for (const PrecondKind precond :
       {PrecondKind::kJacobi, PrecondKind::kMultigrid}) {
    ThermalConfig cfg = small_thermal_config();
    cfg.solve.precond = precond;
    ThermalConfig faulty_cfg = cfg;
    faulty_cfg.solve.fault.pcg_fail_at = 3;
    faulty_cfg.solve.fault.nan_rhs_at = 5;
    Rig faulted(faulty_cfg);
    Rig clean(cfg);
    faulted.model.reset_to_ambient();
    clean.model.reset_to_ambient();
    for (std::size_t k = 0; k < 7; ++k) {
      const PowerMap p = uniform_power(faulted.layout, 150.0 + 20.0 * k);
      const std::vector<double> before = full_field(faulted.model);
      if (k == 3 || k == 5) {
        try {
          faulted.model.step_transient(p, 0.05);
          FAIL() << "step " << k << ": expected ThermalError";
        } catch (const ThermalError& e) {
          EXPECT_EQ(e.solve_index(), k);
        }
        EXPECT_EQ(full_field(faulted.model), before) << "step " << k;
        continue;
      }
      const ThermalResult r = faulted.model.step_transient(p, 0.05);
      EXPECT_TRUE(r.solve_info.converged) << "step " << k;
      clean.model.step_transient(p, 0.05);
      EXPECT_EQ(full_field(faulted.model), full_field(clean.model))
          << "step " << k;
    }
    const RunHealth& h = faulted.model.health();
    EXPECT_EQ(h.solve_failures, 1u);
    EXPECT_EQ(h.nonfinite_inputs, 1u);
    EXPECT_EQ(h.retries(), 0u);  // steps never climb the recovery ladder
  }
}

// --- Leakage fixed-point non-convergence propagation. --------------------

TEST(FaultInjection, LeakageNonConvergencePropagatesToEvalAndHealth) {
  EvalConfig cfg;
  cfg.thermal.grid_nx = cfg.thermal.grid_ny = 12;
  cfg.thermal.solve.fault.leak_force_nonconverge = true;
  Evaluator eval(cfg);
  const Organization org{4, Spacing{0.0, 0.0, 4.0}, 0, 32};

  const ThermalEval& ev = eval.thermal_eval(org, benchmark_by_name("cholesky"));
  EXPECT_FALSE(ev.leak_converged);
  EXPECT_EQ(ev.leak_iterations, cfg.max_leak_iters);
  EXPECT_EQ(eval.health().leak_nonconverged, 1u);
  // Honest degradation, not failure: the last iterate is still reported.
  EXPECT_GT(ev.peak_c, 0.0);
  EXPECT_FALSE(eval.health().clean());
}

TEST(FaultInjection, LeakageNonConvergenceDirectCall) {
  const SystemSpec spec;
  const ChipletLayout chip = make_single_chip_layout(spec);
  ThermalModel model(chip, make_2d_stack(), small_thermal_config());
  std::vector<int> all(static_cast<std::size_t>(spec.core_count()));
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  const LeakageResult lr = run_leakage_fixed_point(
      model, chip, benchmark_by_name("cholesky"), kDvfsLevels[0], all,
      PowerModelParams{}, 0.05, 5, /*fault_nonconverge=*/true);
  EXPECT_FALSE(lr.converged);
  EXPECT_EQ(lr.iterations, 5);
}

// --- Quarantine determinism across thread counts. ------------------------

EvalConfig faulty_config() {
  EvalConfig c;
  c.thermal.grid_nx = c.thermal.grid_ny = 12;
  // Fail 5% of solves past the whole ladder: every affected task is
  // quarantined, every other row must be untouched.
  c.thermal.solve.fault.pcg_fail_every = 20;
  c.thermal.solve.fault.pcg_fail_rungs = 4;
  return c;
}

OptimizerOptions small_options() {
  OptimizerOptions o;
  o.step_mm = 4.0;
  o.starts = 3;
  return o;
}

std::vector<std::string> test_benchmarks() {
  std::vector<std::string> names;
  for (const auto& n : representative_benchmarks()) names.emplace_back(n);
  return names;
}

std::string faulted_fingerprint(std::size_t threads, EvalStats* stats) {
  ThreadPool::set_global_threads(threads);
  const std::vector<OptResult> results = optimize_greedy_batch(
      faulty_config(), test_benchmarks(), small_options(), stats);
  std::ostringstream fp;
  fp.precision(17);
  for (const OptResult& r : results) {
    fp << r.quarantined << "|" << r.diagnostic << "|" << r.found << "|"
       << r.org.n_chiplets << "|" << r.org.spacing.s1 << "|" << r.org.spacing.s2
       << "|" << r.org.spacing.s3 << "|" << r.org.dvfs_idx << "|"
       << r.org.active_cores << "|" << r.objective << "|" << r.ips << "\n";
  }
  return fp.str();
}

TEST(FaultInjection, QuarantineIsBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  EvalStats s1, s2, s8;
  const std::string f1 = faulted_fingerprint(1, &s1);
  const std::string f2 = faulted_fingerprint(2, &s2);
  const std::string f8 = faulted_fingerprint(8, &s8);
  // Full-row equality — including every diagnostic string — subsumes the
  // "surviving rows identical" requirement.
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(f1, f8);
  // The 5% plan must actually bite, and the batch must still complete.
  EXPECT_GT(s1.health.quarantined, 0u);
  EXPECT_EQ(s1.health.quarantined, s2.health.quarantined);
  EXPECT_EQ(s1.health.quarantined, s8.health.quarantined);
  EXPECT_EQ(s1.health.solve_failures, s8.health.solve_failures);
}

TEST(FaultInjection, RecoverableFaultsLeaveNoQuarantines) {
  ThreadCountGuard guard;
  EvalConfig c = faulty_config();
  c.thermal.solve.fault.pcg_fail_rungs = 1;  // every fault recovers cold
  ThreadPool::set_global_threads(4);
  EvalStats stats;
  const std::vector<OptResult> results = optimize_greedy_batch(
      c, test_benchmarks(), small_options(), &stats);
  for (const OptResult& r : results) {
    EXPECT_FALSE(r.quarantined);
    EXPECT_TRUE(r.diagnostic.empty());
  }
  EXPECT_GT(stats.health.cold_restarts, 0u);
  EXPECT_EQ(stats.health.quarantined, 0u);
  EXPECT_EQ(stats.health.solve_failures, 0u);
}

TEST(FaultInjection, QuarantinedResultCarriesDiagnostic) {
  ThreadCountGuard guard;
  ThreadPool::set_global_threads(2);
  const std::vector<OptResult> results = optimize_greedy_batch(
      faulty_config(), test_benchmarks(), small_options(), nullptr);
  bool saw_quarantine = false;
  for (const OptResult& r : results) {
    if (!r.quarantined) continue;
    saw_quarantine = true;
    EXPECT_FALSE(r.found);
    EXPECT_NE(r.diagnostic.find("thermal solve"), std::string::npos)
        << r.diagnostic;
  }
  EXPECT_TRUE(saw_quarantine);
}

// --- parallel_for: suppressed exceptions are counted. --------------------

TEST(FaultInjection, ParallelForReportsSuppressedExceptionCount) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(64, 1, [](std::size_t lo, std::size_t) {
      throw Error("chunk " + std::to_string(lo) + " failed");
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("failed"), std::string::npos) << what;
    // 64 chunks all throw; the first is rethrown, 63 are suppressed.
    EXPECT_NE(what.find("63 additional chunk exception(s) suppressed"),
              std::string::npos)
        << what;
  }
}

TEST(FaultInjection, ParallelForSingleExceptionUnchanged) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(64, 1, [](std::size_t lo, std::size_t) {
      if (lo == 17) throw Error("only seventeen");
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what, "only seventeen");
  }
}

// --- Error taxonomy plumbing. --------------------------------------------

TEST(FaultInjection, SolverErrorCarriesStructuredContext) {
  CsrBuilder builder(4);
  for (std::size_t i = 0; i < 4; ++i) builder.add(i, i, 1.0);
  const CsrMatrix A = builder.build();
  const std::vector<double> b(3, 1.0);  // wrong size on purpose
  std::vector<double> x(4, 0.0);
  try {
    solve_pcg(A, b, x);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.solver(), "pcg");
    EXPECT_EQ(error_kind(e), std::string("solver"));
    EXPECT_EQ(exit_code_for(e), exit_code::kSolver);
  }
}

TEST(FaultInjection, DiagnosticLineIsStructured) {
  const ThermalError e(7, 4, 123, 0.5, "test detail");
  const std::string line = diagnostic_line(e);
  EXPECT_EQ(line.rfind("tacos-error kind=thermal code=4: ", 0), 0u) << line;
  EXPECT_NE(line.find("solve #7"), std::string::npos) << line;
}

}  // namespace
}  // namespace tacos
