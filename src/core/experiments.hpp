#pragma once
/// \file experiments.hpp
/// \brief Reproduction runners for every table and figure in the paper's
///        evaluation (see DESIGN.md §3 for the experiment index).
///
/// Each function regenerates one artifact and returns a TextTable whose
/// rows are the series the paper plots; the bench binaries print both the
/// aligned table and CSV.  All runners are deterministic (seeded RNG).

#include <sstream>
#include <vector>

#include "common/run_health.hpp"
#include "common/table.hpp"
#include "core/evaluator.hpp"
#include "core/optimizer.hpp"

namespace tacos {

/// Common knobs for the experiment runners.  The defaults trade a little
/// resolution for run time on a small machine; the paper-scale settings
/// (64×64 grid, 0.5 mm sweeps) are a constructor call away.
struct ExperimentOptions {
  std::size_t grid = 32;       ///< thermal grid resolution per layer
  double w_step_mm = 1.0;      ///< interposer sweep granularity (Figs. 6/7)
  double opt_step_mm = 0.5;    ///< spacing granularity for the optimizer
  int starts = 10;             ///< greedy starting points (paper uses 10)
  double threshold_c = 85.0;   ///< temperature threshold (Eq. 6)
  std::uint64_t seed = 2018;
  /// PCG preconditioner of solves and steps (`--precond={auto,jacobi,mg}`):
  /// auto resolves to multigrid (ThermalModel::steady_precond).
  PrecondKind precond = PrecondKind::kAuto;
  /// Continuous adjoint-gradient spacing refinement of each 16-chiplet
  /// grid winner (`--refine`, `--refine-tol-mm=T`); off by default so the
  /// recorded paper tables keep their grid-resolution numbers.
  bool refine = false;
  double refine_tol_mm = 1e-3;
  /// Durable-execution control (write-ahead journal, cancel token, per-task
  /// deadline); all off by default.  See docs/ROBUSTNESS.md.
  RunControl run;

  /// Thermal-model configuration implied by these options: the grid and
  /// the preconditioner.  `cancel`, when given, is polled by the solvers
  /// (per-task deadline / interrupt hook).
  ThermalConfig thermal_config(const CancelToken* cancel = nullptr) const {
    ThermalConfig c;
    c.grid_nx = c.grid_ny = grid;
    c.solve.cancel = cancel;
    c.solve.precond = precond;
    return c;
  }
  /// Evaluator configuration implied by these options.
  EvalConfig eval_config(const CancelToken* cancel = nullptr) const {
    EvalConfig c;
    c.thermal = thermal_config(cancel);
    return c;
  }
  /// Optimizer options implied by these options.
  OptimizerOptions optimizer_options(double alpha, double beta,
                                     const CancelToken* cancel = nullptr) const {
    OptimizerOptions o;
    o.alpha = alpha;
    o.beta = beta;
    o.threshold_c = threshold_c;
    o.step_mm = opt_step_mm;
    o.starts = starts;
    o.seed = seed;
    o.refine = refine;
    o.refine_tol_mm = refine_tol_mm;
    o.cancel = cancel;
    return o;
  }
  /// Result-shaping knobs, rendered for `RunJournal::bind_meta`: resuming
  /// a run directory with any of these changed is an error.
  std::string fingerprint() const {
    std::ostringstream os;
    os << "grid=" << grid << " w_step=" << w_step_mm
       << " opt_step=" << opt_step_mm << " starts=" << starts
       << " threshold=" << threshold_c << " seed=" << seed
       << " precond=" << precond_name(precond);
    // Appended only when refinement is on: journals recorded before the
    // refinement stage existed keep their exact fingerprint.
    if (refine) os << " refine=1 refine_tol=" << refine_tol_mm;
    return os.str();
  }
};

// --- E1 / Fig. 3(a): manufacturing cost vs interposer size. -------------
/// Normalized 2.5D cost for 4/16 chiplets across interposer sizes
/// 20..50 mm and defect densities {0.20, 0.25, 0.30}/cm².
TextTable fig3a_cost_table(double w_step_mm = 1.0);

// --- E3: in-text cost-model claims (§III-B/C). ---------------------------
/// The four quantitative cost statements in the text, model vs paper.
TextTable cost_claims_table();

// Fault tolerance: every runner below isolates failures per parallel task
// — a task whose evaluation fails past the thermal recovery ladder
// contributes a single "quarantined: <diagnostic>" row instead of
// aborting the table, and the surviving rows are identical at any thread
// count.  When `health` is non-null it receives the run's merged
// RunHealth (recoveries, degradations, quarantines) for the caller to
// print alongside the results.  See docs/ROBUSTNESS.md.

// --- E2 / Fig. 3(b): synthetic thermal design-space exploration. ---------
/// Peak temperature for r×r chiplets (r = 2..10) and a grown single chip
/// across interposer sizes and power densities 0.5..2.0 W/mm².
TextTable fig3b_thermal_table(const ExperimentOptions& opts = {},
                              RunHealth* health = nullptr);

// --- E4 / Fig. 5: per-benchmark uniform spacing sweep. --------------------
/// Peak temperature with all 256 cores at 1 GHz, for 4/16/64/256 chiplets
/// and uniform spacings 0.5..10 mm (0 mm = single chip), all benchmarks.
TextTable fig5_spacing_table(const ExperimentOptions& opts = {},
                             RunHealth* health = nullptr);

// --- E11: network power (§III-A). ----------------------------------------
/// Mesh structure and power for the single chip and representative 2.5D
/// layouts, plus the Fig. 2 link designs (driver sizing and energy).
TextTable network_power_table(const ExperimentOptions& opts = {});

// --- E5 / Fig. 6: max IPS and cost vs interposer size. --------------------
/// For each benchmark in `bench_names` and n ∈ {4, 16}: normalized max IPS
/// under the threshold and normalized cost, per interposer size.
TextTable fig6_perf_cost_table(const ExperimentOptions& opts,
                               const std::vector<std::string>& bench_names,
                               RunHealth* health = nullptr);

// --- E6 / Fig. 7: objective value vs interposer size. ---------------------
/// Minimum Eq. (5) value for (alpha, beta) ∈ {(0,1), (1,0), (0.5,0.5)}.
TextTable fig7_objective_table(const ExperimentOptions& opts,
                               const std::vector<std::string>& bench_names,
                               RunHealth* health = nullptr);

// --- E7 / Fig. 8: chosen organizations (alpha = 1, beta = 0). -------------
/// Optimal organization per benchmark: 2D baseline vs 2.5D (n, W,
/// spacings, f, p), improvement and cost ratio.
TextTable fig8_chosen_orgs_table(const ExperimentOptions& opts = {},
                                 RunHealth* health = nullptr);

// --- E8: headline improvement summary. ------------------------------------
/// Per-benchmark performance improvement at iso-cost for temperature
/// thresholds {75, 85, 95, 105} °C, with the average row the conclusion
/// quotes (41/41/27/16 %).
TextTable improvement_summary_table(const ExperimentOptions& opts = {},
                                    RunHealth* health = nullptr);

/// Iso-performance cost reduction at the default threshold (the paper's
/// "36% cheaper without performance loss").
TextTable iso_performance_cost_table(const ExperimentOptions& opts = {},
                                     RunHealth* health = nullptr);

// --- E9: greedy vs exhaustive validation (§III-D). -------------------------
/// Agreement of the multi-start greedy with exhaustive search and the
/// thermal-simulation savings, across benchmarks.
TextTable greedy_validation_table(const ExperimentOptions& opts = {},
                                  RunHealth* health = nullptr);

}  // namespace tacos
