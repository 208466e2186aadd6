#pragma once
/// \file grid_model.hpp
/// \brief Steady-state 3D resistive thermal model of the 2.5D package
///        (the repository's HotSpot-grid-mode substitute).
///
/// Model structure
/// ---------------
/// Every layer of the stack (substrate → C4 → interposer → microbump →
/// chiplet → TIM for 2.5D; substrate → C4 → chip → TIM for the 2D
/// baseline), plus the copper heat spreader and heat sink, is discretized
/// on the same nx × ny grid covering the interposer footprint.  Grid cells
/// are connected by lateral (within-layer) and vertical (between-layer)
/// thermal conductances derived from each cell's effective material
/// (anisotropic where the layer is a Cu-pillar composite).
///
/// The spreader (edge = 2× interposer) and sink (edge = 2× spreader)
/// overhang the gridded footprint; the overhang is modeled HotSpot-style
/// with lumped peripheral nodes: four spreader-periphery quadrant rings,
/// four sink-inner-periphery rings (sink volume above the spreader
/// overhang) and four sink-outer-periphery rings (sink beyond the spreader
/// extent).  Every sink node — gridded or lumped — convects to ambient
/// through h · A, with the heat-transfer coefficient h held constant as
/// the package scales (paper §IV).  The bottom of the substrate is
/// adiabatic (HotSpot's default: no secondary heat path).
///
/// Solving G·T = P with the SPD conductance matrix G gives the
/// steady-state temperature field; the matrix depends only on geometry,
/// so one ThermalModel instance amortizes assembly over many power maps
/// (leakage iterations, optimizer probes), and consecutive solves warm-
/// start from the previous temperature field.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/run_health.hpp"
#include "floorplan/layout.hpp"
#include "geom/grid.hpp"
#include "linalg/csr.hpp"
#include "linalg/multigrid.hpp"
#include "linalg/solvers.hpp"
#include "materials/stack.hpp"
#include "thermal/power_map.hpp"

namespace tacos {

/// Thermal solver configuration.
struct ThermalConfig {
  std::size_t grid_nx = 64;  ///< grid resolution (paper uses 64 × 64)
  std::size_t grid_ny = 64;
  PackageConvention package;
  SolveOptions solve;
};

/// Result of a steady-state solve.
struct ThermalResult {
  double peak_c = 0.0;        ///< hottest silicon (chiplet-layer) cell, °C
  double peak_anywhere_c = 0.0;  ///< hottest node in the whole package, °C
  SolveResult solve_info;
};

/// Geometry-bound thermal model; reusable across power maps.
class ThermalModel {
 public:
  /// Build the conductance network for `layout` with the given `stack`
  /// (which must NOT include spreader/sink; those come from config.package).
  ThermalModel(const ChipletLayout& layout, const LayerStack& stack,
               const ThermalConfig& config);

  /// Solve the steady state for `power`.  On PCG non-convergence a
  /// recovery ladder is climbed before giving up: the pre-solve field is
  /// restored and the solve retried cold from ambient, then with a raised
  /// iteration cap, then with the Gauss-Seidel fallback solver.  Each
  /// escalation is counted in the ledger's RunHealth.  If every rung
  /// fails, the pre-solve temperature field is restored (no warm-start
  /// poisoning) and ThermalError is thrown; non-finite power input is
  /// rejected up front with ThermalError and leaves the field untouched.
  ThermalResult solve(const PowerMap& power);

  /// Share accounting with the caller: `ledger` (owned by the caller,
  /// e.g. an Evaluator shard) receives this model's solve indices and
  /// health counters.  nullptr reverts to the model's private ledger.
  void set_ledger(SolveLedger* ledger) { ledger_ = ledger; }

  /// Health counters of the active ledger (recoveries, failures).
  const RunHealth& health() const { return ledger().health; }

  /// Temperature of the CMOS layer averaged over each logical core tile,
  /// indexed [ty * tiles_per_side + tx].  Valid after solve(); requires
  /// the layout to carry tiles.  Used by the leakage fixed point.
  std::vector<double> tile_temperatures() const;

  /// Average CMOS-layer temperature over each chiplet, in layout chiplet
  /// order.  Valid after solve().
  std::vector<double> chiplet_temperatures() const;

  /// Temperature field of one grid layer (row-major, x fastest), °C.
  /// Layer indices follow the stack bottom→top, then spreader, then sink.
  std::vector<double> layer_field(std::size_t layer) const;

  /// Grid spec shared by all layers.
  const GridSpec& grid() const { return grid_; }
  /// Number of grid layers (stack + spreader + sink).
  std::size_t layer_count() const { return n_layers_; }
  /// Index of the CMOS (heat source) grid layer.
  std::size_t source_layer() const { return source_layer_; }
  /// Total number of unknowns in the linear system.
  std::size_t node_count() const { return matrix_.rows(); }

  /// Verify global energy balance of the last solve: returns
  /// |P_in - P_out_ambient| / P_in (should be ~solver tolerance).
  double energy_balance_error(const PowerMap& power) const;

  /// Heat stored in the package relative to ambient, Σ C_i (T_i − T_amb),
  /// in J.  A backward-Euler step satisfies
  /// (stored_after − stored_before) / dt = P − heat_outflow_w().
  double stored_heat_j() const;
  /// Heat leaving the package to ambient, Σ g_i (T_i − T_amb), in W.
  double heat_outflow_w() const;

  // --- Transient simulation -------------------------------------------
  //
  // Every node carries a thermal capacitance C = c_v * volume; a backward
  // Euler step solves (G + C/dt) T_{n+1} = C/dt * T_n + P, which is
  // unconditionally stable and runs on the steady-state machinery (the
  // stepping matrix is SPD with the same sparsity as G plus the diagonal,
  // and gets its own multigrid hierarchy when steady_precond() picks
  // one).  The temperature field persists across calls, so a sprint/rest
  // schedule is just a sequence of step_transient() calls with different
  // power maps.

  /// Reset the temperature field to ambient (initial transient state).
  void reset_to_ambient();

  /// Advance the field by `dt_s` seconds under `power` (backward Euler).
  /// Returns the peak silicon temperature after the step.  A step takes a
  /// solve index from the ledger and shares solve()'s input gate, fault
  /// hooks and warm rung, but never climbs the recovery ladder: the
  /// pre-step field is the simulation state, so on failure it is
  /// restored and ThermalError is thrown.
  ThermalResult step_transient(const PowerMap& power, double dt_s);

  /// Current peak silicon temperature without solving anything.
  double current_peak_c() const;

  /// Total thermal capacitance of the package (J/K) — for tests.
  double total_capacitance() const;

  /// The preconditioner solves, transient steps and adjoints use, with
  /// kAuto resolved: Jacobi only when config.solve.precond asks for it,
  /// multigrid otherwise (kAuto included, at every grid size).  Steady
  /// solves and steps each get a hierarchy built for their own operator
  /// (G, or G + C/dt).
  PrecondKind steady_precond() const;

  /// The lazily-built multigrid hierarchy for G, or nullptr if no
  /// steady-state solve has needed it yet.  Cached for the model's
  /// lifetime — the Evaluator's model LRU therefore caches hierarchy and
  /// model together.
  const MultigridPreconditioner* multigrid() const { return mg_.get(); }

  // --- Adjoint sensitivities (continuous spacing refinement) ----------
  //
  // T_peak = e_p^T T with K T = q, so dT_peak/dθ = λᵀ(∂q/∂θ) −
  // λᵀ(∂K/∂θ)T where K λ = e_p (K is symmetric) — one extra PCG solve
  // per gradient, reusing the model's preconditioner stack.  The only
  // θ-dependent conductances are those of kChiplets-extent layers, whose
  // per-cell conductivity interpolates occupied↔fill with the chiplet
  // coverage fraction; ∂K/∂θ therefore reduces to a sum over the edges of
  // those layers driven by d(cover)/dθ (src/thermal/adjoint.hpp assembles
  // that from the floorplan geometry).

  /// Outcome of one adjoint solve (adjoint_peak).
  struct AdjointInfo {
    std::size_t peak_node = 0;   ///< argmax node e_p selects
    std::size_t iterations = 0;  ///< PCG iterations consumed
  };

  /// Solve K λ = e_p for the peak-temperature adjoint at the last solved
  /// steady state, where e_p selects the same argmax cell make_result
  /// reports peak_c from (hottest majority-covered CMOS cell, falling
  /// back to the layer max).  Uses the same matrix, chunked kernels and
  /// preconditioner as the forward solve (bit-identical at any thread
  /// count), warm-started from the previous adjoint field.  Does NOT
  /// advance the solve ledger's clock or mutate the temperature field:
  /// fault-plan indices keep targeting forward solves only.  Throws
  /// ThermalError if PCG fails even after a cold restart.  The returned
  /// reference stays valid until the next call.
  const std::vector<double>& adjoint_peak(AdjointInfo* info = nullptr);

  /// Conductance term of the adjoint chain: −λᵀ(∂K/∂f)T · df where
  /// `dcover[i]` is the derivative of cell i's chiplet coverage fraction
  /// with respect to the spacing parameter.  Walks the lateral edges of
  /// every kChiplets-extent layer and the vertical edges touching one,
  /// differentiating each edge conductance g = 1/(r_a + r_b) through the
  /// half-cell slab resistances.  Requires solve() and adjoint_peak().
  double conductance_sensitivity(const std::vector<double>& dcover) const;

  /// Node id of CMOS-layer cell (ix, iy) — for λᵀ(∂q/∂θ) assembly, which
  /// rasterizes source-rect motion onto the source layer.
  std::size_t source_node(std::size_t ix, std::size_t iy) const {
    return node(source_layer_, ix, iy);
  }

 private:
  std::size_t node(std::size_t layer, std::size_t ix, std::size_t iy) const {
    return layer * grid_.cell_count() + grid_.index(ix, iy);
  }

  SolveLedger& ledger() { return ledger_ ? *ledger_ : own_ledger_; }
  const SolveLedger& ledger() const { return ledger_ ? *ledger_ : own_ledger_; }

  /// One rung of the recovery ladder on operator `A` (matrix_ or
  /// transient_matrix_) under its `thermal.rung.*` span; honors the fault
  /// plan's forced failures for (solve_index, attempt).  PCG rungs use
  /// the hierarchy in `mg` (built on first use).  A SolverError is
  /// reported as non-convergence, its message left in `error`.
  SolveResult attempt_solve(const CsrMatrix& A,
                            std::unique_ptr<MultigridPreconditioner>& mg,
                            const std::vector<double>& rhs,
                            std::size_t solve_index, int attempt,
                            std::string* error);

  /// The multigrid hierarchy for `A`, built into `slot` on first use;
  /// nullptr when steady_precond() picks Jacobi.
  MultigridPreconditioner* multigrid_for(
      const CsrMatrix& A, std::unique_ptr<MultigridPreconditioner>& slot);

  /// The right-hand side for `power` (plus C/dt · T for a step of
  /// dt_s > 0) after the fault plan's NaN injection and the input gate:
  /// non-finite entries throw ThermalError and leave the field untouched.
  std::vector<double> gated_rhs(const PowerMap& power,
                                std::size_t solve_index, double dt_s);

  GridSpec grid_;
  ThermalConfig config_;
  std::size_t n_layers_ = 0;       ///< gridded layers (stack + spreader + sink)
  std::size_t source_layer_ = 0;   ///< gridded index of the CMOS layer
  std::size_t n_grid_nodes_ = 0;
  // Lumped node ids (see .cpp): 4 spreader periphery, 4 sink inner, 4 outer.
  std::size_t first_lumped_ = 0;

  /// Rasterize `power` into a right-hand-side vector starting from base.
  std::vector<double> build_rhs(const PowerMap& power) const;
  /// Extract peak statistics from the current temperature field.
  ThermalResult make_result(const SolveResult& sr) const;

  CsrMatrix matrix_;
  std::vector<double> rhs_base_;     ///< ambient-injection part of the RHS
  std::vector<double> ambient_g_;    ///< per-node conductance to ambient (W/K)
  std::vector<double> capacitance_;  ///< per-node thermal capacitance (J/K)
  std::vector<double> temperatures_; ///< last solution (also warm start)
  std::vector<double> source_cover_; ///< chiplet coverage fraction per cell
  /// Per-gridded-layer material parameters retained for ∂K/∂f assembly:
  /// enough to recompute every cell conductivity (and its derivative in
  /// the coverage fraction) exactly as the constructor did.
  struct LayerSens {
    double thickness = 0.0;
    bool chiplet = false;  ///< LayerExtent::kChiplets (cover-dependent k)
    double k_lat_occ = 0.0, k_lat_fill = 0.0;
    double k_vert_occ = 0.0, k_vert_fill = 0.0;
  };
  std::vector<LayerSens> layer_sens_;
  std::vector<double> adjoint_;      ///< last adjoint solution (warm start)
  bool adjoint_valid_ = false;       ///< adjoint_ holds a converged solve
  CsrMatrix transient_matrix_;       ///< G + C/dt for the cached dt
  double transient_dt_s_ = 0.0;      ///< dt the cached matrix was built for
  /// Hierarchy for transient_matrix_ (lazy; dropped whenever dt changes).
  std::unique_ptr<MultigridPreconditioner> transient_mg_;
  // Tile rasterization cache: per tile, list of (cell, weight).
  std::vector<std::vector<std::pair<std::size_t, double>>> tile_cells_;
  std::vector<std::vector<std::pair<std::size_t, double>>> chiplet_cells_;
  bool solved_ = false;
  std::unique_ptr<MultigridPreconditioner> mg_;  ///< hierarchy for G (lazy)
  SolveLedger* ledger_ = nullptr;  ///< external accounting (Evaluator shard)
  SolveLedger own_ledger_;         ///< fallback for standalone models
};

}  // namespace tacos
