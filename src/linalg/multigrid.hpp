#pragma once
/// \file multigrid.hpp
/// \brief Deterministic geometric multigrid V-cycle preconditioner for the
///        steady-state thermal conductance system.
///
/// The thermal grid (thermal/grid_model.hpp) stacks `layers` identical
/// nx × ny conduction grids and appends a handful of lumped periphery
/// nodes.  That geometry makes a textbook aggregation hierarchy cheap and
/// exact to build: each level coarsens 2× in x and y per layer
/// (piecewise-constant aggregation — every fine cell maps to the coarse
/// cell covering it), layers are never merged, and lumped nodes carry
/// through unchanged.  Coarse operators are Galerkin products
/// A_c = Pᵀ A P, which for piecewise-constant P simply sums the fine
/// conductances between aggregates — the coarse system is itself a
/// conductance network, so it stays symmetric positive definite and
/// diagonally dominant all the way down.
///
/// The V-cycle applies an equal number of pre- and post-smoothing sweeps
/// of weighted Jacobi on every level and a dense Cholesky solve on the
/// coarsest.  With R = Pᵀ and a symmetric smoother, the cycle is a
/// symmetric operator; weighted Jacobi with ω < 1 on a diagonally
/// dominant matrix is convergent, making the cycle positive definite —
/// the contract solve_pcg's Preconditioner interface requires.
///
/// Determinism: the hierarchy is built serially, restriction is serial
/// (scatter-adds would race), and every smoothing sweep / prolongation /
/// reduction runs through the chunk-ordered kernels in linalg/chunked.hpp.
/// Results are bit-identical at any thread count; coarse levels fall
/// below kParallelMinRows and run serially with the same chunk
/// boundaries.
///
/// Observability: each apply emits a `thermal.mg.cycle` span with nested
/// `thermal.mg.level` / `thermal.mg.coarse` spans, plus a
/// `thermal.mg.cycles` counter (see docs/OBSERVABILITY.md).

#include <cstddef>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/solvers.hpp"

namespace tacos {

/// Grid geometry the hierarchy is derived from.  Node numbering must be
/// `layer * nx * ny + iy * nx + ix` for the gridded nodes followed by
/// `lumped` trailing nodes — exactly ThermalModel's layout.
struct MultigridGeometry {
  std::size_t nx = 0;      ///< grid cells in x (per layer)
  std::size_t ny = 0;      ///< grid cells in y (per layer)
  std::size_t layers = 0;  ///< gridded layers (stack + spreader + sink)
  std::size_t lumped = 0;  ///< trailing lumped nodes (kept uncoarsened)
};

/// Tuning knobs.  Defaults are what the thermal systems want; tests
/// override `coarsest_max_unknowns` to exercise deeper hierarchies.
struct MultigridOptions {
  /// Stop coarsening once a level has at most this many unknowns; that
  /// level is solved directly by dense Cholesky (bounded at ~600² doubles
  /// of factor storage).
  std::size_t coarsest_max_unknowns = 600;
  std::size_t max_levels = 16;
  std::size_t pre_sweeps = 1;   ///< weighted-Jacobi sweeps before descent
  std::size_t post_sweeps = 1;  ///< must equal pre_sweeps for symmetry
  double omega = 0.7;           ///< Jacobi damping (< 1 for SPD safety)
  /// Run the weighted-Jacobi smoothing sweeps in single precision (float
  /// matrix values, 32-bit column indices) while residuals, restriction,
  /// prolongation and the coarse direct solve stay double.  The smoother
  /// only needs a rough error reduction, so the outer PCG tolerance — and
  /// therefore the solution accuracy — is unaffected; only the iteration
  /// count may shift by ±1.  Results remain bit-identical at any thread
  /// count (all float work is row-local and chunk-ordered) but differ
  /// bitwise from the all-double cycle, so the flag defaults to off and is
  /// excluded from the determinism tests (see docs/PERFORMANCE.md).
  bool mixed_precision = false;
};

/// Geometric multigrid V-cycle implementing solve_pcg's Preconditioner
/// interface.  Construction builds the full hierarchy (aggregation maps,
/// Galerkin coarse operators, smoother diagonals, coarsest Cholesky
/// factor) and preallocates every per-apply workspace, so apply_dot never
/// allocates.  Level 0 *references* the caller's matrix — the instance
/// must not outlive it.  Throws SolverError if the matrix is not
/// SPD-assembled (non-positive diagonal or Cholesky breakdown).
class MultigridPreconditioner final : public Preconditioner {
 public:
  MultigridPreconditioner(const CsrMatrix& A, const MultigridGeometry& geom,
                          const MultigridOptions& opts = {});
  ~MultigridPreconditioner() override;

  /// One V-cycle: z = MG(r), returning r·z via the chunk-ordered
  /// reduction.  Deterministic at any thread count.
  double apply_dot(const std::vector<double>& r,
                   std::vector<double>& z) override;
  const char* name() const override { return "mg"; }

  std::size_t level_count() const;
  /// Unknowns on a level (0 = finest).
  std::size_t unknowns(std::size_t level) const;

 private:
  struct Level;
  void vcycle(std::size_t l, const std::vector<double>& r,
              std::vector<double>& z);
  void smooth(Level& lv, const std::vector<double>& r,
              std::vector<double>& z, std::size_t sweeps, bool z_is_zero);
  void coarse_solve(const std::vector<double>& r, std::vector<double>& z);

  std::vector<Level> levels_;
  MultigridOptions opts_;
  // Dense Cholesky factor of the coarsest operator (row-major lower
  // triangle, factored once at construction).
  std::vector<double> coarse_chol_;
  std::size_t coarse_n_ = 0;
  std::vector<double> dot_partials_;
};

}  // namespace tacos
