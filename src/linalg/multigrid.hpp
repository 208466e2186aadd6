#pragma once
/// \file multigrid.hpp
/// \brief Deterministic geometric multigrid V-cycle preconditioner for the
///        thermal systems: steady G and transient-step G + C/dt.
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
/// The smoother is vertical-line block Jacobi.  The package stack puts
/// 10 µm microbump and 20 µm TIM layers under millimetre cells, so the
/// vertical conductances are orders of magnitude stronger than the
/// lateral ones and a point smoother cannot relax them; a line smoother
/// solves every (ix, iy) column across its layers exactly.  At build time
/// each level factors the tridiagonal of every column once (LDLᵀ: one
/// pivot and one multiplier per node); lumped nodes keep point Jacobi.
/// The V-cycle applies an equal number of damped (ω < 1) pre- and
/// post-smoothing sweeps on every level and a dense Cholesky solve on the
/// coarsest.  With R = Pᵀ and a symmetric smoother the cycle is a
/// symmetric operator, and damped block Jacobi on a diagonally dominant
/// matrix is convergent, making the cycle positive definite — the
/// contract solve_pcg's Preconditioner interface requires.
///
/// Determinism: the hierarchy is built serially, restriction is serial
/// (scatter-adds would race), and every smoothing sweep / prolongation /
/// reduction runs through the chunk-ordered kernels in linalg/chunked.hpp;
/// column solves run in chunks of whole columns, so no column's result
/// depends on the chunking.  Results are bit-identical at any thread
/// count; coarse levels fall below kParallelMinRows and run serially with
/// the same chunk boundaries.
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
/// override `coarsest_max_unknowns` to exercise other hierarchy depths.
struct MultigridOptions {
  /// Stop coarsening once a level has at most this many unknowns; that
  /// level is solved directly by dense Cholesky.  The line smoother keeps
  /// every level effective, so the hierarchy runs down to a few cells per
  /// layer (44 unknowns for the paper's 2.5D stack from grid 32 up).
  std::size_t coarsest_max_unknowns = 64;
  std::size_t max_levels = 16;
  std::size_t pre_sweeps = 1;   ///< line-smoother sweeps before descent
  std::size_t post_sweeps = 1;  ///< must equal pre_sweeps for symmetry
  double omega = 0.8;           ///< smoother damping (< 1 for SPD safety)
};

/// Geometric multigrid V-cycle implementing solve_pcg's Preconditioner
/// interface.  Construction builds the full hierarchy (aggregation maps,
/// Galerkin coarse operators, column factors, coarsest Cholesky factor)
/// and preallocates every per-apply workspace, so apply_dot never
/// allocates.  Level 0 *references* the caller's matrix — the instance
/// must not outlive it.  Throws SolverError if the matrix is not
/// SPD-assembled (non-positive pivot or Cholesky breakdown).
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
  void line_solve(Level& lv, const std::vector<double>& src,
                  std::vector<double>& z, bool z_is_zero);
  void coarse_solve(const std::vector<double>& r, std::vector<double>& z);

  std::vector<Level> levels_;
  MultigridOptions opts_;
  std::size_t layers_ = 0;  ///< gridded layers: the column length
  // Dense Cholesky factor of the coarsest operator (row-major lower
  // triangle, factored once at construction).
  std::vector<double> coarse_chol_;
  std::size_t coarse_n_ = 0;
  std::vector<double> dot_partials_;
};

}  // namespace tacos
