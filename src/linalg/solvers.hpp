#pragma once
/// \file solvers.hpp
/// \brief Iterative linear solvers for the SPD thermal conductance system.
///
/// The production path is a preconditioned conjugate-gradient solver with
/// a pluggable SPD preconditioner: the geometric multigrid V-cycle
/// (linalg/multigrid.hpp) that ThermalModel injects, or Jacobi when
/// solve_pcg is given none.  Gauss-Seidel is kept as an independent
/// reference implementation used by the test suite to cross-check CG on
/// small systems.  Both solvers support warm starts, which the sweep
/// harnesses exploit heavily (adjacent sweep points have nearly identical
/// temperature fields).
///
/// Performance & determinism
/// -------------------------
/// PCG is the evaluation engine's hot path.  Its vector passes are fused
/// (SpMV with p·Ap, the x/r axpy pair with ||r||², the preconditioner
/// apply with r·z) to cut memory traffic, and large systems row-partition
/// the SpMV across the global ThreadPool.  Every reduction is computed as
/// fixed-size per-chunk partials combined in chunk order (linalg/
/// chunked.hpp), so solve results are **bit-identical regardless of
/// thread count** — the determinism the parallel optimizer runs rely on
/// (see docs/PERFORMANCE.md).

#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/fault_plan.hpp"
#include "linalg/csr.hpp"

namespace tacos {

/// Pluggable SPD preconditioner for solve_pcg.  Implementations must be
/// symmetric positive definite as operators (CG requires it) and must use
/// the deterministic chunked kernels for any parallel work so solves stay
/// bit-identical at every thread count.  An instance serves one matrix and
/// one solve at a time (internal workspaces are not thread-safe); sharing
/// across sequential solves on the same matrix is the intended use.
class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  /// z = M⁻¹ r, returning r·z computed with the chunk-ordered reduction.
  /// r and z are sized to the system; z is overwritten (no initial-guess
  /// semantics).
  virtual double apply_dot(const std::vector<double>& r,
                           std::vector<double>& z) = 0;
  /// Short identifier for diagnostics ("jacobi", "mg").
  virtual const char* name() const = 0;
};

/// The default preconditioner: z = D⁻¹ r fused with the r·z reduction in
/// a single vector pass.
class JacobiPreconditioner final : public Preconditioner {
 public:
  /// Throws SolverError if any diagonal entry is non-positive (the matrix
  /// is then not SPD-assembled).
  explicit JacobiPreconditioner(const CsrMatrix& A);
  double apply_dot(const std::vector<double>& r,
                   std::vector<double>& z) override;
  const char* name() const override { return "jacobi"; }

 private:
  std::vector<double> inv_diag_;
  std::vector<double> partials_;
};

/// Preconditioner selection, carried through the one config path
/// (SolveOptions → ThermalConfig → EvalConfig) so `--precond=jacobi|mg`
/// reaches every layer.  kAuto lets the owner of the system choose:
/// ThermalModel resolves it to multigrid at every size (Jacobi runs only
/// under an explicit kJacobi).  solve_pcg itself never consults this
/// field — it only looks at SolveOptions::preconditioner.
enum class PrecondKind { kAuto, kJacobi, kMultigrid };

/// Flag-value parsing for --precond= ("auto", "jacobi", "mg").
inline bool parse_precond_name(const std::string& s, PrecondKind* out) {
  if (s == "auto") *out = PrecondKind::kAuto;
  else if (s == "jacobi") *out = PrecondKind::kJacobi;
  else if (s == "mg") *out = PrecondKind::kMultigrid;
  else return false;
  return true;
}

inline const char* precond_name(PrecondKind k) {
  switch (k) {
    case PrecondKind::kJacobi: return "jacobi";
    case PrecondKind::kMultigrid: return "mg";
    case PrecondKind::kAuto: break;
  }
  return "auto";
}

/// Outcome of an iterative solve.
struct SolveResult {
  bool converged = false;
  std::size_t iterations = 0;
  double residual_norm = 0.0;  ///< final ||b - Ax|| / ||b||
};

/// Options shared by the iterative solvers.
struct SolveOptions {
  double rel_tolerance = 1e-8;  ///< convergence: ||r|| <= rel_tolerance*||b||
  std::size_t max_iterations = 20000;
  /// Gauss-Seidel only: the explicit residual (a full SpMV) is evaluated
  /// every this many sweeps (and always on the final sweep), so detected
  /// convergence can be up to interval-1 sweeps late.  PCG tracks the
  /// recursive residual every iteration and ignores this field.
  std::size_t residual_check_interval = 8;
  /// Deterministic fault injection (off by default).  The solvers never
  /// consult this themselves — ThermalModel's recovery ladder does; the
  /// plan rides here so it reaches every layer through one config path
  /// (SolveOptions → ThermalConfig → EvalConfig).
  FaultPlan fault;
  /// Cooperative cancellation (nullptr = never cancelled).  Both solvers
  /// poll it once per iteration/sweep and abandon the solve by throwing
  /// CancelledError — the hook that bounds a batch task's wall time at
  /// solver granularity.  Rides the same config path as `fault`.
  const CancelToken* cancel = nullptr;
  /// Preconditioner *selection* riding the config path (see PrecondKind).
  /// Resolved by ThermalModel, not by solve_pcg.
  PrecondKind precond = PrecondKind::kAuto;
  /// Externally-owned preconditioner instance for solve_pcg (nullptr =
  /// build a Jacobi preconditioner internally).  Not owned; must outlive
  /// the solve and match the matrix being solved — ThermalModel injects
  /// the multigrid hierarchy built for the operator at hand: G for
  /// steady-state solves, G + C/dt for transient steps.
  Preconditioner* preconditioner = nullptr;
};

/// Jacobi-preconditioned conjugate gradient for SPD systems.
/// `x` is both the initial guess (warm start) and the solution output; it
/// must be sized A.rows() (zero-fill for a cold start).
SolveResult solve_pcg(const CsrMatrix& A, const std::vector<double>& b,
                      std::vector<double>& x, const SolveOptions& opts = {});

/// Gauss-Seidel reference solver (slow; tests only).
SolveResult solve_gauss_seidel(const CsrMatrix& A, const std::vector<double>& b,
                               std::vector<double>& x,
                               const SolveOptions& opts = {});

/// Adjoint solve Aᵀ λ = b.  The thermal conductance matrix is symmetric,
/// so the adjoint system IS the forward system and this entry point
/// delegates to solve_pcg — same fused chunked kernels, same
/// preconditioner, bit-identical at any thread count.  Kept as a named
/// entry so adjoint consumers (ThermalModel::adjoint_peak) state their
/// intent and a future non-symmetric operator has one place to grow a
/// transpose path.  `lambda` warm-starts and receives the solution.
SolveResult solve_adjoint(const CsrMatrix& A, const std::vector<double>& b,
                          std::vector<double>& lambda,
                          const SolveOptions& opts = {});

/// Euclidean norm helper shared by solvers and tests.
double norm2(const std::vector<double>& v);

}  // namespace tacos
