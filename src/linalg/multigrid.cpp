#include "linalg/multigrid.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "common/errors.hpp"
#include "linalg/chunked.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tacos {

/// One level of the hierarchy.  Level 0 references the caller's matrix;
/// every coarser level owns its Galerkin product.  `agg` maps this
/// level's nodes to the next-coarser level's (empty on the coarsest).
/// z/tmp/rbuf are the per-apply workspaces, preallocated so a V-cycle
/// never allocates.
struct MultigridPreconditioner::Level {
  const CsrMatrix* A = nullptr;
  std::unique_ptr<CsrMatrix> owned;
  std::size_t nx = 0, ny = 0;
  // Line smoother: the LDLᵀ factor of every column's tridiagonal, indexed
  // like the unknowns.  inv_pivot[i] = 1 / d_i; mult[i] = the multiplier
  // eliminating node i's coupling to the node one layer below (0 on the
  // bottom layer and the lumped nodes, whose inv_pivot is 1 / a_ii).
  std::vector<double> inv_pivot, mult;
  std::vector<std::size_t> agg;
  std::vector<double> z, tmp, rbuf;
};

namespace {

/// Factors the tridiagonal of every (ix, iy) column of `A` across its
/// `layers` layers (T = L D Lᵀ, L unit lower bidiagonal): d_0 = a_0,
/// m_l = b_{l-1} / d_{l-1}, d_l = a_l − m_l b_{l-1}, where b_{l-1} is the
/// coupling between a column's layer l-1 and layer l nodes.  Lumped
/// nodes get point-Jacobi pivots.
void factor_columns(const CsrMatrix& A, std::size_t ncell, std::size_t layers,
                    std::size_t level, std::vector<double>& inv_pivot,
                    std::vector<double>& mult) {
  const std::size_t n = A.rows();
  const std::size_t ngrid = ncell * layers;
  const auto& rp = A.row_ptr();
  const auto& ci = A.col_idx();
  const auto& va = A.values();
  const std::vector<double> diag = A.diagonal();
  const auto pivot = [&](std::size_t i, double d) {
    if (!(d > 0.0))
      throw SolverError("pcg", 0, 0.0,
                        "multigrid level " + std::to_string(level) +
                            ": non-positive pivot at row " +
                            std::to_string(i));
    inv_pivot[i] = 1.0 / d;
  };
  inv_pivot.assign(n, 0.0);
  mult.assign(n, 0.0);
  std::vector<double> d(ncell);
  for (std::size_t c = 0; c < ncell; ++c) {
    d[c] = diag[c];
    pivot(c, d[c]);
  }
  for (std::size_t l = 1; l < layers; ++l) {
    for (std::size_t c = 0; c < ncell; ++c) {
      const std::size_t i = l * ncell + c, below = i - ncell;
      double b = 0.0;
      for (std::size_t k = rp[i]; k < rp[i + 1]; ++k)
        if (ci[k] == below) b += va[k];
      const double m = b / d[c];
      d[c] = diag[i] - m * b;
      mult[i] = m;
      pivot(i, d[c]);
    }
  }
  for (std::size_t i = ngrid; i < n; ++i) pivot(i, diag[i]);
}

/// Column solve fused with the update: z (+)= ω M⁻¹ src, where M is the
/// block diagonal of the column tridiagonals (point diagonal on lumped
/// nodes).  Forward elimination w_l = src_l − m_l w_{l-1} runs into `t`
/// (in place when src is t), then back substitution
/// x_l = w_l / d_l − m_{l+1} x_{l+1}; each layer is a contiguous run of a
/// chunk's columns, so the inner loops are unit-stride.  Columns are
/// independent, so the result does not depend on the chunking.
/// `assign` overwrites z (a zero iterate) instead of adding to it.
void column_solve(std::size_t lo, std::size_t hi, std::size_t ncell,
                  std::size_t layers, double omega, const double* ip,
                  const double* m, const double* s, double* t, double* z,
                  bool assign) {
  const auto update = [&](std::size_t i) {
    z[i] = assign ? omega * t[i] : z[i] + omega * t[i];
  };
  for (std::size_t c = lo; c < hi; ++c) t[c] = s[c];
  for (std::size_t l = 1; l < layers; ++l) {
    const std::size_t base = l * ncell;
    for (std::size_t i = base + lo; i < base + hi; ++i)
      t[i] = s[i] - m[i] * t[i - ncell];
  }
  const std::size_t top = (layers - 1) * ncell;
  for (std::size_t i = top + lo; i < top + hi; ++i) {
    t[i] *= ip[i];
    update(i);
  }
  for (std::size_t l = layers - 1; l-- > 0;) {
    const std::size_t base = l * ncell;
    for (std::size_t i = base + lo; i < base + hi; ++i) {
      t[i] = t[i] * ip[i] - m[i + ncell] * t[i + ncell];
      update(i);
    }
  }
}

/// out = r − A z over every row, in fixed chunks: the one residual pass of
/// smooth() and vcycle().  Inlined into smooth() instead, GCC 12 spilled
/// registers in the gather loop and transient steps ran ~7 % slower.
void residual(const CsrMatrix& A, const std::vector<double>& z,
              const std::vector<double>& r, std::vector<double>& out,
              ThreadPool* pool) {
  for_chunks(A.rows(), pool, [&](std::size_t lo, std::size_t hi) {
    residual_rows(A, z, r, out, lo, hi);
  });
}

}  // namespace

MultigridPreconditioner::~MultigridPreconditioner() = default;

MultigridPreconditioner::MultigridPreconditioner(const CsrMatrix& A,
                                                 const MultigridGeometry& geom,
                                                 const MultigridOptions& opts)
    : opts_(opts) {
  if (geom.nx == 0 || geom.ny == 0 || geom.layers == 0 ||
      geom.nx * geom.ny * geom.layers + geom.lumped != A.rows())
    throw SolverError("pcg", 0, 0.0,
                      "multigrid geometry does not match matrix: " +
                          std::to_string(geom.nx) + "x" +
                          std::to_string(geom.ny) + "x" +
                          std::to_string(geom.layers) + "+" +
                          std::to_string(geom.lumped) + " vs " +
                          std::to_string(A.rows()) + " rows");
  // R = Pᵀ plus an equal pre/post smoothing count is what makes the
  // V-cycle a symmetric operator; CG silently diverges otherwise.
  if (opts_.pre_sweeps != opts_.post_sweeps || opts_.pre_sweeps == 0)
    throw SolverError("pcg", 0, 0.0,
                      "multigrid requires pre_sweeps == post_sweeps >= 1");
  if (opts_.max_levels == 0) opts_.max_levels = 1;
  layers_ = geom.layers;

  {
    Level fine;
    fine.A = &A;
    fine.nx = geom.nx;
    fine.ny = geom.ny;
    levels_.push_back(std::move(fine));
  }

  // Coarsen serially: 2x aggregation in x and y per layer, layers and
  // lumped nodes carried through, Galerkin coarse operator by summing
  // each fine conductance into its aggregate pair (CsrBuilder sums
  // duplicate triplets).
  while (levels_.size() < opts_.max_levels) {
    Level& f = levels_.back();
    const std::size_t nf = f.A->rows();
    if (nf <= opts_.coarsest_max_unknowns) break;
    const std::size_t cnx = (f.nx + 1) / 2;
    const std::size_t cny = (f.ny + 1) / 2;
    if (cnx == f.nx && cny == f.ny) break;  // 1x1 per layer: cannot halve

    const std::size_t ncell = f.nx * f.ny;
    const std::size_t ccell = cnx * cny;
    const std::size_t nc = geom.layers * ccell + geom.lumped;

    f.agg.resize(nf);
    for (std::size_t l = 0; l < geom.layers; ++l)
      for (std::size_t iy = 0; iy < f.ny; ++iy)
        for (std::size_t ix = 0; ix < f.nx; ++ix)
          f.agg[l * ncell + iy * f.nx + ix] =
              l * ccell + (iy / 2) * cnx + (ix / 2);
    for (std::size_t k = 0; k < geom.lumped; ++k)
      f.agg[geom.layers * ncell + k] = geom.layers * ccell + k;

    CsrBuilder cb(nc);
    const auto& rp = f.A->row_ptr();
    const auto& ci = f.A->col_idx();
    const auto& va = f.A->values();
    for (std::size_t i = 0; i < nf; ++i)
      for (std::size_t k = rp[i]; k < rp[i + 1]; ++k)
        cb.add(f.agg[i], f.agg[ci[k]], va[k]);

    Level c;
    c.owned = std::make_unique<CsrMatrix>(cb.build());
    c.A = c.owned.get();
    c.nx = cnx;
    c.ny = cny;
    levels_.push_back(std::move(c));
  }

  // Column factors (all but the coarsest) and workspaces.
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    Level& lv = levels_[l];
    const std::size_t n = lv.A->rows();
    lv.z.assign(n, 0.0);
    lv.tmp.assign(n, 0.0);
    lv.rbuf.assign(n, 0.0);
    if (l + 1 == levels_.size()) continue;
    factor_columns(*lv.A, lv.nx * lv.ny, layers_, l, lv.inv_pivot, lv.mult);
  }

  // Coarsest level: dense Cholesky, factored once.  The loop above only
  // stops early on rows <= coarsest_max_unknowns or a 1x1-per-layer grid
  // (a few dozen rows); anything larger means the geometry cannot be
  // coarsened and a dense factor would blow up memory.
  const CsrMatrix& C = *levels_.back().A;
  coarse_n_ = C.rows();
  if (coarse_n_ > 5000)
    throw SolverError("pcg", 0, 0.0,
                      "multigrid coarsest level has " +
                          std::to_string(coarse_n_) +
                          " rows — geometry not coarsenable to a direct "
                          "solve (raise max_levels?)");
  coarse_chol_.assign(coarse_n_ * coarse_n_, 0.0);
  {
    const auto& rp = C.row_ptr();
    const auto& ci = C.col_idx();
    const auto& va = C.values();
    for (std::size_t i = 0; i < coarse_n_; ++i)
      for (std::size_t k = rp[i]; k < rp[i + 1]; ++k)
        coarse_chol_[i * coarse_n_ + ci[k]] = va[k];
  }
  // In-place LL^T on the lower triangle.
  double* a = coarse_chol_.data();
  const std::size_t n = coarse_n_;
  for (std::size_t j = 0; j < n; ++j) {
    double d = a[j * n + j];
    for (std::size_t k = 0; k < j; ++k) d -= a[j * n + k] * a[j * n + k];
    if (d <= 0.0)
      throw SolverError("pcg", 0, 0.0,
                        "multigrid coarse Cholesky breakdown at row " +
                            std::to_string(j) +
                            " — matrix not SPD-assembled");
    const double ljj = std::sqrt(d);
    a[j * n + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = a[i * n + j];
      for (std::size_t k = 0; k < j; ++k) s -= a[i * n + k] * a[j * n + k];
      a[i * n + j] = s / ljj;
    }
  }
}

std::size_t MultigridPreconditioner::level_count() const {
  return levels_.size();
}

std::size_t MultigridPreconditioner::unknowns(std::size_t level) const {
  return levels_[level].A->rows();
}

/// The line smoother's solve on every column and lumped node, in chunks of
/// whole columns covering ~kChunkRows rows each.
void MultigridPreconditioner::line_solve(Level& lv,
                                         const std::vector<double>& src,
                                         std::vector<double>& z,
                                         bool z_is_zero) {
  const std::size_t n = lv.A->rows();
  const std::size_t ncell = lv.nx * lv.ny;
  const double omega = opts_.omega;
  const double* const ip = lv.inv_pivot.data();
  for_chunks(
      ncell, chunk_pool(n),
      [&](std::size_t lo, std::size_t hi) {
        column_solve(lo, hi, ncell, layers_, omega, ip, lv.mult.data(),
                     src.data(), lv.tmp.data(), z.data(), z_is_zero);
      },
      std::max<std::size_t>(1, kChunkRows / layers_));
  for (std::size_t i = ncell * layers_; i < n; ++i) {
    const double x = src[i] * ip[i];
    z[i] = z_is_zero ? omega * x : z[i] + omega * x;
  }
}

/// Damped line-Jacobi sweeps: z <- z + ω M⁻¹ (r − A z).  When the incoming
/// z is logically zero the first sweep skips the residual.  Each later
/// sweep is a row-chunked residual pass and a column-chunked solve with a
/// barrier between them (the residual reads neighbouring columns of z).
void MultigridPreconditioner::smooth(Level& lv, const std::vector<double>& r,
                                     std::vector<double>& z,
                                     std::size_t sweeps, bool z_is_zero) {
  const std::size_t n = lv.A->rows();
  ThreadPool* const pool = chunk_pool(n);
  std::size_t s = 0;
  if (z_is_zero && sweeps > 0) {
    line_solve(lv, r, z, /*z_is_zero=*/true);
    s = 1;
  }
  for (; s < sweeps; ++s) {
    residual(*lv.A, z, r, lv.tmp, pool);
    line_solve(lv, lv.tmp, z, /*z_is_zero=*/false);
  }
}

void MultigridPreconditioner::coarse_solve(const std::vector<double>& r,
                                           std::vector<double>& z) {
  static obs::SpanSite site("thermal.mg.coarse", "thermal");
  obs::TraceSpan span(site);
  const std::size_t n = coarse_n_;
  const double* L = coarse_chol_.data();
  // Forward substitution L y = r (y in z), then back substitution
  // L^T z = y.  Serial and order-fixed: deterministic by construction.
  for (std::size_t i = 0; i < n; ++i) {
    double s = r[i];
    for (std::size_t k = 0; k < i; ++k) s -= L[i * n + k] * z[k];
    z[i] = s / L[i * n + i];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = z[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= L[k * n + ii] * z[k];
    z[ii] = s / L[ii * n + ii];
  }
}

void MultigridPreconditioner::vcycle(std::size_t l,
                                     const std::vector<double>& r,
                                     std::vector<double>& z) {
  Level& lv = levels_[l];
  const std::size_t n = lv.A->rows();
  static obs::SpanSite site("thermal.mg.level", "thermal");
  obs::TraceSpan span(site);
  span.arg("level", static_cast<std::int64_t>(l));
  span.arg("rows", static_cast<std::int64_t>(n));

  if (l + 1 == levels_.size()) {
    coarse_solve(r, z);
    return;
  }

  smooth(lv, r, z, opts_.pre_sweeps, /*z_is_zero=*/true);

  // Residual tmp = r - A z, then restrict into the next level's rbuf.
  ThreadPool* const pool = chunk_pool(n);
  residual(*lv.A, z, r, lv.tmp, pool);
  Level& cv = levels_[l + 1];
  // Restriction is a scatter-add over aggregates; parallelizing it would
  // race, so it stays serial (coarse vectors are small).
  std::fill(cv.rbuf.begin(), cv.rbuf.end(), 0.0);
  for (std::size_t i = 0; i < n; ++i) cv.rbuf[lv.agg[i]] += lv.tmp[i];

  vcycle(l + 1, cv.rbuf, cv.z);

  // Prolongation: z += P zc (piecewise constant — gather, safe to chunk).
  for_chunks(n, pool, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) z[i] += cv.z[lv.agg[i]];
  });

  smooth(lv, r, z, opts_.post_sweeps, /*z_is_zero=*/false);
}

double MultigridPreconditioner::apply_dot(const std::vector<double>& r,
                                          std::vector<double>& z) {
  static obs::SpanSite site("thermal.mg.cycle", "thermal");
  obs::TraceSpan span(site);
  span.arg("levels", static_cast<std::int64_t>(levels_.size()));
  if (obs::metrics_enabled()) {
    static obs::Counter cycles =
        obs::MetricsRegistry::global().counter("thermal.mg.cycles");
    cycles.add();
  }
  vcycle(0, r, z);
  const std::size_t n = levels_[0].A->rows();
  return reduce_chunks(n, chunk_pool(n), dot_partials_,
                       [&](std::size_t lo, std::size_t hi) {
                         double acc = 0.0;
                         for (std::size_t i = lo; i < hi; ++i)
                           acc += r[i] * z[i];
                         return acc;
                       });
}

}  // namespace tacos
