#pragma once
/// \file chunked.hpp
/// \brief Deterministic chunked vector kernels shared by the solvers and
///        the multigrid preconditioner.
///
/// Every parallel loop and reduction in the linear-algebra hot path runs
/// over fixed-size row chunks whose boundaries depend only on the problem
/// size — never on the thread count — and reductions combine the per-chunk
/// partial sums **in chunk order** on the calling thread.  The serial path
/// uses the same boundaries, so results are bit-identical at 1, 2, or N
/// threads (the contract docs/PERFORMANCE.md describes and
/// tests/parallel_determinism_test.cpp pins down).

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/thread_pool.hpp"
#include "linalg/csr.hpp"

namespace tacos {

/// Reduction chunk size (rows).  Chunk boundaries — and therefore the
/// floating-point summation order — depend only on this constant and the
/// problem size, never on the thread count.
inline constexpr std::size_t kChunkRows = 2048;

/// Row count below which the kernels skip the pool entirely (the serial
/// path uses the same chunk boundaries, so results do not change — only
/// the dispatch overhead is avoided).  Thermal systems at grid 32+ are
/// above this; the small test matrices and coarse multigrid levels are
/// below it.
inline constexpr std::size_t kParallelMinRows = 8192;

/// The pool to hand the chunked kernels for an n-row system: the global
/// pool when the system is large enough to amortize dispatch and the pool
/// has workers, nullptr (serial, same chunk boundaries) otherwise.
inline ThreadPool* chunk_pool(std::size_t n) {
  ThreadPool& pool = ThreadPool::global();
  return (n >= kParallelMinRows && pool.thread_count() > 1) ? &pool : nullptr;
}

/// Runs `body(lo, hi)` over every `grain`-sized chunk of [0, n), on
/// `pool` when given (nullptr = serial).  `body` must be data-parallel
/// across chunks (each chunk touches only its own rows / partial slot).
template <typename Body>
void for_chunks(std::size_t n, ThreadPool* pool, Body&& body,
                std::size_t grain = kChunkRows) {
  if (pool) {
    pool->parallel_for(n, grain, body);
  } else {
    for (std::size_t lo = 0; lo < n; lo += grain)
      body(lo, std::min(n, lo + grain));
  }
}

/// Deterministic reduction: `chunk_fn(lo, hi)` returns one partial sum per
/// chunk; partials are combined sequentially in chunk order.
template <typename ChunkFn>
double reduce_chunks(std::size_t n, ThreadPool* pool,
                     std::vector<double>& partials, ChunkFn&& chunk_fn) {
  const std::size_t n_chunks = (n + kChunkRows - 1) / kChunkRows;
  partials.assign(n_chunks, 0.0);
  for_chunks(n, pool, [&](std::size_t lo, std::size_t hi) {
    partials[lo / kChunkRows] = chunk_fn(lo, hi);
  });
  double acc = 0.0;
  for (double v : partials) acc += v;
  return acc;
}

/// Row range of a sparse matrix-vector product: y[lo..hi) = (A x)[lo..hi).
///
/// The inner loop walks raw pointers over a contiguous [begin, end) slice
/// of the value/column arrays — no per-iteration bounds re-derivation —
/// which lets the compiler unroll and vectorize the gather+FMA.  The
/// left-to-right summation order per row is unchanged from the canonical
/// loop, so results are bit-identical to it.
inline void spmv_rows(const CsrMatrix& A, const std::vector<double>& x,
                      std::vector<double>& y, std::size_t lo, std::size_t hi) {
  const std::size_t* const rp = A.row_ptr().data();
  const std::size_t* const ci = A.col_idx().data();
  const double* const va = A.values().data();
  const double* const xv = x.data();
  for (std::size_t i = lo; i < hi; ++i) {
    const std::size_t b = rp[i], e = rp[i + 1];
    double acc = 0.0;
    for (std::size_t k = b; k < e; ++k) acc += va[k] * xv[ci[k]];
    y[i] = acc;
  }
}

/// Fused residual row range: out[lo..hi) = (r - A x)[lo..hi).  One pass
/// over the matrix slice instead of an SpMV followed by a subtraction —
/// same per-row summation order as spmv_rows, so bit-compatible with the
/// two-pass formulation.
inline void residual_rows(const CsrMatrix& A, const std::vector<double>& x,
                          const std::vector<double>& r, std::vector<double>& out,
                          std::size_t lo, std::size_t hi) {
  const std::size_t* const rp = A.row_ptr().data();
  const std::size_t* const ci = A.col_idx().data();
  const double* const va = A.values().data();
  const double* const xv = x.data();
  for (std::size_t i = lo; i < hi; ++i) {
    const std::size_t b = rp[i], e = rp[i + 1];
    double acc = 0.0;
    for (std::size_t k = b; k < e; ++k) acc += va[k] * xv[ci[k]];
    out[i] = r[i] - acc;
  }
}

}  // namespace tacos
