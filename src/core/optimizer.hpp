#pragma once
/// \file optimizer.hpp
/// \brief Chiplet-organization optimization (§III-D): objective Eq. (5),
///        the three-step multi-start greedy algorithm, and the exhaustive
///        search baseline used to validate it.
///
/// Step 1 computes IPS(f, p) for all 40 operating points (the Sniper
/// substitute) and C_2.5D for all discretized interposer sizes (Eqs. 1–4).
/// Step 2 forms every (f, p, n, W) combination, scores it with
///   alpha * IPS_2D / IPS(f, p) + beta * C_2.5D(n, W) / C_2D        (Eq. 5)
/// and sorts ascending.  Step 3 walks the sorted list and, for each
/// combination, searches the placement manifold for a layout meeting the
/// temperature threshold (Eq. 6):
///
///   * n = 4: s1 = s2 = 0 and Eq. (9) pins s3 = W - 2 w_c - 2 l_g — a
///     single placement per interposer size;
///   * n = 16: Eq. (9) pins 2 s1 + s3 = B := W - 4 w_c - 2 l_g, leaving a
///     two-parameter manifold (s1, s2) ∈ [0, B/2]^2 on a `step_mm` grid
///     (Eq. 10 bounds s2 by exactly B/2).  The greedy random-neighbor
///     descent of the paper's pseudocode explores this manifold from m
///     random starting points; the exhaustive baseline enumerates it.
///
/// The first combination with a feasible placement is the optimum, since
/// combinations are visited in ascending objective order.

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/journal.hpp"
#include "common/rng.hpp"
#include "core/evaluator.hpp"

namespace tacos {

/// One (f, p, n, W) combination of step 2, with its Eq. (5) score.
struct Combo {
  std::size_t dvfs_idx = 0;
  int active_cores = 0;
  int n_chiplets = 0;         ///< 4 or 16
  double interposer_mm = 0.0; ///< W (= H; square interposers)
  double ips = 0.0;
  double cost = 0.0;          ///< $, Eq. (4)
  double objective = 0.0;     ///< Eq. (5) value
};

/// Search options shared by greedy and exhaustive placement search.
struct OptimizerOptions {
  double alpha = 1.0;          ///< performance weight in Eq. (5)
  double beta = 0.0;           ///< cost weight in Eq. (5)
  double threshold_c = 85.0;   ///< Eq. (6) temperature threshold
  double step_mm = 0.5;        ///< spacing / interposer granularity
  int starts = 10;             ///< m random starting points (paper uses 10)
  int max_moves = 400;         ///< descent step budget per start
  std::uint64_t seed = 2018;   ///< RNG seed (deterministic runs)
  /// Pruning heuristic: the deterministic first start probes the uniform
  /// matrix placement, which is within a few °C of the best placement on
  /// the manifold.  If it misses the threshold by more than this margin,
  /// the combination is declared infeasible without exploring further
  /// (one simulation instead of ~m descents).  Set to 0 to disable —
  /// the greedy-vs-exhaustive validation does.
  double prune_margin_c = 6.0;
  std::vector<int> chiplet_counts = {4, 16};
  /// Continuous spacing refinement (`--refine`): after the grid search
  /// converges, descend from the winning n=16 placement with exact adjoint
  /// gradients dT_peak/d(s1, s2) (projected gradient descent with
  /// backtracking on the Eq. 9 manifold; see src/core/refine.hpp).  Every
  /// accepted step is re-verified with a full-fidelity evaluation, so the
  /// refined winner is exactly evaluated and never hotter than the grid
  /// one.  The combination (f, p, n, W) is fixed — Eq. (5) objective, IPS
  /// and cost are unchanged; only the spacings move off the grid.
  bool refine = false;
  /// Refinement stops when the projected step shrinks below this (mm).
  double refine_tol_mm = 1e-3;
  /// Hard cap on accepted descent steps per refinement.
  int refine_max_steps = 20;
  /// Cooperative cancellation (nullptr = never cancelled), polled once per
  /// combination and per descent move; pair it with
  /// `EvalConfig::thermal.solve.cancel` for solver-granularity response.
  const CancelToken* cancel = nullptr;
};

/// Optimization outcome.  A quarantined result is one whose task failed
/// even after the thermal stack's recovery ladder: it is reported as
/// infeasible (`found == false`) with the failure's structured diagnostic,
/// and the rest of the batch is unaffected.
struct OptResult {
  bool found = false;
  Organization org;            ///< chosen organization (valid if found)
  double ips = 0.0;
  double cost = 0.0;
  double objective = 0.0;
  double peak_c = 0.0;
  std::size_t combos_tried = 0;
  std::size_t thermal_solves = 0;  ///< solver invocations consumed
  /// Continuous refinement outcome (OptimizerOptions::refine): when the
  /// gradient descent accepted at least one step, `refined` is set, `org`
  /// carries the off-grid spacings, and the pre-refinement grid winner is
  /// preserved here (peak_c then holds the refined peak).
  bool refined = false;
  Spacing grid_spacing;        ///< grid winner's spacings (valid if refined)
  double peak_grid_c = 0.0;    ///< grid winner's peak (valid if refined)
  int refine_steps = 0;        ///< accepted descent steps
  bool quarantined = false;        ///< task isolated after an eval failure
  std::string diagnostic;          ///< failure context (when quarantined)
  /// The batch run was interrupted before (or while) this task ran; the
  /// result carries no data and the task was NOT journaled — a resumed run
  /// recomputes it from scratch, reproducing the uninterrupted output.
  bool interrupted = false;
};

/// Largest grid index on the n=16 spacing manifold: the (s1, s2) grid at
/// `step_mm` granularity spans indices 0..grid_points (inclusive), i.e.
/// floor(budget / 2 / step) with an epsilon guard against representation
/// error in step multiples.  This single helper is shared by the greedy
/// walk, the exhaustive enumeration and the design-space-size estimator,
/// so search-cost claims and the actual loops can never disagree.
long spacing_grid_max(double budget_mm, double step_mm);

/// Deterministic first-start grid indices (i1, i2) of the greedy descent:
/// the uniform matrix placement s1 = s3 = B/3, s2 = s3/2, snapped to the
/// nearest grid points and then rounded *down* onto the Eq. 9/10 manifold
/// whenever nearest overshoots it (possible for budgets that are not step
/// multiples: negative s3, or s2 past the Eq. 10 bound).  Historical
/// (step-divisible) starts are unchanged.
std::pair<long, long> greedy_smart_start(double budget_mm, double step_mm);

/// Step 1 + 2: enumerate and sort all combinations by Eq. (5).
/// `ips_2d` and `cost_2d` normalize the two objective terms.
std::vector<Combo> enumerate_combos(const Evaluator& eval,
                                    const BenchmarkProfile& bench,
                                    double ips_2d, double cost_2d,
                                    const OptimizerOptions& opts);

/// Placement search for one combination at fixed interposer size, using
/// the paper's multi-start greedy random-neighbor descent.  Returns the
/// feasible organization if one is found.
std::optional<Organization> find_placement_greedy(
    Evaluator& eval, const BenchmarkProfile& bench, const Combo& combo,
    const OptimizerOptions& opts, Rng& rng);

/// Placement search by exhaustive enumeration of the (s1, s2) grid.
std::optional<Organization> find_placement_exhaustive(
    Evaluator& eval, const BenchmarkProfile& bench, const Combo& combo,
    const OptimizerOptions& opts);

/// Full three-step optimization with greedy placement search.
OptResult optimize_greedy(Evaluator& eval, const BenchmarkProfile& bench,
                          const OptimizerOptions& opts);

/// Runs optimize_greedy for every benchmark in `bench_names` on the global
/// ThreadPool.  Each benchmark gets its own freshly-constructed Evaluator
/// shard (the Evaluator caches are not thread-safe, and sharing a frontier
/// across benchmarks would make results depend on completion order) and
/// its own Rng seeded from opts.seed, so the returned results — including
/// every chosen organization and objective value — are byte-identical at
/// any thread count, and identical to running the benchmarks serially in
/// order.  A task whose evaluation fails even after the thermal stack's
/// recovery ladder is quarantined: its row is returned infeasible with the
/// diagnostic attached (and counted in the merged RunHealth) while every
/// other task completes normally — surviving rows are identical at any
/// thread count.  Results align with `bench_names`; if `merged` is
/// non-null the per-shard solver/eval/health counters are summed into it
/// at join.
///
/// Durability (`run`, optional): with a journal, each completed task —
/// including quarantined and timed-out ones, which are terminal results —
/// is appended as one checksummed record, and journaled tasks are replayed
/// instead of recomputed (rows AND merged stats reproduce the
/// uninterrupted run byte-for-byte).  With a cancel token, tasks not yet
/// dispatched when it trips return `interrupted` (unjournaled, so a
/// `--resume` run recomputes them); with a deadline, an over-budget task
/// becomes a quarantined row with a `timeout:` diagnostic and counts in
/// `RunHealth::timeouts`.  See docs/ROBUSTNESS.md.
std::vector<OptResult> optimize_greedy_batch(
    const EvalConfig& config, const std::vector<std::string>& bench_names,
    const OptimizerOptions& opts, EvalStats* merged = nullptr,
    const RunControl* run = nullptr);

/// One task's outcome from the guarded per-task driver.
struct TaskOutcome {
  OptResult result;
  EvalStats stats;
  bool completed = true;  ///< terminal result (journalable)
};

/// The per-task body of optimize_greedy_batch, exposed so the sweep
/// fabric's worker loop (src/core/fabric.cpp) runs the *same* code path:
/// journal replay, per-task cancel/deadline token, quarantine containment,
/// health accounting, span annotation and journal append — which is what
/// makes an N-worker fabric journal byte-identical to the single-process
/// one.  `run` (and its journal) may be null.
TaskOutcome optimize_one_guarded(const EvalConfig& config,
                                 const std::string& name,
                                 const OptimizerOptions& opts,
                                 const RunControl* run);

/// Configuration fingerprint pinned into a run directory (the value bound
/// under `meta:optimize_greedy_batch`): any knob that changes task results
/// makes a resume with a mismatched journal an error.  Exposed so the
/// sweep fabric binds the *same* fingerprint into shard journals and the
/// merged canonical journal.
std::string batch_meta(const EvalConfig& config,
                       const std::vector<std::string>& bench_names,
                       const OptimizerOptions& opts);

/// Journal payload codec for one batch task (exposed for durability
/// tests).  encode → decode round-trips every field bit-exactly (doubles
/// rendered with %.17g).
std::string encode_opt_result(const OptResult& result, const EvalStats& stats);
bool decode_opt_result(const std::string& payload, OptResult* result,
                       EvalStats* stats);

/// Journal payload of a "refine:<bench>" row — the continuous-refinement
/// record optimize_one_guarded appends immediately *before* its
/// "optimize:<bench>" row whenever refinement accepted a step.  Derived
/// deterministically from the result, so replays and fabric shard merges
/// reproduce the same bytes.
std::string encode_refine_row(const OptResult& result);

/// Full optimization with exhaustive placement search (validation only).
OptResult optimize_exhaustive(Evaluator& eval, const BenchmarkProfile& bench,
                              const OptimizerOptions& opts);

/// Best achievable IPS at a fixed interposer size `w_mm` and chiplet count
/// `n` under the temperature threshold (drives Figs. 6 and 7): walks the
/// (f, p) pairs in descending-IPS order and returns the first that has a
/// feasible placement.
struct MaxIpsResult {
  bool found = false;
  Organization org;
  double ips = 0.0;
};
MaxIpsResult max_ips_at_interposer(Evaluator& eval,
                                   const BenchmarkProfile& bench, int n,
                                   double w_mm, const OptimizerOptions& opts,
                                   Rng& rng);

/// Size of the full per-benchmark design space at the options' granularity:
/// every (f, p, n, W, placement) organization an exhaustive sweep would
/// have to simulate (the paper counts ~680k at 0.5 mm granularity).  Used
/// by the E9 validation to report the greedy's simulation savings.
std::size_t design_space_size(const Evaluator& eval,
                              const OptimizerOptions& opts);

}  // namespace tacos
