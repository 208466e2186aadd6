#pragma once
/// \file evaluator.hpp
/// \brief The closed evaluation loop of Fig. 4(b): chiplet organizer →
///        floorplan generator → power model → thermal simulation, with the
///        temperature-dependent leakage fixed point of §IV.
///
/// The Evaluator is the single entry point the optimizers use.  It owns
/// three caches that make the optimization tractable on one machine:
///
///   1. a layout-keyed LRU of assembled ThermalModel instances (matrix
///      assembly is geometry-only and reusable across power maps);
///   2. an exact evaluation memo keyed by (layout, benchmark, f, p);
///   3. a monotone "thermal frontier" per (layout, p): peak temperature is
///      monotone in the injected reference power for a fixed layout and
///      active-core pattern, so previously solved points bound the
///      feasibility of new (benchmark, f) queries without running the
///      solver.  A safety margin avoids wrong conclusions near the
///      threshold (power-map *shape* varies slightly between benchmarks
///      because of the network-power share).
///
/// Statistics of thermal-solver invocations are tracked to reproduce the
/// paper's greedy-vs-exhaustive cost comparison (§III-D: 400× fewer
/// simulations).

#include <limits>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "alloc/policy.hpp"
#include "common/run_health.hpp"
#include "core/organization.hpp"
#include "cost/cost_model.hpp"
#include "materials/stack.hpp"
#include "perf/ips_model.hpp"
#include "power/power_model.hpp"
#include "thermal/grid_model.hpp"

namespace tacos {

/// Evaluation fidelity selector (CLI `--fidelity=`).  kFull evaluates
/// every candidate with the full leakage fixed point (the historical
/// behavior).  kLadder screens candidates on a half-resolution (medium)
/// model first and promotes the rest to the full evaluation; kAuto
/// resolves at Evaluator construction to kLadder exactly when the medium
/// rung is available (both half-resolution edges ≥
/// LadderOptions::medium_grid_min — grid ≥ 16 at defaults), else kFull.
enum class FidelityMode { kAuto, kFull, kLadder };

const char* fidelity_mode_name(FidelityMode m);
std::optional<FidelityMode> parse_fidelity_mode(std::string_view s);

/// Fidelity-ladder knobs (EvalConfig::ladder).  The ladder is a *screen*:
/// it may only reject candidates the full path would also reject, and any
/// doubt promotes the candidate to the full solve.  Confidence is
/// empirical: a medium-rung estimate only rejects once `min_calibration`
/// (estimate, full) pairs have been observed for that (benchmark, chiplet
/// count) and the *most optimistic* observed residual, minus
/// `safety_margin_c`, still puts the candidate above the rejection
/// threshold.  Cold start (no calibration data) therefore promotes
/// everything — bit-identical to kFull.
struct LadderOptions {
  FidelityMode mode = FidelityMode::kFull;
  /// Fraction of confident rejects promoted anyway (deterministic integer
  /// schedule, no RNG) as a continuing audit of the calibration bounds.
  double keep_frac = 0.0;
  /// (estimate, full-result) pairs required per (bench, n) before the
  /// medium rung's estimates may reject.
  int min_calibration = 5;
  /// Extra headroom (°C) on top of the calibrated residual bound.
  double safety_margin_c = 1.0;
  /// The medium rung uses a half-resolution model; below this edge it is
  /// unavailable (and kAuto resolves to kFull).
  std::size_t medium_grid_min = 8;
  /// Leakage fixed-point tolerance (°C) for medium-rung estimates.  Looser
  /// than the full path's: the unconverged tail is a smooth bias the
  /// residual calibration absorbs, and it saves ~2 medium solves per
  /// estimate.
  double medium_leak_tol_c = 0.25;
};

/// Mergeable fidelity-ladder counters (EvalStats::ladder; journal line
/// "ladder").  screened = candidates entering the ladder; each one ends
/// as exactly one of rejected / promoted (audited rejects count as
/// promoted, plus audits).
struct LadderStats {
  std::size_t screened = 0;         ///< candidates entering the ladder
  std::size_t rejected = 0;         ///< screened out (no full evaluation)
  std::size_t promoted = 0;         ///< passed through to the full path
  std::size_t audits = 0;           ///< keep-frac audits (subset of promoted)
  std::size_t medium_solves = 0;    ///< medium-grid solves
  std::size_t medium_failures = 0;  ///< medium-rung failures (promoted past)
  /// Counters of the retired surrogate and coarse-solve rungs: always
  /// zero.  Kept for readers of the old counter set (perfbench's
  /// `ladder.surrogate_scores` / `ladder.coarse_solves`).
  std::size_t surrogate_scores = 0;
  std::size_t coarse_solves = 0;

  bool any() const { return screened != 0; }

  LadderStats& operator+=(const LadderStats& o) {
    screened += o.screened;
    rejected += o.rejected;
    promoted += o.promoted;
    audits += o.audits;
    medium_solves += o.medium_solves;
    medium_failures += o.medium_failures;
    return *this;
  }
};

/// Mergeable counters of the continuous spacing refinement stage
/// (EvalStats::refine; journal line "refine").  `attempted` counts
/// frontier winners entering refinement, `steps` accepted descent steps,
/// `trials` candidate evaluations tried by the line search (accepted or
/// not), `adjoint_solves` extra adjoint linear solves paid for gradients.
struct RefineStats {
  std::size_t attempted = 0;       ///< winners entering refinement
  std::size_t steps = 0;           ///< accepted (re-verified) descent steps
  std::size_t trials = 0;          ///< line-search candidates evaluated
  std::size_t adjoint_solves = 0;  ///< adjoint solves for gradients

  bool any() const { return attempted != 0; }

  RefineStats& operator+=(const RefineStats& o) {
    attempted += o.attempted;
    steps += o.steps;
    trials += o.trials;
    adjoint_solves += o.adjoint_solves;
    return *this;
  }
};

/// Evaluator configuration (every model parameter in one place).
struct EvalConfig {
  SystemSpec spec;
  ThermalConfig thermal;
  CostParams cost;
  PowerModelParams power;
  AllocPolicy policy = AllocPolicy::kMinTemp;
  double leak_tol_c = 0.05;  ///< leakage fixed-point convergence (°C)
  int max_leak_iters = 12;
  /// Frontier safety margin (°C): conclusions from the monotone cache are
  /// only drawn when the bounding peak is at least this far from the
  /// threshold; otherwise an exact simulation is run.
  double frontier_margin_c = 1.0;
  std::size_t model_cache_capacity = 48;
  /// Multi-fidelity evaluation ladder (off — kFull — by default).
  LadderOptions ladder;
};

/// Result of a thermal evaluation.  `leak_converged == false` flags a
/// leakage fixed point that ran out of iterations: the fields are the last
/// iterate, honest but not fully settled (also counted in RunHealth).
struct ThermalEval {
  double peak_c = 0.0;         ///< converged peak silicon temperature
  double total_power_w = 0.0;  ///< converged total power (incl. leakage, net)
  int leak_iterations = 0;
  std::size_t solves = 0;      ///< linear solves used
  bool leak_converged = true;  ///< leakage fixed point met its tolerance
};

/// The 2D baseline operating point (best (f, p) under a threshold).
/// When no (f, p) pair meets the threshold, `feasible` is false and the
/// remaining fields are meaningless placeholders (zeros) — callers must
/// check `feasible` before using them (baseline_2d() documents this).
struct BaselinePoint {
  std::size_t dvfs_idx = 0;
  int active_cores = 0;
  double ips = 0.0;
  double peak_c = 0.0;
  bool feasible = false;  ///< false if no (f, p) meets the threshold
};

/// Mergeable evaluation counters.  Parallel drivers give every task its
/// own Evaluator shard (the caches are not thread-safe) and combine the
/// shards' counters at join time with operator+=.
struct EvalStats {
  std::size_t solves = 0;  ///< linear-solver invocations
  std::size_t evals = 0;   ///< full organization evaluations simulated
  RunHealth health;        ///< recoveries / degradations / quarantines
  LadderStats ladder;      ///< fidelity-ladder screening counters
  RefineStats refine;      ///< continuous spacing-refinement counters
  EvalStats& operator+=(const EvalStats& o) {
    solves += o.solves;
    evals += o.evals;
    health += o.health;
    ladder += o.ladder;
    refine += o.refine;
    return *this;
  }
};

class Evaluator {
 public:
  explicit Evaluator(EvalConfig config);

  const EvalConfig& config() const { return config_; }

  /// Full thermal evaluation (leakage fixed point); memoized.
  const ThermalEval& thermal_eval(const Organization& org,
                                  const BenchmarkProfile& bench);

  /// Peak-temperature feasibility against `threshold_c`, using the
  /// monotone frontier to avoid simulations where possible.
  bool feasible(const Organization& org, const BenchmarkProfile& bench,
                double threshold_c);

  /// System performance of `org` for `bench` (no thermal check).
  double ips(const Organization& org, const BenchmarkProfile& bench) const;

  /// Manufacturing cost of `org` ($; Eq. (4), or Eq. (3) for n = 1).
  double cost(const Organization& org) const;

  /// Cost of the 2D baseline chip ($).
  double cost_2d() const { return cost_2d_; }

  /// Best 2D operating point under `threshold_c` (memoized per threshold).
  /// If no (f, p) pair is thermally feasible, the returned point has
  /// `feasible == false` (explicitly marked, and memoized as such) and its
  /// other fields must not be interpreted.
  const BaselinePoint& baseline_2d(const BenchmarkProfile& bench,
                                   double threshold_c);

  /// Fidelity-ladder screen: true when the ladder is on and the calibrated
  /// medium rung concludes — with margin — that `org`'s peak exceeds
  /// `reject_above_c`, so the caller may skip the candidate without a
  /// full evaluation.  False means "not confidently rejectable":
  /// callers MUST then take exactly the path they would have taken without
  /// the ladder (same solves, same RNG draws) — that promotion discipline
  /// is what keeps a screened decision the one the full path would make.
  /// In kFull mode (and for memoized candidates the full path already
  /// rejected exactly) this is a no-op returning the exact verdict.  Never
  /// throws for rung failures: a failed medium solve just promotes.
  bool screen_infeasible(const Organization& org,
                         const BenchmarkProfile& bench,
                         double reject_above_c);

  /// True when config().ladder resolves to the ladder being active.
  bool ladder_active() const {
    return config_.ladder.mode == FidelityMode::kLadder;
  }

  /// One walk-candidate verdict from walk_eval (and the shape the greedy
  /// walk consumes in full mode too).  `feasible == true` means "commit:
  /// return this organization" — in ladder mode that verdict is always
  /// backed by an exact full evaluation or a margin-guarded frontier
  /// deduction, never by an estimate alone.  When `exact == false`,
  /// `peak_c` is a bias-corrected medium-rung estimate and `band_c` the
  /// calibrated residual half-spread at this operating point — the walk
  /// orders such candidates by the estimate.  Ordering noise in the hot
  /// region perturbs the descent path, so the committed placement may
  /// differ from the full walk's (other spacings, same combination and
  /// objective on every tested sweep); it is still verified feasible at
  /// full fidelity.
  struct WalkEval {
    double peak_c = 0.0;
    double band_c = 0.0;
    bool exact = true;
    bool feasible = false;
  };

  /// Ladder-mode walk evaluation: returns a calibrated medium-rung
  /// estimate when the rung is confident the placement is infeasible (and,
  /// if `prune_above_c` is finite, confident on which side of that second
  /// boundary the true peak lies); in every ambiguous case — cold start,
  /// estimate near a decision boundary, medium rung unavailable or failed
  /// — it falls through to the exact full evaluation, which also closes
  /// the calibration loop.  In kFull mode this is exactly thermal_eval.
  WalkEval walk_eval(const Organization& org, const BenchmarkProfile& bench,
                     double threshold_c,
                     double prune_above_c =
                         std::numeric_limits<double>::quiet_NaN());

  /// Exact adjoint spacing gradient of the converged peak temperature.
  /// Runs the leakage fixed point to convergence, re-solves once at the
  /// converged power map for a consistent (q, T) pair, then pays one
  /// extra adjoint solve; d_s1/d_s2 are dT_peak/ds along the fixed-
  /// interposer Eq. 9 manifold (ds3 = −2·ds1) at frozen source watts
  /// (see thermal/adjoint.hpp).  Requires n == 16.  Not memoized: the
  /// refinement loop visits each off-grid point once.
  struct PeakGradient {
    double peak_c = 0.0;  ///< converged peak at the evaluated point
    double d_s1 = 0.0;    ///< dT_peak/ds1 (°C/mm) along the manifold
    double d_s2 = 0.0;    ///< dT_peak/ds2 (°C/mm)
  };
  PeakGradient peak_gradient(const Organization& org,
                             const BenchmarkProfile& bench);

  /// Fidelity-ladder counters for this shard.
  const LadderStats& ladder_stats() const { return ladder_stats_; }

  /// Refinement counters for this shard (mutable: the refinement driver in
  /// core/refine.cpp ticks attempted/steps/trials; peak_gradient ticks
  /// adjoint_solves itself).
  RefineStats& refine_stats() { return refine_stats_; }

  /// Thermal-solver invocation counter (for the E9 validation experiment).
  std::size_t solve_count() const { return solve_count_; }
  /// Number of full organization evaluations actually simulated.
  std::size_t eval_count() const { return eval_count_; }
  /// Health counters aggregated across every model this shard built
  /// (recovery-ladder escalations, leakage non-convergence, failures).
  const RunHealth& health() const { return ledger_.health; }
  /// Counters as a mergeable snapshot (parallel shard join).
  EvalStats stats() const {
    return EvalStats{solve_count_, eval_count_, ledger_.health, ladder_stats_,
                     refine_stats_};
  }
  void reset_stats() {
    solve_count_ = 0;
    eval_count_ = 0;
    ledger_.health = RunHealth{};
    ladder_stats_ = LadderStats{};
    refine_stats_ = RefineStats{};
  }

 private:
  /// Quantized layout identity (1 nm resolution on spacings — fine enough
  /// that the refinement stage's off-grid spacings never collide).
  struct LayoutKey {
    int n;
    long s1, s2, s3;
    auto operator<=>(const LayoutKey&) const = default;
    static LayoutKey of(const Organization& org);
  };
  struct EvalKey {
    LayoutKey layout;
    int bench_idx;
    std::size_t dvfs_idx;
    int p;
    auto operator<=>(const EvalKey&) const = default;
  };
  struct FrontierKey {
    LayoutKey layout;
    int p;
    auto operator<=>(const FrontierKey&) const = default;
  };

  struct ModelEntry {
    std::unique_ptr<ChipletLayout> layout;
    std::unique_ptr<ThermalModel> model;
  };

  /// Fetch (or build) the model for `org`'s layout.  Returns a shared
  /// handle: callers hold it across the whole solve, so an LRU eviction —
  /// including the degenerate capacity-0 case, where the entry is evicted
  /// on the very call that built it — can never destroy a model (and its
  /// cached multigrid hierarchy) out from under an in-flight evaluation.
  std::shared_ptr<ModelEntry> model_for(const Organization& org);
  int bench_index(const BenchmarkProfile& bench) const;
  /// Monotone-frontier deduction for feasibility at `threshold_c`:
  /// true/false when a margin-guarded bound decides it, nullopt otherwise.
  std::optional<bool> frontier_verdict(const EvalKey& key,
                                       const Organization& org,
                                       const BenchmarkProfile& bench,
                                       double threshold_c) const;
  /// Total power at the leakage reference temperature (frontier abscissa).
  double reference_power(const Organization& org,
                         const BenchmarkProfile& bench) const;

  // --- Fidelity ladder (see LadderOptions) ----------------------------
  /// Calibration identity: the medium rung's residual bounds are tracked
  /// independently per (benchmark, chiplet count) — its bias differs
  /// across both axes.
  struct RungKey {
    int bench_idx;
    int n;
    auto operator<=>(const RungKey&) const = default;
  };
  /// Out-of-sample residual record of the medium rung: count observed
  /// pairs and the extremes of full − estimate.  The medium rung is the
  /// same physics at half resolution with a small, stable discretization
  /// bias, so its rejection bound is trusted at any estimate.
  struct ResidBound {
    int count = 0;
    double min_resid = 0.0;
    double max_resid = 0.0;
  };

  /// Calibrated verdict on a medium-rung estimate: true when even the
  /// most optimistic calibrated residual, less the safety margin, keeps
  /// the candidate above `reject_above_c`.
  bool rung_verdict(const EvalKey& key, double est_c,
                    double reject_above_c) const;
  /// Medium-rung availability (lazy medium-config construction).
  bool medium_available();
  /// Medium-resolution twin of model_for (separate LRU + ledger).
  std::shared_ptr<ModelEntry> medium_model_for(const Organization& org);
  /// Memoized medium-rung estimate (converged medium-grid leakage fixed
  /// point); registers the pending calibration pair.  nullopt when the
  /// medium rung is unavailable, failed, or did not converge — callers
  /// promote.
  /// `*fresh` reports whether this call paid for a new medium solve.
  std::optional<double> medium_estimate(const EvalKey& key,
                                        const Organization& org,
                                        const BenchmarkProfile& bench,
                                        bool* fresh);
  /// Deterministic keep-frac audit schedule: true when this confident
  /// reject is the one in 1/keep_frac that must be promoted anyway.
  bool audit_due();
  /// Close out the pending medium-rung estimate of a completed full
  /// evaluation: a converged result calibrates the residual bounds
  /// (called from thermal_eval).
  void record_full_result(const EvalKey& key, const ThermalEval& ev);

  EvalConfig config_;
  double cost_2d_ = 0.0;

  // LRU model cache (shared_ptr entries: see model_for on eviction safety).
  std::list<std::pair<LayoutKey, std::shared_ptr<ModelEntry>>> model_lru_;
  std::map<LayoutKey,
           std::list<std::pair<LayoutKey, std::shared_ptr<ModelEntry>>>::
               iterator>
      model_index_;

  std::map<EvalKey, ThermalEval> eval_memo_;
  std::map<FrontierKey, std::vector<std::pair<double, double>>> frontier_;
  std::map<std::pair<int, long>, BaselinePoint> baseline_memo_;

  std::size_t solve_count_ = 0;
  std::size_t eval_count_ = 0;
  /// Shared solve clock + health for every model this shard builds; keeps
  /// fault-plan indices stable across model-cache churn (see run_health.hpp).
  SolveLedger ledger_;

  // --- Fidelity-ladder state (all insertion-ordered / deterministic) ---
  LadderStats ladder_stats_;
  RefineStats refine_stats_;
  /// Calibrated medium-rung residual bounds per (bench, n).
  std::map<RungKey, ResidBound> calib_;
  /// Walk-grade medium-rung residual bounds, keyed per (bench, n, f, p):
  /// the candidates of one placement walk share the operating point, so the
  /// medium rung's residual varies only with placement there — a much
  /// tighter band than the pooled one, which is what keeps walk
  /// comparisons from degenerating into all-ties.
  struct WalkKey {
    int bench_idx;
    int n;
    std::size_t dvfs_idx;
    int p;
    auto operator<=>(const WalkKey&) const = default;
  };
  std::map<WalkKey, ResidBound> walk_calib_;
  /// Medium-rung estimates awaiting their full result.
  std::map<EvalKey, double> pending_est_;
  /// Memoized medium-rung estimates (mirrors eval_memo_ for the medium
  /// grid).
  std::map<EvalKey, double> medium_memo_;
  /// Confident-reject counter driving the deterministic keep-frac audit.
  std::size_t confident_rejects_ = 0;
  /// Medium-grid models: separate LRU and ledger so screening solves
  /// never tick the full path's solve clock or health counters (the
  /// ledger's solve index is the clock FaultPlan::screen_fail_* targets).
  bool medium_init_ = false;
  std::optional<ThermalConfig> medium_thermal_;
  std::list<std::pair<LayoutKey, std::shared_ptr<ModelEntry>>> medium_lru_;
  std::map<LayoutKey,
           std::list<std::pair<LayoutKey, std::shared_ptr<ModelEntry>>>::
               iterator>
      medium_index_;
  SolveLedger medium_ledger_;
};

}  // namespace tacos
