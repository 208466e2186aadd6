#pragma once
/// \file fault_plan.hpp
/// \brief Deterministic fault injection for the solver → evaluator stack.
///
/// Exercising the recovery ladder and the quarantine machinery should not
/// require contriving pathological geometries.  A FaultPlan rides inside
/// SolveOptions (and therefore inside ThermalConfig / EvalConfig) and
/// forces specific failures at specific points of a run:
///
///   * PCG non-convergence on the Nth solve (or every Nth solve), for the
///     first `pcg_fail_rungs` attempts of the recovery ladder — rungs = 1
///     exercises the cold restart, 4 exhausts the ladder and triggers
///     quarantine;
///   * a NaN injected into the solver's right-hand side on the Nth solve
///     (equivalent to a corrupted power map), exercising the non-finite
///     input gate;
///   * leakage fixed-point non-convergence (the loop runs its full
///     iteration budget and reports converged = false).
///
/// Solve indices are counted per SolveLedger — one per Evaluator shard —
/// so an injected plan fires at the same logical points at any thread
/// count, which is what the quarantine determinism tests rely on.
/// Transient steps take indices from the same clock as steady solves.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace tacos {

/// Deterministic fault-injection schedule (all faults off by default).
struct FaultPlan {
  static constexpr std::size_t kNever =
      std::numeric_limits<std::size_t>::max();

  /// Force PCG non-convergence on this 0-based solve index.
  std::size_t pcg_fail_at = kNever;
  /// Force PCG non-convergence on every solve with index % N == N - 1
  /// (0 = off).  N = 20 fails 5% of solves.
  std::size_t pcg_fail_every = 0;
  /// How many ladder attempts the fault survives: 1 = only the warm first
  /// try (the cold restart recovers), 2 = also the cold restart, 3 = also
  /// the raised-cap retry, >= 4 = the whole ladder (quarantine).
  int pcg_fail_rungs = 1;

  /// Inject a NaN into the right-hand side of this 0-based solve index
  /// (a corrupted power map reaching the solver).
  std::size_t nan_rhs_at = kNever;

  /// Skip the leakage fixed point's convergence test, so every evaluation
  /// runs max_leak_iters iterations and reports converged = false.
  bool leak_force_nonconverge = false;

  /// --- Worker-level faults (consumed by the sweep fabric, never by the
  /// solver stack; see src/core/fabric.hpp).  All are armed only in a
  /// worker's first incarnation: the supervisor strips them from restart
  /// command lines, so an injected crash fires once per worker, the way a
  /// real OOM-kill would.
  /// Crash the worker process (SIGKILL to self) immediately after
  /// *claiming* its Kth task, 1-based (0 = off) — the lease is live and
  /// the result unpublished, exactly the window a real crash leaves.
  std::size_t worker_crash_after = 0;
  /// Crash the worker whenever it claims this task id — unlike
  /// worker_crash_after this survives restarts (the flag is re-armed per
  /// claim of the named task), so two incarnations die on it and the
  /// supervisor's poison-task detection trips.
  std::string worker_crash_task;
  /// Stall (sleep) for this many ms after the first claim of worker index
  /// 0, incarnation 0 — a deterministic zombie: with a lease TTL shorter
  /// than the stall, the lease expires, another worker reclaims at a
  /// higher epoch, and the woken zombie's publish must be fenced off.
  std::uint64_t lease_stall_ms = 0;

  /// Force the fidelity ladder's medium-rung screening solves to fail —
  /// past the whole recovery ladder — on this 0-based screening-solve
  /// index / on every Nth screening solve (0 = off).  Screening solves
  /// have their own clock (the Evaluator's medium-model SolveLedger), so
  /// these faults never shift the full-solve indices the knobs above
  /// target.  A failed screening solve is not an error: the Evaluator
  /// promotes the candidate to the full evaluation.
  std::size_t screen_fail_at = kNever;
  std::size_t screen_fail_every = 0;

  /// Any worker-level (fabric) fault armed?
  bool worker_faults_enabled() const {
    return worker_crash_after != 0 || !worker_crash_task.empty() ||
           lease_stall_ms != 0;
  }

  /// Should ladder attempt `attempt` (0 = warm first try) of solve
  /// `solve_index` be forced to fail?
  bool pcg_should_fail(std::size_t solve_index, int attempt) const {
    const bool targeted =
        solve_index == pcg_fail_at ||
        (pcg_fail_every != 0 &&
         solve_index % pcg_fail_every == pcg_fail_every - 1);
    return targeted && attempt < pcg_fail_rungs;
  }

  /// Should solve `solve_index` receive a NaN right-hand side?
  bool nan_rhs(std::size_t solve_index) const {
    return solve_index == nan_rhs_at;
  }
};

}  // namespace tacos
