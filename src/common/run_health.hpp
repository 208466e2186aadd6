#pragma once
/// \file run_health.hpp
/// \brief Mergeable health counters for fault-tolerant evaluation runs.
///
/// Every escalation of the thermal solver's recovery ladder (see
/// grid_model.cpp and docs/ROBUSTNESS.md), every honest degradation (a
/// leakage fixed point that ran out of iterations) and every quarantined
/// task is counted here, so a batch run can report *how* it survived, not
/// just that it did.  Like EvalStats, RunHealth merges with operator+= at
/// the join of parallel drivers (one instance per task shard, combined in
/// input order — deterministic at any thread count).

#include <cstddef>
#include <sstream>
#include <string>

namespace tacos {

/// Counters of recoveries, degradations and failures during a run.
struct RunHealth {
  std::size_t cold_restarts = 0;     ///< ladder rung 1: retried from ambient
  std::size_t cap_retries = 0;       ///< ladder rung 2: raised iteration cap
  std::size_t gs_fallbacks = 0;      ///< ladder rung 3: Gauss-Seidel fallback
  std::size_t solve_failures = 0;    ///< ladder exhausted (ThermalError thrown)
  std::size_t nonfinite_inputs = 0;  ///< non-finite power rejected pre-solve
  std::size_t leak_nonconverged = 0; ///< leakage fixed points that hit max_iters
  std::size_t quarantined = 0;       ///< tasks isolated by a batch driver
  std::size_t timeouts = 0;          ///< tasks that exceeded their deadline
  std::size_t cancelled = 0;         ///< tasks abandoned by an interrupted run

  // Sweep-fabric counters (src/core/fabric.hpp), populated by the
  // supervisor's run-level health only — per-task journal records never
  // carry them, which keeps the journal byte-format (and byte-identity
  // between fabric and single-process runs) unchanged.
  std::size_t leases_reclaimed = 0;  ///< expired/released leases taken over
  std::size_t worker_restarts = 0;   ///< crashed workers respawned
  std::size_t poison_tasks = 0;      ///< tasks quarantined for killing workers

  /// Total extra solve attempts spent recovering.
  std::size_t retries() const {
    return cold_restarts + cap_retries + gs_fallbacks;
  }

  /// True when nothing had to be recovered, degraded or quarantined.
  bool clean() const {
    return retries() == 0 && solve_failures == 0 && nonfinite_inputs == 0 &&
           leak_nonconverged == 0 && quarantined == 0 && timeouts == 0 &&
           cancelled == 0 && leases_reclaimed == 0 && worker_restarts == 0 &&
           poison_tasks == 0;
  }

  RunHealth& operator+=(const RunHealth& o) {
    cold_restarts += o.cold_restarts;
    cap_retries += o.cap_retries;
    gs_fallbacks += o.gs_fallbacks;
    solve_failures += o.solve_failures;
    nonfinite_inputs += o.nonfinite_inputs;
    leak_nonconverged += o.leak_nonconverged;
    quarantined += o.quarantined;
    timeouts += o.timeouts;
    cancelled += o.cancelled;
    leases_reclaimed += o.leases_reclaimed;
    worker_restarts += o.worker_restarts;
    poison_tasks += o.poison_tasks;
    return *this;
  }

  /// One-line summary for drivers and the CLI, e.g.
  /// "health: 3 cold restarts, 1 cap retry, 2 quarantined".
  std::string summary() const {
    if (clean()) return "health: clean";
    std::ostringstream os;
    os << "health:";
    const char* sep = " ";
    const auto field = [&](std::size_t v, const char* name) {
      if (v == 0) return;
      os << sep << v << ' ' << name;
      sep = ", ";
    };
    field(cold_restarts, "cold restart(s)");
    field(cap_retries, "cap retry(ies)");
    field(gs_fallbacks, "GS fallback(s)");
    field(solve_failures, "solve failure(s)");
    field(nonfinite_inputs, "non-finite input(s)");
    field(leak_nonconverged, "leakage non-convergence(s)");
    field(quarantined, "quarantined task(s)");
    field(timeouts, "timeout(s)");
    field(cancelled, "cancelled task(s)");
    field(leases_reclaimed, "lease(s) reclaimed");
    field(worker_restarts, "worker restart(s)");
    field(poison_tasks, "poison task(s)");
    return os.str();
  }

  /// One-object JSON rendering for the BENCH_*.json emitters and the
  /// observability exporters: health travels with the timings it explains.
  std::string to_json() const {
    std::ostringstream os;
    os << "{\"cold_restarts\": " << cold_restarts
       << ", \"cap_retries\": " << cap_retries
       << ", \"gs_fallbacks\": " << gs_fallbacks
       << ", \"solve_failures\": " << solve_failures
       << ", \"nonfinite_inputs\": " << nonfinite_inputs
       << ", \"leak_nonconverged\": " << leak_nonconverged
       << ", \"quarantined\": " << quarantined
       << ", \"timeouts\": " << timeouts << ", \"cancelled\": " << cancelled
       << ", \"leases_reclaimed\": " << leases_reclaimed
       << ", \"worker_restarts\": " << worker_restarts
       << ", \"poison_tasks\": " << poison_tasks << "}";
    return os.str();
  }
};

/// Shared accounting a ThermalModel writes into: the running solve index
/// (the fault plan's clock) and the health counters.  An Evaluator shard
/// owns one ledger for all models it builds, so solve indices are stable
/// per shard — and therefore per task — regardless of model-cache churn or
/// thread count.  A standalone ThermalModel falls back to a private ledger.
struct SolveLedger {
  std::size_t solve_index = 0;  ///< next solve's or step's 0-based index
  RunHealth health;
};

}  // namespace tacos
