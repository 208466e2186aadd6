#pragma once
/// \file errors.hpp
/// \brief Structured error taxonomy for the evaluation stack.
///
/// Every failure the stack can recover from — or at least report honestly —
/// has a dedicated exception type carrying machine-readable context, so
/// batch drivers can quarantine the failing task with a diagnostic instead
/// of aborting the whole sweep, and the CLI can map each failure class to a
/// distinct exit code:
///
///   SolverError   — a linear solve violated its contract (dimension
///                   mismatch, non-SPD matrix) or diverged irrecoverably;
///                   carries solver name, iterations and final residual.
///   ThermalError  — ThermalModel::solve exhausted its recovery ladder or
///                   was handed non-finite power input; carries the solve
///                   index, ladder attempts, iterations and residual.
///   EvalError     — an Evaluator query failed; wraps the underlying error
///                   with the organization (layout key, DVFS level, active
///                   cores) and benchmark that triggered it.
///
/// See docs/ROBUSTNESS.md for the recovery ladder and quarantine policy.

#include <cstddef>
#include <exception>
#include <sstream>
#include <string>

#include "common/cancel.hpp"
#include "common/check.hpp"

namespace tacos {

/// Process exit codes used by tools/tacos_cli.cpp (and documented there):
/// one per error class, so scripts can distinguish a usage mistake from a
/// solver breakdown without parsing stderr.
namespace exit_code {
inline constexpr int kOk = 0;       ///< success
inline constexpr int kUsage = 1;    ///< bad command line / user input
inline constexpr int kError = 2;    ///< generic tacos::Error
inline constexpr int kSolver = 3;   ///< SolverError
inline constexpr int kThermal = 4;  ///< ThermalError
inline constexpr int kEval = 5;     ///< EvalError
/// Corrupt on-disk state found (and not repaired) by `tacos_cli fsck`.
/// 65 = EX_DATAERR: the input data was damaged, not the program.
inline constexpr int kDataErr = 65;
inline constexpr int kUnknown = 70; ///< non-tacos std::exception
/// Run interrupted by SIGINT/SIGTERM but left in a resumable state
/// (journal flushed; rerun with --resume).  75 = EX_TEMPFAIL: "transient
/// failure, retry later" — exactly the resume semantics.
inline constexpr int kInterrupted = 75;
}  // namespace exit_code

/// A linear solve failed its contract or diverged irrecoverably.
class SolverError : public Error {
 public:
  SolverError(std::string solver, std::size_t iterations, double residual,
              const std::string& detail)
      : Error(format(solver, iterations, residual, detail)),
        solver_(std::move(solver)),
        iterations_(iterations),
        residual_(residual) {}

  const std::string& solver() const { return solver_; }
  std::size_t iterations() const { return iterations_; }
  double residual() const { return residual_; }

 private:
  static std::string format(const std::string& solver, std::size_t iterations,
                            double residual, const std::string& detail) {
    std::ostringstream os;
    os << "solver failure [" << solver << ", " << iterations
       << " iterations, residual " << residual << "]: " << detail;
    return os.str();
  }

  std::string solver_;
  std::size_t iterations_ = 0;
  double residual_ = 0.0;
};

/// ThermalModel::solve could not produce a converged temperature field
/// (recovery ladder exhausted) or was given non-finite power input.
class ThermalError : public Error {
 public:
  ThermalError(std::size_t solve_index, int attempts, std::size_t iterations,
               double residual, const std::string& detail)
      : Error(format(solve_index, attempts, iterations, residual, detail)),
        solve_index_(solve_index),
        attempts_(attempts),
        iterations_(iterations),
        residual_(residual) {}

  std::size_t solve_index() const { return solve_index_; }
  /// Ladder attempts consumed (1 = first try only, 4 = full ladder).
  int attempts() const { return attempts_; }
  std::size_t iterations() const { return iterations_; }
  double residual() const { return residual_; }

 private:
  static std::string format(std::size_t solve_index, int attempts,
                            std::size_t iterations, double residual,
                            const std::string& detail) {
    std::ostringstream os;
    os << "thermal solve #" << solve_index << " failed after " << attempts
       << " attempt(s) [" << iterations << " iterations, residual " << residual
       << "]: " << detail;
    return os.str();
  }

  std::size_t solve_index_ = 0;
  int attempts_ = 0;
  std::size_t iterations_ = 0;
  double residual_ = 0.0;
};

/// An Evaluator query failed; adds the organization and benchmark that
/// triggered the underlying error.
class EvalError : public Error {
 public:
  EvalError(std::string layout_key, std::string benchmark,
            std::size_t dvfs_idx, int active_cores, const std::string& cause)
      : Error(format(layout_key, benchmark, dvfs_idx, active_cores, cause)),
        layout_key_(std::move(layout_key)),
        benchmark_(std::move(benchmark)),
        dvfs_idx_(dvfs_idx),
        active_cores_(active_cores) {}

  /// Quantized layout identity, e.g. "n=16 s=(0.50 1.00 2.50)".
  const std::string& layout_key() const { return layout_key_; }
  const std::string& benchmark() const { return benchmark_; }
  std::size_t dvfs_idx() const { return dvfs_idx_; }
  int active_cores() const { return active_cores_; }

 private:
  static std::string format(const std::string& layout_key,
                            const std::string& benchmark, std::size_t dvfs_idx,
                            int active_cores, const std::string& cause) {
    std::ostringstream os;
    os << "evaluation failed [" << layout_key << ", bench=" << benchmark
       << ", f_idx=" << dvfs_idx << ", p=" << active_cores << "]: " << cause;
    return os.str();
  }

  std::string layout_key_;
  std::string benchmark_;
  std::size_t dvfs_idx_ = 0;
  int active_cores_ = 0;
};

/// Short class tag for structured diagnostics ("solver", "thermal", ...).
inline const char* error_kind(const std::exception& e) {
  if (dynamic_cast<const CancelledError*>(&e)) return "interrupted";
  if (dynamic_cast<const EvalError*>(&e)) return "eval";
  if (dynamic_cast<const ThermalError*>(&e)) return "thermal";
  if (dynamic_cast<const SolverError*>(&e)) return "solver";
  if (dynamic_cast<const Error*>(&e)) return "tacos";
  return "unknown";
}

/// Exit code for `e` under the CLI's exit-code discipline.
inline int exit_code_for(const std::exception& e) {
  if (dynamic_cast<const CancelledError*>(&e)) return exit_code::kInterrupted;
  if (dynamic_cast<const EvalError*>(&e)) return exit_code::kEval;
  if (dynamic_cast<const ThermalError*>(&e)) return exit_code::kThermal;
  if (dynamic_cast<const SolverError*>(&e)) return exit_code::kSolver;
  if (dynamic_cast<const Error*>(&e)) return exit_code::kError;
  return exit_code::kUnknown;
}

/// One-line structured diagnostic for stderr:
///   tacos-error kind=thermal code=4: <what>
inline std::string diagnostic_line(const std::exception& e) {
  std::ostringstream os;
  os << "tacos-error kind=" << error_kind(e) << " code=" << exit_code_for(e)
     << ": " << e.what();
  return os.str();
}

}  // namespace tacos
