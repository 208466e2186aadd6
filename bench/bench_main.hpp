#pragma once
/// \file bench_main.hpp
/// \brief Shared scaffolding for the experiment-reproduction binaries.
///
/// Every bench binary regenerates one table/figure from the paper and
/// prints (a) the aligned text table and (b) the same rows as CSV, so the
/// output can be redirected straight into a plotting script.  An optional
/// first argument overrides the thermal grid resolution (e.g.
/// `./fig5_spacing_sweep 64` for paper-resolution grids).
///
/// Durable runs: `--run-dir=DIR` journals every completed task so a killed
/// sweep can be restarted with `--resume` (journaled tasks replay instead
/// of recomputing — output is byte-identical to an uninterrupted run);
/// `--task-deadline=SECONDS` bounds each task's wall clock; SIGINT/SIGTERM
/// drain in-flight tasks, flush the journal, and exit with code 75
/// (resumable).  See docs/ROBUSTNESS.md.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "common/errors.hpp"
#include "common/parse_number.hpp"
#include "core/experiments.hpp"
#include "obs/obs.hpp"

namespace tacos::benchmain {

/// The process's observability configuration: every entry path (Harness
/// or options_from_args) parses into this one instance, and run() /
/// report_health() / Harness::finish() publish from it.
inline obs::ObsOptions& obs_options() {
  static obs::ObsOptions o;
  return o;
}

/// Reject one command-line argument: say why, print the usage line
/// (`argv0` followed by `flags`) and exit 1.
[[noreturn]] inline void reject_arg(const std::string& why, const char* argv0,
                                    const char* flags) {
  std::cerr << why << "\nusage: " << argv0 << flags
            << obs::ObsOptions::usage() << '\n';
  std::exit(EXIT_FAILURE);
}

/// The positional grid-resolution argument: a positive integer.
inline std::size_t grid_arg(const std::string& arg, const char* argv0,
                            const char* flags) {
  const std::optional<long> grid = parse_number<long>(arg);
  if (!grid || *grid < 1)
    reject_arg("bad grid (want a positive integer): " + arg, argv0, flags);
  return static_cast<std::size_t>(*grid);
}

/// The value of `--refine-tol-mm=T`: a positive number of millimetres.
inline double refine_tol_arg(const std::string& arg, const char* argv0,
                             const char* flags) {
  const std::optional<double> tol = parse_number<double>(arg.substr(16));
  if (!tol || *tol <= 0.0)
    reject_arg("bad --refine-tol-mm value (want > 0): " + arg, argv0, flags);
  return *tol;
}

/// Parse the optional grid-resolution argument plus the observability
/// flags (`--metrics[=FILE]`, `--trace[=FILE]`) and the steady-state
/// preconditioner override (`--precond={auto,jacobi,mg}`).
inline ExperimentOptions options_from_args(int argc, char** argv,
                                           ExperimentOptions defaults = {}) {
  static constexpr const char* kFlags =
      " [grid] [--precond=auto|jacobi|mg] [--refine] [--refine-tol-mm=T]";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (obs_options().parse_flag(arg)) continue;
    if (arg.rfind("--precond=", 0) == 0) {
      if (!parse_precond_name(arg.substr(10), &defaults.precond))
        reject_arg("bad --precond value (want auto|jacobi|mg): " + arg,
                   argv[0], kFlags);
      continue;
    }
    if (arg == "--refine") {
      defaults.refine = true;
      continue;
    }
    if (arg.rfind("--refine-tol-mm=", 0) == 0) {
      defaults.refine_tol_mm = refine_tol_arg(arg, argv[0], kFlags);
      continue;
    }
    if (!arg.empty() && arg[0] == '-')
      reject_arg("unknown flag: " + arg, argv[0], kFlags);
    defaults.grid = grid_arg(arg, argv[0], kFlags);
  }
  obs_options().finalize();
  return defaults;
}

/// Print a runner's RunHealth next to its results (stderr, one line), so
/// redirected table output stays clean while recoveries/quarantines are
/// still visible on the console.  See docs/ROBUSTNESS.md.  The counters
/// also land in the metrics artifact (re-published so the final file
/// carries them).
inline void report_health(const std::string& title, const RunHealth& h) {
  std::cerr << "[" << title << "] " << h.summary() << '\n';
  obs::record_run_health(h);
  if (obs_options().any()) obs_options().publish();
}

/// Print an experiment table in both human and CSV form with timing.
template <typename Fn>
int run(const std::string& title, Fn&& make_table) {
  const auto t0 = std::chrono::steady_clock::now();
  try {
    // Root span: every other span nests under run.main, so per-phase
    // self-times in the metrics artifact sum to ~the root's total.
    static obs::SpanSite root_site("run.main", "run");
    const TextTable table = [&] {
      obs::TraceSpan root(root_site);
      return make_table();
    }();
    table.print(title);
    std::cout << "\n-- CSV --\n" << table.to_csv();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::cout << "\n[" << title << "] completed in " << table.row_count()
              << " rows, " << secs << " s\n";
    if (obs_options().any()) obs_options().publish();
    return EXIT_SUCCESS;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    if (obs_options().any()) obs_options().publish();
    return EXIT_FAILURE;
  }
}

/// Durable-run scaffolding for the experiment binaries: parses
/// `--run-dir=DIR`, `--resume`, `--task-deadline=SECONDS`, and the
/// optional positional grid override; installs the SIGINT/SIGTERM
/// handlers; and wires the write-ahead journal and the global cancel
/// token into `ExperimentOptions::run`.
class Harness {
 public:
  Harness(int argc, char** argv, ExperimentOptions defaults = {})
      : opts_(defaults) {
    static constexpr const char* kFlags =
        " [grid] [--run-dir=DIR [--resume]] [--task-deadline=SECONDS]"
        " [--precond=auto|jacobi|mg] [--refine] [--refine-tol-mm=T]";
    std::string run_dir;
    bool resume = false;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--run-dir=", 0) == 0) {
        run_dir = arg.substr(10);
      } else if (arg == "--resume") {
        resume = true;
      } else if (arg.rfind("--task-deadline=", 0) == 0) {
        const std::optional<double> d = parse_number<double>(arg.substr(16));
        if (!d || *d < 0.0)
          reject_arg("bad --task-deadline value (want >= 0 seconds): " + arg,
                     argv[0], kFlags);
        opts_.run.task_deadline_s = *d;
      } else if (arg.rfind("--precond=", 0) == 0) {
        if (!parse_precond_name(arg.substr(10), &opts_.precond))
          reject_arg("bad --precond value (want auto|jacobi|mg): " + arg,
                     argv[0], kFlags);
      } else if (arg == "--refine") {
        opts_.refine = true;
      } else if (arg.rfind("--refine-tol-mm=", 0) == 0) {
        opts_.refine_tol_mm = refine_tol_arg(arg, argv[0], kFlags);
      } else if (obs_options().parse_flag(arg)) {
        // consumed by the observability layer
      } else if (!arg.empty() && arg[0] == '-') {
        reject_arg("unknown flag: " + arg, argv[0], kFlags);
      } else {
        opts_.grid = grid_arg(arg, argv[0], kFlags);
      }
    }
    if (resume && run_dir.empty()) {
      std::cerr << "--resume requires --run-dir=DIR\n";
      std::exit(EXIT_FAILURE);
    }
    if (!run_dir.empty()) {
      journal_ = std::make_unique<RunJournal>(run_dir);
      const RunJournal::LoadStats st = journal_->load();
      if (st.dropped > 0)
        std::cerr << "[journal] dropped " << st.dropped
                  << " torn/corrupt record(s) from " << journal_->path()
                  << "; their tasks will be recomputed\n";
      if (journal_->size() > 0 && !resume) {
        std::cerr << "run directory " << run_dir
                  << " already holds a journal (" << journal_->task_count()
                  << " completed task(s)); pass --resume to continue it or "
                     "use a fresh --run-dir\n";
        std::exit(EXIT_FAILURE);
      }
      if (resume)
        std::cerr << "[journal] resuming: " << journal_->task_count()
                  << " task(s) already complete in " << run_dir << '\n';
      opts_.run.journal = journal_.get();
    }
    // Observability artifacts live next to the journal: a resumed run
    // preloads and extends the same record.
    obs_options().finalize(run_dir, resume);
    install_signal_handlers();
    opts_.run.cancel = &global_cancel_token();
  }

  ExperimentOptions& options() { return opts_; }
  const ExperimentOptions& options() const { return opts_; }

  /// Map the table status to the run outcome: an interrupted run exits
  /// with the distinct resumable code (75) after telling the operator how
  /// to pick the sweep back up.
  int finish(int rc) const {
    // Final publish: the artifacts on disk reflect everything recorded up
    // to exit, including an interrupted run's partial record (which the
    // resumed run preloads and extends).
    if (obs_options().any()) obs_options().publish();
    if (run_interrupted()) {
      std::cerr << "[run] interrupted";
      if (journal_)
        std::cerr << "; completed tasks are journaled — resume with "
                     "--run-dir=" << journal_->dir() << " --resume";
      std::cerr << '\n';
      return exit_code::kInterrupted;
    }
    return rc;
  }

 private:
  ExperimentOptions opts_;
  std::unique_ptr<RunJournal> journal_;
};

}  // namespace tacos::benchmain
