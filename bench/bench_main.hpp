#pragma once
/// \file bench_main.hpp
/// \brief Shared scaffolding for the experiment-reproduction binaries.
///
/// Every bench binary regenerates one table/figure from the paper and
/// prints (a) the aligned text table and (b) the same rows as CSV, so the
/// output can be redirected straight into a plotting script.
///
/// Each main parses its command line through one `Harness`, naming the
/// flags it honours (src/entry/run_options.hpp): any other flag exits 1
/// with the usage text generated from the flag table.  A runner that
/// solves thermal models takes the grid resolution as its one positional
/// argument (e.g. `./fig5_spacing_sweep 64` for paper-resolution grids).
/// A journaling runner's `--run-dir=DIR` journals every completed task so
/// a killed sweep resumes byte-identically with `--resume`; SIGINT/SIGTERM
/// drain it and exit 75 (resumable).  See docs/ROBUSTNESS.md.

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "core/experiments.hpp"
#include "entry/run_options.hpp"
#include "obs/obs.hpp"

namespace tacos::benchmain {

/// The process's observability configuration, as the Harness opened it;
/// run() / report_health() / Harness::finish() publish from it.
inline obs::ObsOptions& obs_options() {
  static obs::ObsOptions o;
  return o;
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

/// The command line of one bench main: parses argv against `flags` on top
/// of the main's `defaults`, then opens the run directory.  A runner with --precond
/// takes the grid as its one positional argument; a runner with
/// --run-dir journals its tasks, and only such a runner installs the
/// SIGINT/SIGTERM handlers that trip the cancel token its tasks poll.
class Harness {
 public:
  Harness(int argc, char** argv, entry::FlagSet flags,
          ExperimentOptions defaults = {}) {
    opts_.experiment = std::move(defaults);
    const bool takes_grid = (flags & entry::kPrecond) != 0;
    const char* positionals = takes_grid ? "[grid]" : "";
    const std::vector<std::string> pos =
        entry::parse_args(argc, argv, flags, positionals, opts_);
    try {
      if (pos.size() > (takes_grid ? 1u : 0u))
        throw entry::UsageError("unexpected argument: " + pos.back());
      if (!pos.empty())
        opts_.experiment.grid = entry::positional<std::size_t>(
            pos[0], "grid (want an integer >= 1)", 1);
    } catch (const entry::UsageError& e) {
      entry::exit_usage(e.what(), argv[0], flags, positionals);
    }
    const bool journals = (flags & entry::kRunDir) != 0;
    try {
      if (const int rc = entry::open_run_dir(opts_, journals)) std::exit(rc);
    } catch (const std::exception& e) {
      std::cerr << diagnostic_line(e) << '\n';
      std::exit(exit_code_for(e));
    }
    obs_options() = opts_.obs;
    if (journals) {
      install_signal_handlers();
      opts_.experiment.run.cancel = &global_cancel_token();
    }
  }

  const ExperimentOptions& options() const { return opts_.experiment; }

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
      if (opts_.journal)
        std::cerr << "; completed tasks are journaled — resume with "
                     "--run-dir=" << opts_.run_dir << " --resume";
      std::cerr << '\n';
      return exit_code::kInterrupted;
    }
    return rc;
  }

 private:
  entry::RunOptions opts_;
};

}  // namespace tacos::benchmain
