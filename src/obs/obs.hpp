#pragma once
/// \file obs.hpp
/// \brief Front door of the instrumentation layer: artifact publication
///        and RunHealth -> metrics bridging.
///
/// Every entry point owns one `ObsOptions`, filled by its command line
/// (src/entry/run_options.hpp):
///
///   obs.finalize(run_dir, resume);   // default paths, enable, preload
///   ... run ...
///   obs.publish();                   // AtomicFile into --run-dir
///
/// `--metrics[=FILE]` and `--trace[=FILE]` are off by default; bare forms
/// default to `metrics.json` / `trace.json` inside `--run-dir` (next to
/// the journal) or the working directory without one.  On `--resume` the
/// previous artifacts are preloaded once at startup, so `publish()` writes
/// one continuous observability record per run directory no matter how
/// many times the sweep was interrupted.  See docs/OBSERVABILITY.md.

#include <string>

#include "common/run_health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tacos::obs {

/// Per-process observability configuration, set from the command line.
struct ObsOptions {
  bool metrics = false;      ///< `--metrics` seen
  bool trace = false;        ///< `--trace` seen
  std::string metrics_path;  ///< explicit `=FILE`, else set by finalize()
  std::string trace_path;

  /// When non-empty, this process is one shard of a multi-process run
  /// (e.g. "w0" for fabric worker slot 0):
  /// finalize() forces the artifact paths to `metrics-<suffix>.json` /
  /// `trace-<suffix>.json` inside the run dir — overriding even explicit
  /// `=FILE` paths inherited through a re-exec'd argv, so a worker can
  /// never clobber the supervisor's artifact — and always preloads, so a
  /// restarted incarnation splices onto its predecessor's shard.
  /// `tacos_cli trace-merge` joins the shards into one timeline.
  std::string shard_suffix;

  /// Trace context inherited from a parent process (the internal
  /// `--trace-ctx=<trace>:<span>` flag fabric supervisors pass to
  /// workers); applied as the process ambient context by finalize().
  TraceContext inherited_ctx;

  /// Resolve default paths (into `run_dir` when given), flip the global
  /// enable switches, and — when `resume` is set — preload the previous
  /// artifacts so the next publish() extends them.  Call exactly once,
  /// after flag parsing and before any instrumented work.
  void finalize(const std::string& run_dir = "", bool resume = false);

  /// Atomically write the enabled artifacts.  Best-effort: failures are
  /// reported on stderr, never thrown (publication must not turn a
  /// finished sweep into a failed one).  Returns true when everything
  /// requested was written.
  bool publish() const;

  bool any() const { return metrics || trace; }
};

/// Record a run's RunHealth counters into the global registry as
/// `health.<field>` counters, so the metrics artifact carries the same
/// ledger the console summary prints.  Call once per run with the final
/// merged health (counters add — resumed runs accumulate across restarts
/// via the preloaded artifact).
void record_run_health(const RunHealth& h);

}  // namespace tacos::obs
