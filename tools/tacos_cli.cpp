/// \file tacos_cli.cpp
/// \brief Command-line front end for the tacos library.
///
/// Subcommands:
///   list                                  — benchmarks and DVFS levels
///   evaluate  <bench> <n> <s1> <s2> <s3> <f_idx> <p>
///                                         — one organization end to end
///   baseline  <bench> [threshold]         — best 2D operating point
///   optimize  <bench> [alpha] [beta] [threshold]
///                                         — multi-start greedy (§III-D)
///   sweep     <bench> <n> [threshold]     — max IPS vs interposer size
///   cost      <n> <interposer_mm>         — Eq. (4) breakdown
///   batch     [alpha] [beta] [threshold] [grid] [step]
///                                         — optimize every benchmark
///                                           (durable: --run-dir/--resume;
///                                           multi-process: --workers=N)
///   trace-merge [run-dir]                 — merge per-process telemetry
///                                           shards into trace-merged.json
///                                           / metrics-merged.json
///   status [run-dir]                      — live run-status view: sweep
///                                           progress, worker leases,
///                                           merged health counters
///   fsck      [--fix]                     — validate (and optionally
///                                           repair) --run-dir's durable
///                                           files; exit 65 on damage
///
/// Every command prints plain text.  Exit-code discipline (see
/// src/common/errors.hpp): 0 success, 1 usage error, 2 generic
/// tacos::Error, 3 SolverError, 4 ThermalError, 5 EvalError, 65 corrupt
/// data found by fsck (EX_DATAERR), 70 other std::exception, 75
/// interrupted (resumable).  Failures emit one
/// structured stderr line:
///   tacos-error kind=<class> code=<n>: <message>
///
/// Global options:
///   --threads=N          size of the evaluation thread pool
///   --fault-pcg-every=N  force PCG failure on every Nth solve (testing)
///   --fault-pcg-rungs=K  ladder rungs the fault survives (1..4, default 1)
///   --run-dir=DIR        journal completed batch tasks under DIR
///   --resume             replay DIR's journal instead of recomputing
///   --task-deadline=S    per-task wall-clock budget in seconds
///   --refine             adjoint-gradient spacing refinement of each
///                        16-chiplet grid winner (optimize/batch)
///   --refine-tol-mm=T    refinement stopping resolution (default 1e-3)
///   --metrics[=FILE]     write the metrics registry as JSON (defaults to
///                        metrics.json inside --run-dir)
///   --trace[=FILE]       write a Chrome trace_event JSON timeline
///                        (defaults to trace.json inside --run-dir); see
///                        docs/OBSERVABILITY.md
///
/// SIGINT/SIGTERM trip the global cancel token: batch runs stop
/// dispatching, drain in-flight tasks, flush the journal, and exit 75
/// (send the signal again to force-quit).  See docs/ROBUSTNESS.md.
///
/// Commands that run the thermal stack print the run's health summary
/// (recoveries, degradations, quarantines) to stderr afterwards.

#include <cerrno>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/errors.hpp"
#include "common/fsck.hpp"
#include "common/journal.hpp"
#include "common/lease.hpp"
#include "common/parse_number.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/fabric.hpp"
#include "core/optimizer.hpp"
#include "cost/cost_model.hpp"
#include "obs/merge.hpp"
#include "obs/obs.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <unistd.h>
#endif

using namespace tacos;

namespace {

/// Fault-injection schedule from the --fault-* flags (off by default).
FaultPlan g_fault;

/// Durable-run knobs from --run-dir/--resume/--task-deadline.
std::string g_run_dir;
bool g_resume = false;
double g_task_deadline_s = 0.0;

/// Sweep-fabric knobs (batch only; docs/ROBUSTNESS.md "The sweep
/// fabric").  --workers=N forks N worker processes over the shared
/// --run-dir; --fabric-worker/--fabric-incarnation are the internal flags
/// the supervisor re-execs workers with (not for interactive use).
int g_workers = 0;
std::uint64_t g_lease_ttl_ms = 30'000;
int g_fabric_worker = -1;
int g_fabric_incarnation = 0;
/// Original command line, kept verbatim so the supervisor can re-exec
/// itself as workers.
std::vector<std::string> g_argv;

/// PCG preconditioner from --precond (auto by default, which resolves to
/// multigrid; jacobi is the reference path).
PrecondKind g_precond = PrecondKind::kAuto;

/// Observability knobs from --metrics/--trace (docs/OBSERVABILITY.md).
obs::ObsOptions g_obs;

/// Evaluation fidelity from --fidelity (docs/PERFORMANCE.md): full runs
/// every candidate through the leakage fixed point; ladder screens them on
/// a half-resolution model first; auto picks the ladder whenever that
/// model can be built (grid >= 16).
FidelityMode g_fidelity = FidelityMode::kFull;
/// --surrogate-keep-frac: fraction of confident rejects audited anyway.
double g_keep_frac = 0.0;
/// --mg-mixed: single-precision A·z in the MG preconditioner's smoother.
bool g_mg_mixed = false;

/// --refine: continuous adjoint-gradient spacing refinement of each grid
/// winner (docs/PERFORMANCE.md "Continuous spacing refinement").
bool g_refine = false;
/// --refine-tol-mm: spacing resolution at which the descent stops.
double g_refine_tol_mm = 1e-3;

int usage() {
  std::cerr <<
      "usage: tacos_cli [--threads=N] [--fault-pcg-every=N]"
      " [--fault-pcg-rungs=K]\n"
      "                 [--fault-leak-nonconverge]\n"
      "                 [--run-dir=DIR] [--resume] [--task-deadline=S]\n"
      "                 [--workers=N] [--lease-ttl-ms=T]\n"
      "                 [--fault-worker-crash-after=K]"
      " [--fault-worker-crash-task=BENCH]\n"
      "                 [--fault-lease-stall-ms=T]\n"
      "                 [--precond=auto|jacobi|mg] [--mg-mixed]\n"
      "                 [--fidelity=auto|full|ladder]"
      " [--surrogate-keep-frac=F]\n"
      "                 [--refine] [--refine-tol-mm=T]\n"
      "                 [--metrics[=FILE]] [--trace[=FILE]]"
      " <command> [args]\n"
      "  list\n"
      "  evaluate <bench> <n:1|4|16> <s1> <s2> <s3> <f_idx:0-4> <p>\n"
      "  baseline <bench> [threshold_c=85]\n"
      "  optimize <bench> [alpha=1] [beta=0] [threshold_c=85]\n"
      "  sweep    <bench> <n:4|16> [threshold_c=85]\n"
      "  cost     <n:4|16> <interposer_mm>\n"
      "  batch    [alpha=1] [beta=0] [threshold_c=85] [grid=32]"
      " [step=0.5]\n"
      "  trace-merge [run-dir] (merge telemetry shards; or --run-dir)\n"
      "  status   [run-dir]    (live run-status view; or --run-dir)\n"
      "  fsck     [--fix]      (requires --run-dir)\n";
  return exit_code::kUsage;
}

Evaluator make_evaluator() {
  EvalConfig cfg;
  cfg.thermal.grid_nx = cfg.thermal.grid_ny = 32;
  cfg.thermal.solve.fault = g_fault;
  cfg.thermal.solve.precond = g_precond;
  cfg.thermal.solve.mg_mixed_precision = g_mg_mixed;
  cfg.ladder.mode = g_fidelity;
  cfg.ladder.keep_frac = g_keep_frac;
  // Interactive commands honor Ctrl-C at solver granularity: the solve
  // aborts with CancelledError and the process exits 75.
  cfg.thermal.solve.cancel = &global_cancel_token();
  return Evaluator(cfg);
}

/// One-line health report after any command that ran the thermal stack.
/// The counters also land in the metrics artifact when --metrics is on.
void report_health(const Evaluator& eval) {
  std::cerr << eval.health().summary() << "\n";
  obs::record_run_health(eval.health());
}

int cmd_list() {
  TextTable t({"benchmark", "suite", "class", "P256_w", "sat_cores",
               "mem_frac"});
  for (const auto& b : benchmarks()) {
    t.add_row({std::string(b.name), std::string(b.suite),
               b.power_class == PowerClass::kHigh     ? "high"
               : b.power_class == PowerClass::kMedium ? "medium"
                                                      : "low",
               TextTable::fmt(b.power_256_w, 0), std::to_string(b.sat_cores),
               TextTable::fmt(b.mem_fraction, 2)});
  }
  t.print("benchmarks");
  TextTable d({"idx", "freq_mhz", "vdd"});
  for (std::size_t i = 0; i < kDvfsLevelCount; ++i)
    d.add_row({std::to_string(i), TextTable::fmt(kDvfsLevels[i].freq_mhz, 0),
               TextTable::fmt(kDvfsLevels[i].vdd, 2)});
  d.print("DVFS levels");
  return 0;
}

int cmd_evaluate(const std::vector<std::string>& a) {
  if (a.size() != 7) return usage();
  Evaluator eval = make_evaluator();
  const BenchmarkProfile& bench = benchmark_by_name(a[0]);
  Organization org{std::stoi(a[1]),
                   Spacing{std::stod(a[2]), std::stod(a[3]), std::stod(a[4])},
                   std::stoul(a[5]), std::stoi(a[6])};
  const ThermalEval& te = eval.thermal_eval(org, bench);
  std::cout << "organization: n=" << org.n_chiplets << " s=("
            << org.spacing.s1 << "," << org.spacing.s2 << ","
            << org.spacing.s3 << ") f=" << level_of(org).freq_mhz
            << "MHz p=" << org.active_cores << "\n"
            << "interposer:   " << interposer_edge_of(org) << " mm\n"
            << "peak temp:    " << te.peak_c << " C (power "
            << te.total_power_w << " W, " << te.leak_iterations
            << " leakage iterations)\n"
            << "IPS:          " << eval.ips(org, bench) << "\n"
            << "cost:         $" << eval.cost(org) << " ("
            << eval.cost(org) / eval.cost_2d() << "x the 2D chip)\n";
  report_health(eval);
  return exit_code::kOk;
}

int cmd_baseline(const std::vector<std::string>& a) {
  if (a.empty()) return usage();
  Evaluator eval = make_evaluator();
  const BenchmarkProfile& bench = benchmark_by_name(a[0]);
  const double th = a.size() > 1 ? std::stod(a[1]) : 85.0;
  const BaselinePoint& b = eval.baseline_2d(bench, th);
  if (!b.feasible) {
    std::cout << "no feasible 2D operating point under " << th << " C\n";
    report_health(eval);
    return exit_code::kOk;
  }
  std::cout << "2D baseline for " << bench.name << " under " << th
            << " C: " << kDvfsLevels[b.dvfs_idx].freq_mhz << " MHz, "
            << b.active_cores << " cores, peak " << b.peak_c << " C, IPS "
            << b.ips << ", cost $" << eval.cost_2d() << "\n";
  report_health(eval);
  return exit_code::kOk;
}

int cmd_optimize(const std::vector<std::string>& a) {
  if (a.empty()) return usage();
  Evaluator eval = make_evaluator();
  const BenchmarkProfile& bench = benchmark_by_name(a[0]);
  OptimizerOptions opts;
  opts.alpha = a.size() > 1 ? std::stod(a[1]) : 1.0;
  opts.beta = a.size() > 2 ? std::stod(a[2]) : 0.0;
  opts.threshold_c = a.size() > 3 ? std::stod(a[3]) : 85.0;
  opts.refine = g_refine;
  opts.refine_tol_mm = g_refine_tol_mm;
  opts.cancel = &global_cancel_token();
  const OptResult r = optimize_greedy(eval, bench, opts);
  if (!r.found) {
    std::cout << "no feasible organization\n";
    report_health(eval);
    return exit_code::kOk;
  }
  std::cout << "optimum for " << bench.name << " (alpha=" << opts.alpha
            << ", beta=" << opts.beta << ", " << opts.threshold_c
            << " C):\n  n=" << r.org.n_chiplets << " s=(" << r.org.spacing.s1
            << "," << r.org.spacing.s2 << "," << r.org.spacing.s3 << ") "
            << level_of(r.org).freq_mhz << "MHz p=" << r.org.active_cores
            << "\n  interposer " << interposer_edge_of(r.org) << " mm, peak "
            << r.peak_c << " C, IPS " << r.ips << ", cost $" << r.cost
            << " (" << r.cost / eval.cost_2d() << "x)\n  objective "
            << r.objective << ", " << r.thermal_solves << " thermal solves\n";
  if (r.refined)
    std::cout << "  refined from grid s=(" << r.grid_spacing.s1 << ","
              << r.grid_spacing.s2 << "," << r.grid_spacing.s3 << ") peak "
              << r.peak_grid_c << " C in " << r.refine_steps << " step(s)\n";
  report_health(eval);
  return exit_code::kOk;
}

int cmd_sweep(const std::vector<std::string>& a) {
  if (a.size() < 2) return usage();
  Evaluator eval = make_evaluator();
  const BenchmarkProfile& bench = benchmark_by_name(a[0]);
  const int n = std::stoi(a[1]);
  OptimizerOptions opts;
  opts.threshold_c = a.size() > 2 ? std::stod(a[2]) : 85.0;
  Rng rng(opts.seed);
  const BaselinePoint& base = eval.baseline_2d(bench, opts.threshold_c);
  TextTable t({"interposer_mm", "max_ips", "vs_2D", "org"});
  for (double w = 20.0; w <= 50.0 + 1e-9; w += 2.0) {
    const MaxIpsResult r = max_ips_at_interposer(eval, bench, n, w, opts,
                                                 rng);
    std::ostringstream org;
    if (r.found)
      org << level_of(r.org).freq_mhz << "MHz p=" << r.org.active_cores;
    t.add_row({TextTable::fmt(w, 0),
               r.found ? TextTable::fmt(r.ips, 0) : "none",
               r.found && base.feasible ? TextTable::fmt(r.ips / base.ips, 2)
                                        : "n/a",
               r.found ? org.str() : "-"});
  }
  t.print("max IPS vs interposer size (" + std::string(bench.name) + ", " +
          std::to_string(n) + " chiplets)");
  report_health(eval);
  return exit_code::kOk;
}

/// Durable batch optimization: optimize_greedy_batch over every
/// benchmark, wired to the write-ahead journal and the global cancel
/// token.  Stdout carries only deterministic result rows (table + CSV);
/// progress and health go to stderr — so a resumed run's stdout is
/// byte-identical to an uninterrupted one.
int cmd_batch(const std::vector<std::string>& a) {
  if (a.size() > 5) return usage();
  EvalConfig cfg;
  cfg.thermal.grid_nx = cfg.thermal.grid_ny =
      a.size() > 3 ? std::stoul(a[3]) : 32;
  cfg.thermal.solve.fault = g_fault;
  cfg.thermal.solve.precond = g_precond;
  cfg.thermal.solve.mg_mixed_precision = g_mg_mixed;
  cfg.ladder.mode = g_fidelity;
  cfg.ladder.keep_frac = g_keep_frac;
  OptimizerOptions opts;
  opts.alpha = !a.empty() ? std::stod(a[0]) : 1.0;
  opts.beta = a.size() > 1 ? std::stod(a[1]) : 0.0;
  opts.threshold_c = a.size() > 2 ? std::stod(a[2]) : 85.0;
  opts.step_mm = a.size() > 4 ? std::stod(a[4]) : 0.5;
  opts.refine = g_refine;
  opts.refine_tol_mm = g_refine_tol_mm;

  std::vector<std::string> names;
  for (const auto& b : benchmarks()) names.emplace_back(b.name);

  FabricOptions fab;
  fab.workers = g_workers;
  fab.lease_ttl_ms = g_lease_ttl_ms;
  fab.task_deadline_s = g_task_deadline_s;

  if (g_fabric_worker >= 0) {
    // Worker process of a --workers=N sweep: run the claim → run →
    // publish loop against the shared run dir and exit.  The canonical
    // journal stays the supervisor's (it holds the lock); this process
    // journals into its own shard.
    if (g_run_dir.empty()) {
      std::cerr << "--fabric-worker requires --run-dir=DIR\n";
      return exit_code::kUsage;
    }
    const WorkerReport rep = run_fabric_worker(
        cfg, names, opts, g_run_dir, g_fabric_worker, g_fabric_incarnation,
        fab, g_fault, &global_cancel_token());
    std::cerr << "[fabric "
              << fabric_worker_name(g_fabric_worker, g_fabric_incarnation)
              << "] claimed " << rep.claimed << ", published "
              << rep.published << ", fenced " << rep.fenced << ", reclaimed "
              << rep.reclaims << "\n";
    return rep.interrupted ? exit_code::kInterrupted : exit_code::kOk;
  }

  std::unique_ptr<RunJournal> journal;
  if (!g_run_dir.empty()) {
    journal = std::make_unique<RunJournal>(g_run_dir);
    const RunJournal::LoadStats st = journal->load();
    if (st.dropped > 0)
      std::cerr << "[journal] dropped " << st.dropped
                << " torn/corrupt record(s); their tasks will be"
                   " recomputed\n";
    if (journal->size() > 0 && !g_resume) {
      std::cerr << "run directory " << g_run_dir
                << " already holds a journal (" << journal->task_count()
                << " completed task(s)); pass --resume to continue it or"
                   " use a fresh --run-dir\n";
      return exit_code::kUsage;
    }
    if (g_resume)
      std::cerr << "[journal] resuming: " << journal->task_count()
                << " task(s) already complete in " << g_run_dir << "\n";
  } else if (g_resume) {
    std::cerr << "--resume requires --run-dir=DIR\n";
    return exit_code::kUsage;
  }
  const RunControl run{journal.get(), &global_cancel_token(),
                       g_task_deadline_s};

  RunHealth fabric_health;
  if (g_workers > 0) {
    // Supervisor of a multi-process sweep: fork workers over the shared
    // run dir, ride out crashes, and merge the winning shard rows into
    // the canonical journal.  The optimize_greedy_batch call below then
    // replays that journal, so stdout is byte-identical to a
    // single-process run at any worker count.
    if (!journal) {
      std::cerr << "--workers requires --run-dir=DIR\n";
      return exit_code::kUsage;
    }
    const FabricReport fr =
        run_fabric_sweep(cfg, names, opts, *journal, g_run_dir, fab, g_argv,
                         &global_cancel_token());
    if (fr.interrupted) {
      std::cerr << "[fabric] interrupted; shards and lease log are on disk"
                   " — resume with --run-dir=" << g_run_dir
                << " --resume --workers=" << g_workers << "\n";
      return exit_code::kInterrupted;
    }
    std::cerr << "[fabric] merged " << fr.merged << " task(s) from "
              << g_workers << " worker(s); " << fr.health.summary() << "\n";
    fabric_health = fr.health;
  }

  EvalStats stats;
  const std::vector<OptResult> results =
      optimize_greedy_batch(cfg, names, opts, &stats, &run);

  TextTable t({"benchmark", "org", "interposer_mm", "peak_c", "ips",
               "cost", "objective", "status"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const OptResult& r = results[i];
    std::ostringstream org;
    if (r.found)
      org << "n=" << r.org.n_chiplets << " s=(" << r.org.spacing.s1 << ","
          << r.org.spacing.s2 << "," << r.org.spacing.s3 << ") "
          << level_of(r.org).freq_mhz << "MHz p=" << r.org.active_cores;
    std::string status = "ok";
    if (r.interrupted)
      status = "interrupted";
    else if (r.quarantined)
      status = r.diagnostic;
    else if (!r.found)
      status = "infeasible";
    t.add_row({names[i], r.found ? org.str() : "none",
               r.found ? TextTable::fmt(interposer_edge_of(r.org), 1) : "n/a",
               r.found ? TextTable::fmt(r.peak_c, 1) : "n/a",
               r.found ? TextTable::fmt(r.ips, 0) : "n/a",
               r.found ? TextTable::fmt(r.cost, 0) : "n/a",
               r.found ? TextTable::fmt(r.objective, 4) : "n/a", status});
  }
  std::ostringstream title;
  title << "batch optimize (alpha=" << opts.alpha << ", beta=" << opts.beta
        << ", " << opts.threshold_c << " C, grid "
        << cfg.thermal.grid_nx << ", step " << opts.step_mm << " mm)";
  t.print(title.str());
  std::cout << "\n-- CSV --\n" << t.to_csv();
  if (stats.ladder.any()) {
    const LadderStats& l = stats.ladder;
    std::cerr << "ladder: " << l.screened << " screened, " << l.rejected
              << " rejected, " << l.promoted << " promoted (" << l.audits
              << " audit(s)), " << l.medium_solves << " medium solve(s), "
              << l.medium_failures << " rung failure(s)\n";
  }
  if (stats.refine.any()) {
    const RefineStats& rf = stats.refine;
    std::cerr << "refine: " << rf.attempted << " attempted, " << rf.steps
              << " accepted step(s)/" << rf.trials << " trial(s), "
              << rf.adjoint_solves << " adjoint solve(s)\n";
  }
  stats.health += fabric_health;  // supervisor-level counters, stderr only
  std::cerr << stats.health.summary() << "\n";
  obs::record_run_health(stats.health);
  if (run_interrupted()) {
    std::cerr << "[run] interrupted";
    if (journal)
      std::cerr << "; completed tasks are journaled — resume with"
                   " --run-dir=" << g_run_dir << " --resume";
    std::cerr << "\n";
    return exit_code::kInterrupted;
  }
  return exit_code::kOk;
}

/// The run dir a read-only telemetry command operates on: the positional
/// argument when given, else --run-dir.
std::string telemetry_dir(const std::vector<std::string>& a) {
  if (a.size() == 1) return a[0];
  if (a.empty()) return g_run_dir;
  return {};
}

/// Merge the per-process trace/metrics shards of a run directory into
/// `trace-merged.json` / `metrics-merged.json` (docs/OBSERVABILITY.md,
/// "Distributed tracing").  Read-only with respect to the run's durable
/// state; deterministic for a given shard set.
int cmd_trace_merge(const std::vector<std::string>& a) {
  const std::string dir = telemetry_dir(a);
  if (dir.empty()) {
    std::cerr << "trace-merge requires a run directory (argument or"
                 " --run-dir=DIR)\n";
    return exit_code::kUsage;
  }
  const obs::TraceMergeResult tr = obs::merge_trace_shards(dir);
  TextTable t({"shard", "pid", "process", "events", "state"});
  for (const obs::TraceShard& s : tr.shards)
    t.add_row({s.file, std::to_string(s.pid), s.label,
               std::to_string(s.events), s.torn ? "torn" : "complete"});
  t.print("trace shards in " + dir);
  if (tr.shards.empty()) {
    std::cerr << "trace-merge: no trace shards in " << dir << "\n";
  } else {
    write_file_atomic(dir + "/trace-merged.json", tr.json);
    std::cout << "merged " << tr.events << " event(s) from "
              << tr.shards.size() << " shard(s) into " << dir
              << "/trace-merged.json";
    if (tr.dropped > 0) std::cout << " (" << tr.dropped << " dropped)";
    std::cout << "\n";
  }
  const obs::MetricsMergeResult mr = obs::merge_metrics_shards(dir);
  if (!mr.shards.empty()) {
    write_file_atomic(dir + "/metrics-merged.json", mr.json);
    std::cout << "merged " << mr.series << " metric series from "
              << mr.shards.size() << " shard(s) into " << dir
              << "/metrics-merged.json\n";
  }
  return exit_code::kOk;
}

/// True when `pid` names a live process we may signal-probe.
bool pid_alive(long pid) {
#if defined(__unix__) || defined(__APPLE__)
  if (pid <= 0) return false;
  return ::kill(static_cast<pid_t>(pid), 0) == 0 || errno == EPERM;
#else
  (void)pid;
  return false;
#endif
}

/// Live run-status view: sweep progress, per-worker lease state, and the
/// merged health counters of a run directory.  Strictly read-only
/// — safe to point at a directory another process is actively writing —
/// and exits 0 on live, finished, and dead runs alike.
int cmd_status(const std::vector<std::string>& a) {
  const std::string dir = telemetry_dir(a);
  if (dir.empty()) {
    std::cerr << "status requires a run directory (argument or"
                 " --run-dir=DIR)\n";
    return exit_code::kUsage;
  }

  // Liveness: the canonical journal's lockfile holds its owner's pid.
  std::string state = "idle";
  long owner_pid = -1;
  {
    std::ifstream lock(dir + "/journal.jsonl.lock");
    if (lock) {
      lock >> owner_pid;
      state = pid_alive(owner_pid) ? "live" : "stale-lock";
    }
  }

  // Canonical journal: completed rows (read without locking).
  std::vector<std::pair<std::string, std::string>> rows;
  RunJournal::read_records(dir + "/journal.jsonl", &rows);
  std::size_t done_rows = 0, quarantine_rows = 0, meta_rows = 0;
  for (const auto& [id, payload] : rows) {
    (void)payload;
    if (id.rfind("meta:", 0) == 0)
      ++meta_rows;
    else if (id.rfind("quarantine:", 0) == 0)
      ++quarantine_rows;
    else
      ++done_rows;
  }

  // Lease log: the fabric's own view of task + worker state.
  LeaseTable leases(dir, /*read_only=*/true);
  leases.refresh();
  const std::vector<std::string> tasks = leases.task_ids();
  std::size_t lease_done = 0, lease_held = 0, lease_poisoned = 0,
              lease_open = 0, crashes = 0;
  std::map<std::string, std::pair<std::size_t, std::size_t>> workers;
  std::vector<std::string> held_lines;
  for (const std::string& id : tasks) {
    const LeaseState s = leases.state(id);
    crashes += s.crashes;
    switch (s.phase) {
      case LeaseState::Phase::kDone:
        ++lease_done;
        ++workers[s.done_worker].first;
        break;
      case LeaseState::Phase::kHeld: {
        ++lease_held;
        ++workers[s.holder].second;
        std::ostringstream h;
        h << "  held: " << id << " by " << s.holder;
        const std::uint64_t now = lease_now_ms();
        if (s.deadline_ms > now)
          h << " (lease expires in " << (s.deadline_ms - now) / 1000 << "s)";
        held_lines.push_back(h.str());
        break;
      }
      case LeaseState::Phase::kPoisoned: ++lease_poisoned; break;
      case LeaseState::Phase::kFree: ++lease_open; break;
    }
  }
  const bool finished =
      !tasks.empty() && lease_held == 0 && lease_open == 0;
  if (state == "idle" && (finished || (tasks.empty() && done_rows > 0)))
    state = "finished";

  std::cout << "run " << dir << ": " << state;
  if (owner_pid > 0 && state == "live")
    std::cout << " (journal held by pid " << owner_pid << ")";
  std::cout << "\n";
  std::cout << "journal: " << done_rows << " task row(s), " << quarantine_rows
            << " quarantine row(s), " << meta_rows << " meta row(s)\n";
  if (!tasks.empty()) {
    std::cout << "tasks: " << tasks.size() << " — " << lease_done << " done, "
              << lease_held << " held, " << lease_open << " open, "
              << lease_poisoned << " poisoned (" << crashes
              << " crash record(s), " << leases.replay_reclaims()
              << " reclaim(s))\n";
    for (const std::string& h : held_lines) std::cout << h << "\n";
    for (const auto& [name, counts] : workers) {
      std::cout << "  worker " << name << ": " << counts.first
                << " committed";
      if (counts.second > 0) std::cout << ", " << counts.second << " held";
      std::cout << "\n";
    }
  }

  // Merged telemetry: the counters of every metrics shard, summed.
  const std::map<std::string, double> counters = obs::merged_counters(dir);
  bool counters_header = false;
  for (const auto& [name, value] : counters) {
    const bool interesting =
        name.rfind("health.", 0) == 0 || name == "thermal.solves";
    if (!interesting) continue;
    if (!counters_header) {
      std::cout << "counters (merged from metrics shards):\n";
      counters_header = true;
    }
    std::cout << "  " << name << " " << value << "\n";
  }
  return exit_code::kOk;
}

/// Validate --run-dir's durable files; `--fix` repairs them in place.
int cmd_fsck(const std::vector<std::string>& a) {
  bool fix = false;
  for (const std::string& s : a) {
    if (s == "--fix")
      fix = true;
    else
      return usage();
  }
  if (g_run_dir.empty()) {
    std::cerr << "fsck requires --run-dir=DIR\n";
    return exit_code::kUsage;
  }
  const FsckReport rep = fsck_run_dir(g_run_dir, fix);
  TextTable t({"file", "kind", "valid", "corrupt", "torn_tail", "state"});
  for (const FsckFile& f : rep.files)
    t.add_row({f.name,
               f.advisory    ? "telemetry"
               : f.event_log ? "event-log"
                             : "journal",
               std::to_string(f.valid), std::to_string(f.corrupt),
               f.torn_tail ? "yes" : "no",
               f.fixed        ? "repaired"
               : f.corrupt == 0 ? "clean"
               : f.advisory   ? "advisory"
                              : "DAMAGED"});
  t.print("fsck " + g_run_dir);
  if (!rep.clean()) {
    std::cerr << "fsck: " << rep.total_corrupt()
              << " damaged line(s); rerun with --fix to truncate/repair\n";
    return exit_code::kDataErr;
  }
  std::cerr << "fsck: clean\n";
  return exit_code::kOk;
}

int cmd_cost(const std::vector<std::string>& a) {
  if (a.size() != 2) return usage();
  const int n = std::stoi(a[0]);
  const double w = std::stod(a[1]);
  const SystemSpec spec;
  const double edge = spec.chip_edge_mm() / (n == 4 ? 2 : 4);
  const CostBreakdown b = cost_breakdown_25d(n, edge * edge, w * w);
  const double c2d =
      single_chip_cost(spec.chip_edge_mm() * spec.chip_edge_mm());
  std::cout << n << " chiplets on a " << w << " mm interposer:\n"
            << "  chiplets:   $" << b.chiplets_total << " (" << b.chiplet_each
            << " each)\n  interposer: $" << b.interposer << "\n  bonding:    $"
            << b.bonding << " (yield factor " << b.bond_yield_factor << ")\n"
            << "  total:      $" << b.total << "  = "
            << b.total / c2d << "x the 2D chip ($" << c2d << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  int first = 1;
  // Global options, in any order before the command.  --threads=N sizes
  // the evaluation engine's pool (TACOS_THREADS is the equivalent knob);
  // the --fault-* flags arm the deterministic fault-injection plan that
  // every command's Evaluator inherits (docs/ROBUSTNESS.md).
  while (first < argc && std::string(argv[first]).rfind("--", 0) == 0) {
    const std::string flag = argv[first];
    if (flag.rfind("--threads=", 0) == 0) {
      const std::optional<long> n = parse_number<long>(flag.substr(10));
      if (!n || *n < 1) return usage();
      ThreadPool::set_global_threads(static_cast<std::size_t>(*n));
    } else if (flag.rfind("--fault-pcg-every=", 0) == 0) {
      const std::optional<long> n = parse_number<long>(flag.substr(18));
      if (!n || *n < 1) return usage();
      g_fault.pcg_fail_every = static_cast<std::size_t>(*n);
    } else if (flag.rfind("--fault-pcg-rungs=", 0) == 0) {
      const std::optional<int> n = parse_number<int>(flag.substr(18));
      if (!n || *n < 1) return usage();
      g_fault.pcg_fail_rungs = *n;
    } else if (flag == "--fault-leak-nonconverge") {
      g_fault.leak_force_nonconverge = true;
    } else if (flag.rfind("--fidelity=", 0) == 0) {
      const std::optional<FidelityMode> m =
          parse_fidelity_mode(flag.substr(11));
      if (!m) return usage();
      g_fidelity = *m;
    } else if (flag.rfind("--surrogate-keep-frac=", 0) == 0) {
      const std::optional<double> f = parse_number<double>(flag.substr(22));
      if (!f || *f < 0.0 || *f > 1.0) return usage();
      g_keep_frac = *f;
    } else if (flag == "--mg-mixed") {
      g_mg_mixed = true;
    } else if (flag == "--refine") {
      g_refine = true;
    } else if (flag.rfind("--refine-tol-mm=", 0) == 0) {
      const std::optional<double> t = parse_number<double>(flag.substr(16));
      if (!t || *t <= 0.0) return usage();
      g_refine_tol_mm = *t;
    } else if (flag.rfind("--workers=", 0) == 0) {
      const std::optional<int> n = parse_number<int>(flag.substr(10));
      if (!n || *n < 1) return usage();
      g_workers = *n;
    } else if (flag.rfind("--lease-ttl-ms=", 0) == 0) {
      const std::optional<long> n = parse_number<long>(flag.substr(15));
      if (!n || *n < 1) return usage();
      g_lease_ttl_ms = static_cast<std::uint64_t>(*n);
    } else if (flag.rfind("--fault-worker-crash-after=", 0) == 0) {
      const std::optional<long> n = parse_number<long>(flag.substr(27));
      if (!n || *n < 1) return usage();
      g_fault.worker_crash_after = static_cast<std::size_t>(*n);
    } else if (flag.rfind("--fault-worker-crash-task=", 0) == 0) {
      g_fault.worker_crash_task = flag.substr(26);
      if (g_fault.worker_crash_task.empty()) return usage();
    } else if (flag.rfind("--fault-lease-stall-ms=", 0) == 0) {
      const std::optional<long> n = parse_number<long>(flag.substr(23));
      if (!n || *n < 1) return usage();
      g_fault.lease_stall_ms = static_cast<std::uint64_t>(*n);
    } else if (flag.rfind("--fabric-worker=", 0) == 0) {
      const std::optional<int> n = parse_number<int>(flag.substr(16));
      if (!n || *n < 0) return usage();
      g_fabric_worker = *n;
    } else if (flag.rfind("--fabric-incarnation=", 0) == 0) {
      const std::optional<int> n = parse_number<int>(flag.substr(21));
      if (!n || *n < 0) return usage();
      g_fabric_incarnation = *n;
    } else if (flag.rfind("--run-dir=", 0) == 0) {
      g_run_dir = flag.substr(10);
    } else if (flag == "--resume") {
      g_resume = true;
    } else if (flag.rfind("--task-deadline=", 0) == 0) {
      const std::optional<double> d = parse_number<double>(flag.substr(16));
      if (!d || *d < 0.0) return usage();
      g_task_deadline_s = *d;
    } else if (flag.rfind("--precond=", 0) == 0) {
      if (!parse_precond_name(flag.substr(10), &g_precond)) return usage();
    } else if (g_obs.parse_flag(flag)) {
      // consumed by the observability layer
    } else {
      return usage();
    }
    ++first;
  }
  if (argc - first < 1) return usage();
  g_argv.assign(argv, argv + argc);
  const std::string cmd = argv[first];
  if (g_fabric_worker >= 0) {
    // Fabric workers publish per-process telemetry shards — shard-suffix
    // redirection forces trace-w<k>.json / metrics-w<k>.json inside the
    // run dir, so N workers never clobber the supervisor's artifacts and
    // `tacos_cli trace-merge` can join them into one timeline.
    g_obs.shard_suffix = "w" + std::to_string(g_fabric_worker);
  } else if (cmd == "status" || cmd == "trace-merge") {
    // Read-only commands must not create, preload, or republish telemetry
    // artifacts in a directory they merely inspect.
    g_obs = obs::ObsOptions{};
  }
  g_obs.finalize(g_run_dir, g_resume);
  install_signal_handlers();
  std::vector<std::string> args(argv + first + 1, argv + argc);
  int rc;
  try {
    // Root span: every hot-path span nests under run.main, so per-phase
    // self-times in the metrics artifact sum to ~the command's wall time.
    static obs::SpanSite root_site("run.main", "run");
    obs::TraceSpan root(root_site);
    root.arg("cmd", cmd);
    if (cmd == "list") rc = cmd_list();
    else if (cmd == "evaluate") rc = cmd_evaluate(args);
    else if (cmd == "baseline") rc = cmd_baseline(args);
    else if (cmd == "optimize") rc = cmd_optimize(args);
    else if (cmd == "sweep") rc = cmd_sweep(args);
    else if (cmd == "cost") rc = cmd_cost(args);
    else if (cmd == "batch") rc = cmd_batch(args);
    else if (cmd == "trace-merge") rc = cmd_trace_merge(args);
    else if (cmd == "status") rc = cmd_status(args);
    else if (cmd == "fsck") rc = cmd_fsck(args);
    else rc = usage();
  } catch (const std::exception& e) {
    // One structured line per failure, one exit code per error class, so
    // scripts can branch on the failure kind without parsing messages.
    std::cerr << diagnostic_line(e) << "\n";
    rc = exit_code_for(e);
  }
  if (g_obs.any()) g_obs.publish();
  return rc;
}
