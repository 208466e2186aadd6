/// \file tacos_cli.cpp
/// \brief Command-line front end for the tacos library.
///
/// The subcommands are listed, with their arguments, in kCommands below
/// and in the usage text.
///
/// Every command prints plain text.  Exit-code discipline (see
/// src/common/errors.hpp): 0 success, 1 usage error, 2 generic
/// tacos::Error, 3 SolverError, 4 ThermalError, 5 EvalError, 65 corrupt
/// data found by fsck (EX_DATAERR), 70 other std::exception, 75
/// interrupted (resumable).  Failures emit one
/// structured stderr line:
///   tacos-error kind=<class> code=<n>: <message>
///
/// Global flags come before the command and hold for every command; the
/// usage line lists them, generated from the flag table
/// (src/entry/run_options.hpp).  A bad command line exits 1 with it.
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
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/errors.hpp"
#include "common/fsck.hpp"
#include "common/journal.hpp"
#include "common/lease.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/fabric.hpp"
#include "core/optimizer.hpp"
#include "cost/cost_model.hpp"
#include "entry/run_options.hpp"
#include "obs/merge.hpp"
#include "obs/obs.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <unistd.h>
#endif

using namespace tacos;

namespace {

/// The parsed command line: the global flags, shared by every command.
entry::RunOptions g_opts;
/// Original command line, kept verbatim so the fabric supervisor can
/// re-exec itself as workers.
std::vector<std::string> g_argv;

using Args = std::vector<std::string>;
using entry::positional;

/// A wrong argument count is a usage error.
void want_args(const Args& a, std::size_t lo, std::size_t hi) {
  if (a.size() < lo || a.size() > hi)
    throw entry::UsageError("wrong number of arguments");
}

/// The evaluator configuration of every command: the grid, --precond, the
/// --fault-* plan and --fidelity.
EvalConfig eval_config(const CancelToken* cancel) {
  EvalConfig cfg = g_opts.experiment.eval_config(cancel);
  cfg.thermal.solve.fault = g_opts.fault;
  cfg.ladder.mode = g_opts.fidelity;
  return cfg;
}

/// Interactive commands honor Ctrl-C at solver granularity: the solve
/// aborts with CancelledError and the process exits 75.
Evaluator make_evaluator() {
  return Evaluator(eval_config(&global_cancel_token()));
}

/// One-line health report after any command that ran the thermal stack.
/// The counters also land in the metrics artifact when --metrics is on.
void report_health(const Evaluator& eval) {
  std::cerr << eval.health().summary() << "\n";
  obs::record_run_health(eval.health());
}

int cmd_list(const Args& a) {
  want_args(a, 0, 0);
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

int cmd_evaluate(const Args& a) {
  want_args(a, 7, 7);
  // f_idx parses signed so a negative index stays a domain error.
  const Organization org{
      positional<int>(a[1], "n"),
      Spacing{positional<double>(a[2], "s1"), positional<double>(a[3], "s2"),
              positional<double>(a[4], "s3")},
      static_cast<std::size_t>(positional<long>(a[5], "f_idx")),
      positional<int>(a[6], "p")};
  Evaluator eval = make_evaluator();
  const BenchmarkProfile& bench = benchmark_by_name(a[0]);
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

int cmd_baseline(const Args& a) {
  want_args(a, 1, 2);
  const double th =
      a.size() > 1 ? positional<double>(a[1], "threshold_c") : 85.0;
  Evaluator eval = make_evaluator();
  const BenchmarkProfile& bench = benchmark_by_name(a[0]);
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

int cmd_optimize(const Args& a) {
  want_args(a, 1, 4);
  ExperimentOptions& x = g_opts.experiment;
  const double alpha = a.size() > 1 ? positional<double>(a[1], "alpha") : 1.0;
  const double beta = a.size() > 2 ? positional<double>(a[2], "beta") : 0.0;
  if (a.size() > 3) x.threshold_c = positional<double>(a[3], "threshold_c");
  const OptimizerOptions opts =
      x.optimizer_options(alpha, beta, &global_cancel_token());
  Evaluator eval = make_evaluator();
  const BenchmarkProfile& bench = benchmark_by_name(a[0]);
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

int cmd_sweep(const Args& a) {
  want_args(a, 2, 3);
  const int n = positional<int>(a[1], "n");
  OptimizerOptions opts;
  if (a.size() > 2) opts.threshold_c = positional<double>(a[2], "threshold_c");
  Evaluator eval = make_evaluator();
  const BenchmarkProfile& bench = benchmark_by_name(a[0]);
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
/// batch's arguments: [alpha] [beta] into the optimizer options returned,
/// [threshold_c] [grid] [step] into g_opts.experiment.  main() also parses
/// them before it opens the journal, so a bad one touches no run dir.
OptimizerOptions batch_args(const Args& a) {
  want_args(a, 0, 5);
  ExperimentOptions& x = g_opts.experiment;
  const double alpha = a.size() > 0 ? positional<double>(a[0], "alpha") : 1.0;
  const double beta = a.size() > 1 ? positional<double>(a[1], "beta") : 0.0;
  if (a.size() > 2) x.threshold_c = positional<double>(a[2], "threshold_c");
  // grid parses signed, like f_idx: a negative grid stays a domain error.
  if (a.size() > 3)
    x.grid = static_cast<std::size_t>(positional<long>(a[3], "grid"));
  if (a.size() > 4) x.opt_step_mm = positional<double>(a[4], "step");
  return x.optimizer_options(alpha, beta);
}

int cmd_batch(const Args& a) {
  const OptimizerOptions opts = batch_args(a);
  const EvalConfig cfg = eval_config(nullptr);
  ExperimentOptions& x = g_opts.experiment;

  std::vector<std::string> names;
  for (const auto& b : benchmarks()) names.emplace_back(b.name);

  FabricOptions fab;
  fab.workers = g_opts.workers;
  fab.lease_ttl_ms = g_opts.lease_ttl_ms;
  fab.task_deadline_s = x.run.task_deadline_s;

  if (g_opts.fabric_worker >= 0) {
    // Worker process of a --workers=N sweep: run the claim → run →
    // publish loop against the shared run dir and exit.  The canonical
    // journal stays the supervisor's (it holds the lock); this process
    // journals into its own shard.
    if (g_opts.run_dir.empty())
      throw entry::UsageError("--fabric-worker requires --run-dir=DIR");
    const WorkerReport rep = run_fabric_worker(
        cfg, names, opts, g_opts.run_dir, g_opts.fabric_worker,
        g_opts.fabric_incarnation, fab, g_opts.fault, &global_cancel_token());
    std::cerr << "[fabric "
              << fabric_worker_name(g_opts.fabric_worker,
                                    g_opts.fabric_incarnation)
              << "] claimed " << rep.claimed << ", published "
              << rep.published << ", fenced " << rep.fenced << ", reclaimed "
              << rep.reclaims << "\n";
    return rep.interrupted ? exit_code::kInterrupted : exit_code::kOk;
  }

  // main() opened --run-dir's journal (entry::open_run_dir).
  RunJournal* const journal = g_opts.journal.get();
  x.run.cancel = &global_cancel_token();

  RunHealth fabric_health;
  if (g_opts.workers > 0) {
    // Supervisor of a multi-process sweep: fork workers over the shared
    // run dir, ride out crashes, and merge the winning shard rows into
    // the canonical journal.  The optimize_greedy_batch call below then
    // replays that journal, so stdout is byte-identical to a
    // single-process run at any worker count.
    if (!journal) throw entry::UsageError("--workers requires --run-dir=DIR");
    const FabricReport fr =
        run_fabric_sweep(cfg, names, opts, *journal, g_opts.run_dir, fab,
                         g_argv, &global_cancel_token());
    if (fr.interrupted) {
      std::cerr << "[fabric] interrupted; shards and lease log are on disk"
                   " — resume with --run-dir=" << g_opts.run_dir
                << " --resume --workers=" << g_opts.workers << "\n";
      return exit_code::kInterrupted;
    }
    std::cerr << "[fabric] merged " << fr.merged << " task(s) from "
              << g_opts.workers << " worker(s); " << fr.health.summary()
              << "\n";
    fabric_health = fr.health;
  }

  EvalStats stats;
  const std::vector<OptResult> results =
      optimize_greedy_batch(cfg, names, opts, &stats, &x.run);

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
              << " rejected, " << l.promoted << " promoted, "
              << l.medium_solves << " medium solve(s), " << l.medium_failures
              << " rung failure(s)\n";
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
                   " --run-dir=" << g_opts.run_dir << " --resume";
    std::cerr << "\n";
    return exit_code::kInterrupted;
  }
  return exit_code::kOk;
}

/// The run dir a read-only telemetry command operates on: the positional
/// argument when given, else --run-dir.
std::string telemetry_dir(const Args& a, const char* cmd) {
  want_args(a, 0, 1);
  const std::string dir = a.empty() ? g_opts.run_dir : a[0];
  if (dir.empty())
    throw entry::UsageError(std::string(cmd) +
                            " requires a run directory (argument or"
                            " --run-dir=DIR)");
  return dir;
}

/// Merge the per-process trace/metrics shards of a run directory into
/// `trace-merged.json` / `metrics-merged.json` (docs/OBSERVABILITY.md,
/// "Distributed tracing").  Read-only with respect to the run's durable
/// state; deterministic for a given shard set.
int cmd_trace_merge(const Args& a) {
  const std::string dir = telemetry_dir(a, "trace-merge");
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
int cmd_status(const Args& a) {
  const std::string dir = telemetry_dir(a, "status");

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
int cmd_fsck(const Args& a) {
  for (const std::string& arg : a)
    entry::apply_flag(arg, entry::kFix, g_opts);
  if (g_opts.run_dir.empty())
    throw entry::UsageError("fsck requires --run-dir=DIR");
  const FsckReport rep = fsck_run_dir(g_opts.run_dir, g_opts.fix);
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
  t.print("fsck " + g_opts.run_dir);
  if (!rep.clean()) {
    std::cerr << "fsck: " << rep.total_corrupt()
              << " damaged line(s); rerun with --fix to truncate/repair\n";
    return exit_code::kDataErr;
  }
  std::cerr << "fsck: clean\n";
  return exit_code::kOk;
}

int cmd_cost(const Args& a) {
  want_args(a, 2, 2);
  const int n = positional<int>(a[0], "n");
  const double w = positional<double>(a[1], "interposer_mm");
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

/// The subcommands, in usage order.
struct Command {
  const char* name;
  const char* args;
  const char* help;
  int (*run)(const Args&);
};
const Command kCommands[] = {
    {"list", "", "benchmarks and DVFS levels", cmd_list},
    {"evaluate", "<bench> <n:1|4|16> <s1> <s2> <s3> <f_idx:0-4> <p>",
     "one organization end to end", cmd_evaluate},
    {"baseline", "<bench> [threshold_c=85]", "best 2D operating point",
     cmd_baseline},
    {"optimize", "<bench> [alpha=1] [beta=0] [threshold_c=85]",
     "multi-start greedy (§III-D)", cmd_optimize},
    {"sweep", "<bench> <n:4|16> [threshold_c=85]",
     "max IPS vs interposer size", cmd_sweep},
    {"cost", "<n:4|16> <interposer_mm>", "Eq. (4) breakdown", cmd_cost},
    {"batch", "[alpha=1] [beta=0] [threshold_c=85] [grid=32] [step=0.5]",
     "optimize every benchmark (durable with --run-dir; --workers=N forks)",
     cmd_batch},
    {"trace-merge", "[run-dir]",
     "merge per-process telemetry shards (default --run-dir)",
     cmd_trace_merge},
    {"status", "[run-dir]",
     "live run status: progress, worker leases, health (default --run-dir)",
     cmd_status},
    {"fsck", "[--fix]",
     "validate (--fix: repair) --run-dir's durable files; exit 65 on damage",
     cmd_fsck},
};

}  // namespace

int main(int argc, char** argv) {
  // The usage line's positionals, then the command list after the flags.
  std::string commands = "<command> [args]\ncommands:\n";
  for (const Command& c : kCommands)
    commands += std::string("  ") + c.name + (*c.args ? " " : "") + c.args +
                "\n      " + c.help + '\n';
  const auto usage = [&](const std::string& why) {
    std::cerr << why << '\n'
              << entry::usage_text(argv[0], entry::kCliFlags, commands);
    return exit_code::kUsage;
  };
  const Args cmdline = entry::parse_args(argc, argv, entry::kCliFlags, commands,
                                         g_opts, /*flags_first=*/true);
  if (cmdline.empty()) return usage("missing command");
  const std::string& cmd = cmdline[0];
  const Command* command = nullptr;
  for (const Command& c : kCommands)
    if (cmd == c.name) command = &c;
  if (!command) return usage("unknown command: " + cmd);
  // TACOS_THREADS is the environment's --threads.
  if (g_opts.threads > 0) ThreadPool::set_global_threads(g_opts.threads);
  g_argv.assign(argv, argv + argc);
  if (g_opts.fabric_worker >= 0) {
    // Fabric workers publish per-process telemetry shards — shard-suffix
    // redirection forces trace-w<k>.json / metrics-w<k>.json inside the
    // run dir, so N workers never clobber the supervisor's artifacts and
    // `tacos_cli trace-merge` can join them into one timeline.
    g_opts.obs.shard_suffix = "w" + std::to_string(g_opts.fabric_worker);
  } else if (cmd == "status" || cmd == "trace-merge") {
    // Read-only commands must not create, preload, or republish telemetry
    // artifacts in a directory they merely inspect.
    g_opts.obs = obs::ObsOptions{};
  }
  const Args args(cmdline.begin() + 1, cmdline.end());
  int rc;
  try {
    // Only batch journals (a fabric worker into its own shard).
    const bool journals = cmd == "batch" && g_opts.fabric_worker < 0;
    if (journals) batch_args(args);
    rc = entry::open_run_dir(g_opts, journals);
    if (rc == exit_code::kOk) {
      install_signal_handlers();
      // Root span: every hot-path span nests under run.main, so per-phase
      // self-times in the metrics artifact sum to ~the command's wall time.
      static obs::SpanSite root_site("run.main", "run");
      obs::TraceSpan root(root_site);
      root.arg("cmd", cmd);
      rc = command->run(args);
    }
  } catch (const entry::UsageError& e) {
    rc = usage(e.what());
  } catch (const std::exception& e) {
    // One structured line per failure, one exit code per error class, so
    // scripts can branch on the failure kind without parsing messages.
    std::cerr << diagnostic_line(e) << "\n";
    rc = exit_code_for(e);
  }
  if (g_opts.obs.any()) g_opts.obs.publish();
  return rc;
}
