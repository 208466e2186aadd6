#include "entry/run_options.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "common/errors.hpp"

namespace tacos::entry {

namespace {

/// How a value parses: kChoice takes one of the `|`-separated words of
/// its metavar; kText any non-empty string.
enum class Kind { kSwitch, kText, kChoice, kInteger, kReal };

/// A flag's value, already checked against its kind and range.
struct Value {
  bool given = false;     ///< `=value` was present
  std::string_view text;  ///< the raw value
  long long integer = 0;  ///< Kind::kInteger
  double real = 0.0;      ///< Kind::kReal
};

/// One row of the table.
struct Spec {
  Flag flag;
  std::string_view name;
  Kind kind;
  std::string_view metavar;  ///< `--name=METAVAR` in the usage line
  std::string_view help;     ///< empty: internal, left out of the usage
  void (*store)(RunOptions&, const Value&);
  double min = 1, max = INT_MAX;  ///< numeric range [min, max] ...
  bool min_open = false;          ///< ... or (min, max]
  bool optional = false;          ///< `--name` alone is also accepted
};

constexpr double kLongMax = static_cast<double>(LONG_MAX);
constexpr double kNoMax = std::numeric_limits<double>::max();

const Spec kTable[] = {
    {kRunDir, "--run-dir", Kind::kText, "DIR",
     "journal completed tasks (and --metrics/--trace) under DIR",
     [](auto& o, auto& v) { o.run_dir = v.text; }},
    {kResume, "--resume", Kind::kSwitch, "",
     "replay --run-dir's journal instead of recomputing its tasks",
     [](auto& o, auto&) { o.resume = true; }},
    {kTaskDeadline, "--task-deadline", Kind::kReal, "S",
     "per-task wall-clock budget in seconds (0 = none)",
     [](auto& o, auto& v) { o.experiment.run.task_deadline_s = v.real; }, 0,
     kNoMax},
    {kPrecond, "--precond", Kind::kChoice, "auto|jacobi|mg",
     "PCG preconditioner of every solve and step (auto: multigrid)",
     [](auto& o, auto& v) {
       parse_precond_name(std::string(v.text), &o.experiment.precond);
     }},
    {kFidelity, "--fidelity", Kind::kChoice, "auto|full|ladder",
     "screen candidates on a half-resolution model first (ladder)",
     [](auto& o, auto& v) { o.fidelity = *parse_fidelity_mode(v.text); }},
    {kRefine, "--refine", Kind::kSwitch, "",
     "adjoint-gradient spacing refinement of each 16-chiplet winner",
     [](auto& o, auto&) { o.experiment.refine = true; }},
    {kRefineTolMm, "--refine-tol-mm", Kind::kReal, "T",
     "refinement stopping resolution in mm (default 1e-3)",
     [](auto& o, auto& v) { o.experiment.refine_tol_mm = v.real; }, 0, kNoMax,
     /*min_open=*/true},
    {kThreads, "--threads", Kind::kInteger, "N",
     "size of the evaluation thread pool (default TACOS_THREADS)",
     [](auto& o, auto& v) { o.threads = v.integer; }, 1, kLongMax},
    {kWorkers, "--workers", Kind::kInteger, "N",
     "batch: fork N worker processes over --run-dir",
     [](auto& o, auto& v) { o.workers = v.integer; }},
    {kLeaseTtlMs, "--lease-ttl-ms", Kind::kInteger, "T",
     "batch --workers: a silent worker's lease expires after T ms",
     [](auto& o, auto& v) { o.lease_ttl_ms = v.integer; }, 1, kLongMax},
    {kFaultPcgEvery, "--fault-pcg-every", Kind::kInteger, "N",
     "testing: force a PCG failure on every Nth solve",
     [](auto& o, auto& v) { o.fault.pcg_fail_every = v.integer; }, 1,
     kLongMax},
    {kFaultPcgRungs, "--fault-pcg-rungs", Kind::kInteger, "K",
     "testing: recovery rungs the fault survives (default 1, 4 = all)",
     [](auto& o, auto& v) { o.fault.pcg_fail_rungs = v.integer; }},
    {kFaultLeakNonconverge, "--fault-leak-nonconverge", Kind::kSwitch,
     "", "testing: every leakage fixed point runs out of iterations",
     [](auto& o, auto&) { o.fault.leak_force_nonconverge = true; }},
    {kFaultWorkerCrashAfter, "--fault-worker-crash-after",
     Kind::kInteger, "K",
     "testing: each first-incarnation worker dies after K tasks",
     [](auto& o, auto& v) { o.fault.worker_crash_after = v.integer; }, 1,
     kLongMax},
    {kFaultWorkerCrashTask, "--fault-worker-crash-task", Kind::kText,
     "BENCH", "testing: a worker dies on claiming BENCH's task",
     [](auto& o, auto& v) { o.fault.worker_crash_task = v.text; }},
    {kFaultLeaseStallMs, "--fault-lease-stall-ms", Kind::kInteger, "T",
     "testing: worker 0 stalls T ms holding its first lease",
     [](auto& o, auto& v) { o.fault.lease_stall_ms = v.integer; }, 1,
     kLongMax},
    {kMetrics, "--metrics", Kind::kText, "FILE",
     "write the metrics registry as JSON (default metrics.json)",
     [](auto& o, auto& v) {
       o.obs.metrics = true;
       o.obs.metrics_path = v.text;
     },
     1, INT_MAX, false, /*optional=*/true},
    {kTrace, "--trace", Kind::kText, "FILE",
     "write a Chrome trace_event timeline (default trace.json)",
     [](auto& o, auto& v) {
       o.obs.trace = true;
       o.obs.trace_path = v.text;
     },
     1, INT_MAX, false, /*optional=*/true},
    {kSelftest, "--selftest", Kind::kInteger, "GRID",
     "run the Jacobi-vs-multigrid gates at GRID (default 64) and exit",
     [](auto& o, auto& v) { o.selftest = v.given ? v.integer : 64; }, 1,
     INT_MAX, false, /*optional=*/true},
    {kFix, "--fix", Kind::kSwitch, "",
     "repair the damaged files fsck finds",
     [](auto& o, auto&) { o.fix = true; }},
    {kFabricWorker, "--fabric-worker", Kind::kInteger, "K", "",
     [](auto& o, auto& v) { o.fabric_worker = v.integer; }, 0},
    {kFabricIncarnation, "--fabric-incarnation", Kind::kInteger, "K", "",
     [](auto& o, auto& v) { o.fabric_incarnation = v.integer; }, 0},
    // A malformed context is ignored rather than fatal: it only degrades
    // trace attribution.
    {kTraceCtx, "--trace-ctx", Kind::kText, "TRACE:SPAN", "",
     [](auto& o, auto& v) {
       parse_trace_context(std::string(v.text), &o.obs.inherited_ctx);
     }},
};

/// True when `word` is one of the `|`-separated words of `list`.
bool one_of(std::string_view list, std::string_view word) {
  for (std::size_t b = 0; b <= list.size();) {
    const std::size_t e = std::min(list.find('|', b), list.size());
    if (list.substr(b, e - b) == word) return true;
    b = e + 1;
  }
  return false;
}

/// What a bad value of `s` should have been.
std::string wanted(const Spec& s) {
  const std::string min = std::to_string(std::lround(s.min));
  switch (s.kind) {
    case Kind::kSwitch: return "no value";
    case Kind::kText:
    case Kind::kChoice: return std::string(s.metavar);
    case Kind::kInteger: return "an integer >= " + min;
    case Kind::kReal:
      return (s.min_open ? "a number > " : "a number >= ") + min;
  }
  return {};
}

}  // namespace

void apply_flag(std::string_view token, FlagSet flags, RunOptions& opts) {
  if (token.substr(0, 2) != "--")
    throw UsageError("unexpected argument: " + std::string(token));
  const std::size_t eq = token.find('=');
  const Spec* spec = nullptr;
  for (const Spec& s : kTable)
    if (s.name == token.substr(0, eq) && (flags & s.flag)) spec = &s;
  if (!spec) throw UsageError("unknown flag: " + std::string(token));

  Value v;
  v.given = eq != std::string_view::npos;
  if (v.given) v.text = token.substr(eq + 1);
  bool ok = v.given ? spec->kind != Kind::kSwitch
                    : spec->kind == Kind::kSwitch || spec->optional;
  if (ok && v.given) {
    const std::optional<long long> n = parse_number<long long>(v.text);
    const std::optional<double> x = parse_number<double>(v.text);
    const auto in_range = [&](double d) {
      return (spec->min_open ? d > spec->min : d >= spec->min) &&
             d <= spec->max;
    };
    switch (spec->kind) {
      case Kind::kSwitch: break;
      case Kind::kText: ok = !v.text.empty() || spec->optional; break;
      case Kind::kChoice: ok = one_of(spec->metavar, v.text); break;
      case Kind::kInteger: ok = n && in_range(static_cast<double>(*n)); break;
      case Kind::kReal: ok = x && in_range(*x); break;
    }
    v.integer = n.value_or(0);
    v.real = x.value_or(0.0);
  }
  if (!ok)
    throw UsageError("bad " + std::string(spec->name) + " value (want " +
                     wanted(*spec) + "): " + std::string(token));
  spec->store(opts, v);
}

std::string usage_text(std::string_view argv0, FlagSet flags,
                       std::string_view positionals) {
  // The first line of `positionals` ends the usage line; any further
  // lines follow the flags.
  const std::size_t nl = positionals.find('\n');
  std::string text = "usage: " +
                     std::string(argv0.substr(argv0.find_last_of('/') + 1)) +
                     " [flags]";
  if (nl != 0 && !positionals.empty())
    text += ' ' + std::string(positionals.substr(0, nl));
  text += "\nflags:\n";
  for (const Spec& s : kTable) {
    if (!(flags & s.flag) || s.help.empty()) continue;
    std::string entry = "  " + std::string(s.name);
    if (s.kind != Kind::kSwitch)
      entry += (s.optional ? "[=" : "=") + std::string(s.metavar) +
               (s.optional ? "]" : "");
    entry.resize(std::max<std::size_t>(entry.size() + 2, 30), ' ');
    text += entry + std::string(s.help) + '\n';
  }
  if (nl != std::string_view::npos) text += positionals.substr(nl + 1);
  return text;
}

void exit_usage(const std::string& why, std::string_view argv0,
                FlagSet flags, std::string_view positionals) {
  std::cerr << why << '\n' << usage_text(argv0, flags, positionals);
  std::exit(exit_code::kUsage);
}

std::vector<std::string> parse_args(int argc, char** argv, FlagSet flags,
                                    std::string_view positionals,
                                    RunOptions& opts, bool flags_first,
                                    std::string_view passthrough) {
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool passed = !passthrough.empty() &&
                        arg.substr(0, passthrough.size()) == passthrough;
    if (passed || arg.substr(0, 2) != "--" ||
        (flags_first && !rest.empty())) {
      rest.emplace_back(arg);
      continue;
    }
    try {
      apply_flag(arg, flags, opts);
    } catch (const UsageError& e) {
      exit_usage(e.what(), argv[0], flags, positionals);
    }
  }
  return rest;
}

int open_run_dir(RunOptions& opts, bool journal) {
  if (opts.resume && opts.run_dir.empty()) {
    std::cerr << "--resume requires --run-dir=DIR\n";
    return exit_code::kUsage;
  }
  if (journal && !opts.run_dir.empty()) {
    opts.journal = std::make_unique<RunJournal>(opts.run_dir);
    const RunJournal::LoadStats st = opts.journal->load();
    if (st.dropped > 0)
      std::cerr << "[journal] dropped " << st.dropped
                << " torn/corrupt record(s) from " << opts.journal->path()
                << "; their tasks will be recomputed\n";
    if (opts.journal->size() > 0 && !opts.resume) {
      std::cerr << "run directory " << opts.run_dir
                << " already holds a journal ("
                << opts.journal->task_count()
                << " completed task(s)); pass --resume to continue it or "
                   "use a fresh --run-dir\n";
      return exit_code::kUsage;
    }
    if (opts.resume)
      std::cerr << "[journal] resuming: " << opts.journal->task_count()
                << " task(s) already complete in " << opts.run_dir << '\n';
    opts.experiment.run.journal = opts.journal.get();
  }
  // Observability artifacts live next to the journal: a resumed run
  // preloads and extends the same record.
  opts.obs.finalize(opts.run_dir, opts.resume);
  return exit_code::kOk;
}

}  // namespace tacos::entry
