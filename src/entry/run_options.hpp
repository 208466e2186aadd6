#pragma once
/// \file run_options.hpp
/// \brief The command line of every tacos binary: one table of flags and
///        one way to open a run directory.
///
/// Each flag is declared once, in the table in run_options.cpp: its name,
/// how its value parses (numbers through parse_number, then a range
/// check) and its help line.  A binary names the flags it honours as a
/// FlagSet; any other flag, or a bad value, exits 1 with the usage text
/// generated from the same table.

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault_plan.hpp"
#include "common/journal.hpp"
#include "common/parse_number.hpp"
#include "core/experiments.hpp"
#include "obs/obs.hpp"

namespace tacos::entry {

/// Every flag of every binary, one bit each; a FlagSet is a union of them.
enum Flag : std::uint32_t {
  kThreads = 1u << 0, kWorkers = 1u << 1, kLeaseTtlMs = 1u << 2,
  kRunDir = 1u << 3, kResume = 1u << 4, kTaskDeadline = 1u << 5,
  kPrecond = 1u << 6, kFidelity = 1u << 7, kRefine = 1u << 8,
  kRefineTolMm = 1u << 9, kFaultPcgEvery = 1u << 10,
  kFaultPcgRungs = 1u << 11, kFaultLeakNonconverge = 1u << 12,
  kFaultWorkerCrashAfter = 1u << 13, kFaultWorkerCrashTask = 1u << 14,
  kFaultLeaseStallMs = 1u << 15, kMetrics = 1u << 16, kTrace = 1u << 17,
  kSelftest = 1u << 18, kFix = 1u << 19,
  // Internal: the fabric supervisor re-execs its workers with these.
  kFabricWorker = 1u << 20, kFabricIncarnation = 1u << 21,
  kTraceCtx = 1u << 22,
};
using FlagSet = std::uint32_t;

// The flag sets of the binaries.
/// Every binary takes --metrics and --trace; fig3a_cost_model,
/// tab_cost_claims, tab_network_power and micro_eval_engine nothing else.
inline constexpr FlagSet kObsFlags = kMetrics | kTrace;
/// A runner that solves thermal models (the ext_* runners).
inline constexpr FlagSet kSolveFlags = kObsFlags | kPrecond;
/// A runner that also journals its tasks (fig3b … fig8,
/// tab_greedy_validation, tab_improvement_summary).
inline constexpr FlagSet kJournalFlags =
    kSolveFlags | kRunDir | kResume | kTaskDeadline;
/// Added where the optimizer can refine its winners (fig8,
/// tab_greedy_validation, ext_annealing).
inline constexpr FlagSet kRefineFlags = kRefine | kRefineTolMm;
/// tacos_cli's global flags, given before the subcommand.
inline constexpr FlagSet kCliFlags =
    kJournalFlags | kRefineFlags | kThreads | kWorkers | kLeaseTtlMs |
    kFidelity | kFaultPcgEvery | kFaultPcgRungs | kFaultLeakNonconverge |
    kFaultWorkerCrashAfter | kFaultWorkerCrashTask | kFaultLeaseStallMs |
    kFabricWorker | kFabricIncarnation | kTraceCtx;

/// Everything a command line can set.
struct RunOptions {
  /// The runner knobs: [grid], --precond, --refine, --refine-tol-mm and
  /// --task-deadline; `run.journal` once open_run_dir() opened one.
  ExperimentOptions experiment;
  std::string run_dir;  ///< --run-dir (empty: none)
  bool resume = false;  ///< --resume
  std::unique_ptr<RunJournal> journal;  ///< opened by open_run_dir()
  FidelityMode fidelity = FidelityMode::kFull;  ///< --fidelity
  std::size_t threads = 0;              ///< --threads (0: TACOS_THREADS)
  int workers = 0;                      ///< --workers
  std::uint64_t lease_ttl_ms = 30'000;  ///< --lease-ttl-ms
  int fabric_worker = -1;               ///< --fabric-worker (internal)
  int fabric_incarnation = 0;           ///< --fabric-incarnation (internal)
  FaultPlan fault;                      ///< the --fault-* flags
  obs::ObsOptions obs;                  ///< --metrics, --trace, --trace-ctx
  std::optional<std::size_t> selftest;  ///< micro_solver --selftest[=GRID]
  bool fix = false;                     ///< tacos_cli fsck --fix
};

/// A bad command line; callers print it with the usage text and exit 1.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Applies one `--flag[=value]` token to `opts`; throws UsageError for a
/// flag outside `flags` or a bad value.
void apply_flag(std::string_view token, FlagSet flags, RunOptions& opts);

/// `usage: <binary> [flags] <positionals>` and one line per flag of
/// `flags` with its help, generated from the table (internal flags are
/// left out).  Any lines of `positionals` after its first follow them.
std::string usage_text(std::string_view argv0, FlagSet flags,
                       std::string_view positionals);

/// Prints `why` and the usage text to stderr, then exits 1.
[[noreturn]] void exit_usage(const std::string& why, std::string_view argv0,
                             FlagSet flags, std::string_view positionals);

/// Parses argv[1..argc) against `flags` into `opts` and returns the other
/// tokens in order: positionals, and tokens starting with `passthrough`
/// (when non-empty).  With `flags_first`, the first positional and
/// everything after it are returned unparsed (tacos_cli's subcommand and
/// its arguments).  Exits 1 with the usage text on a bad token.
std::vector<std::string> parse_args(int argc, char** argv, FlagSet flags,
                                    std::string_view positionals,
                                    RunOptions& opts,
                                    bool flags_first = false,
                                    std::string_view passthrough = {});

/// A numeric positional argument: parse_number<T> and at least `min`, or
/// a UsageError naming `what`.
template <typename T>
T positional(const std::string& arg, const char* what,
             T min = std::numeric_limits<T>::lowest()) {
  const std::optional<T> v = parse_number<T>(arg);
  if (!v || *v < min) throw UsageError(std::string("bad ") + what + ": " + arg);
  return *v;
}

/// Opens the run directory the one way every binary does: `--resume` needs
/// `--run-dir`; with `journal` set, `<run-dir>/journal.jsonl` is opened
/// (taking its lock) into opts.journal and opts.experiment.run.journal,
/// loaded (dropped torn records reported), and refused when it holds
/// tasks but `--resume` is missing; then --metrics/--trace resolve into
/// the directory, preloaded on `--resume`.  Returns 0 or the exit code to
/// stop with; throws tacos::Error when a live process holds the lock.
int open_run_dir(RunOptions& opts, bool journal);

}  // namespace tacos::entry
