#pragma once
/// \file fabric.hpp
/// \brief The fault-tolerant multi-process sweep fabric: journal-leased
///        sharding, worker crash recovery, and a supervised coordinator.
///
/// A `batch --workers=N` sweep forks N worker processes over one shared
/// `--run-dir`.  Coordination is entirely file-based, so any worker (or
/// the supervisor itself) can die at any instruction and the run still
/// converges to the same bytes:
///
///   * `leases.jsonl` — the append-only lease log (src/common/lease.hpp).
///     Workers claim tasks through epoch-fenced leases; the first claim
///     record per epoch in file order owns it.
///   * `shard-w<k>.jsonl` — worker k's private write-ahead journal (the
///     whole-file-rewrite RunJournal cannot be shared across processes).
///     A task's row is durable in its worker's shard *before* the lease
///     log's `done` record: publish-then-crash loses nothing, and
///     crash-then-publish just recomputes deterministically.
///   * `journal.jsonl` — the canonical journal, written only by the
///     supervisor: after every task settles, the winning rows are merged
///     in input order (meta record first), which is exactly the byte
///     order a 1-thread single-process run produces.  The CLI then
///     replays the merged journal through optimize_greedy_batch, so
///     stdout is byte-identical too — at any worker count, with any
///     injected crashes.
///
/// Supervision: the coordinator heartbeats workers with waitpid(WNOHANG).
/// A crashed worker's held leases are released immediately (no TTL wait)
/// and the worker is respawned with capped exponential backoff; a task
/// that kills two workers is poisoned — quarantined with a deterministic
/// placeholder row — so one poison task cannot grind the fleet down.
/// When every slot has exhausted its restarts the supervisor degrades to
/// running the worker loop inline.  Lease TTLs are a backstop for
/// zombies (a stalled worker that never crashed): choose a TTL longer
/// than the slowest task; expiry lets another worker reclaim at a higher
/// epoch, and the zombie's eventual publish is fenced off.
///
/// SIGINT/SIGTERM keep the exit-75 contract: the supervisor TERMs its
/// workers, workers release their held leases, nothing is merged, and a
/// `--resume` run picks up from the shards and lease log.
///
/// See docs/ROBUSTNESS.md ("The sweep fabric").

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/fault_plan.hpp"
#include "common/journal.hpp"
#include "common/run_health.hpp"
#include "core/optimizer.hpp"

namespace tacos {

/// Fabric knobs (CLI: --workers / --lease-ttl-ms; the rest are tuned for
/// tests via this struct).
struct FabricOptions {
  int workers = 0;                      ///< worker process count (0 = off)
  std::uint64_t lease_ttl_ms = 30'000;  ///< lease TTL; must exceed the
                                        ///< slowest task (zombie backstop)
  double task_deadline_s = 0.0;         ///< per-task budget (--task-deadline)
  std::uint64_t backoff_base_ms = 200;  ///< restart backoff (BackoffPolicy):
  std::uint64_t backoff_max_ms = 2'000; ///< min(base*2^n, max)
  int max_restarts = 3;                 ///< per worker slot, then degraded
  std::uint64_t poll_ms = 20;           ///< heartbeat / idle-claim poll
  /// Testing hook for in-process workers (threads cannot SIGKILL
  /// themselves): an injected crash abandons the loop — lease live,
  /// result unpublished — instead of raising SIGKILL.
  bool crash_via_abandon = false;
};

/// Lease-log identity of worker slot k's incarnation i, e.g. "w2.1".
/// Incarnations are distinct owners on purpose: a restarted worker must
/// never be mistaken for its dead (or zombie) predecessor by the fence.
std::string fabric_worker_name(int worker_index, int incarnation);

/// Shard journal filename of worker slot k (stable across incarnations:
/// a restarted worker resumes — replays — its predecessor's shard).
std::string shard_journal_file(int worker_index);

/// Deterministic placeholder row for a poisoned task: a quarantined
/// result whose bytes depend only on the crash count, never on pids or
/// timestamps.
std::string poison_placeholder_payload(std::size_t crashes);

/// What one worker (process or in-process test thread) did.
struct WorkerReport {
  std::size_t claimed = 0;    ///< leases won
  std::size_t published = 0;  ///< epoch-fenced commits accepted
  std::size_t fenced = 0;     ///< commits refused (stale epoch)
  std::size_t reclaims = 0;   ///< expired/released leases taken over
  bool crashed = false;       ///< injected crash fired (abandon mode)
  bool interrupted = false;   ///< stopped by cancel → exit 75
};

/// The claim → run → publish loop of one fabric worker.  Walks
/// `bench_names` in input order, claims free tasks through the run dir's
/// lease log, runs each through optimize_one_guarded (journaling into
/// this slot's shard), and commits with an epoch-fenced publish.  Honors
/// the worker-level FaultPlan knobs (crash-after-K, crash-on-task,
/// lease-stall zombie).  Safe to run from threads of one process (each
/// call owns its LeaseTable and shard journal) — the in-process fabric
/// tests do exactly that.
WorkerReport run_fabric_worker(const EvalConfig& config,
                               const std::vector<std::string>& bench_names,
                               const OptimizerOptions& opts,
                               const std::string& run_dir, int worker_index,
                               int incarnation, const FabricOptions& fab,
                               const FaultPlan& faults,
                               const CancelToken* cancel);

/// Supervisor outcome.
struct FabricReport {
  RunHealth health;           ///< leases_reclaimed / worker_restarts /
                              ///< poison_tasks (run-level; never journaled
                              ///< into task rows)
  std::size_t merged = 0;     ///< task rows in the canonical journal
  bool interrupted = false;   ///< shutdown signal: not merged, resumable
};

/// Supervisor: spawns `fab.workers` worker processes (re-exec'ing
/// `worker_argv` with `--fabric-worker=k --fabric-incarnation=i`
/// inserted; first-incarnation-only fault flags are stripped from restart
/// command lines), heartbeats them, restarts crashes with capped
/// exponential backoff, poisons two-strike tasks, degrades to an inline
/// worker when slots are exhausted, and finally merges the winning shard
/// rows into `journal` in input order.  `journal` must be the already
/// opened (locked) canonical journal; its meta record is bound here so
/// the merged file starts exactly like a single-process one.
FabricReport run_fabric_sweep(const EvalConfig& config,
                              const std::vector<std::string>& bench_names,
                              const OptimizerOptions& opts,
                              RunJournal& journal, const std::string& run_dir,
                              const FabricOptions& fab,
                              const std::vector<std::string>& worker_argv,
                              const CancelToken* cancel);

/// The merge step alone (exposed for the in-process fabric tests): for
/// every task, append the row committed by the lease log's winning
/// (worker, epoch) — or the poison placeholder — to `journal`, in input
/// order.  Idempotent: rows already present are kept.  Returns the number
/// of settled tasks.  Throws tacos::Error when a task is unsettled or a
/// winner's shard lacks its row (a broken WAL ordering — never expected).
std::size_t merge_fabric_shards(RunJournal& journal,
                                const std::string& run_dir,
                                const std::vector<std::string>& bench_names);

}  // namespace tacos
