#include "core/fabric.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "common/backoff.hpp"
#include "common/check.hpp"
#include "common/errors.hpp"
#include "common/lease.hpp"
#include "obs/trace.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace tacos {

namespace {

/// "w<k>.<i>" → k, or -1 for names the fabric did not mint.
int worker_index_of(const std::string& worker_name) {
  if (worker_name.size() < 2 || worker_name[0] != 'w' ||
      !std::isdigit(static_cast<unsigned char>(worker_name[1])))
    return -1;
  return std::atoi(worker_name.c_str() + 1);
}

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

std::string fabric_worker_name(int worker_index, int incarnation) {
  std::ostringstream os;
  os << 'w' << worker_index << '.' << incarnation;
  return os.str();
}

std::string shard_journal_file(int worker_index) {
  std::ostringstream os;
  os << "shard-w" << worker_index << ".jsonl";
  return os.str();
}

std::string poison_placeholder_payload(std::size_t crashes) {
  OptResult r;
  r.quarantined = true;
  std::ostringstream d;
  d << "poison-task: crashed " << crashes
    << " worker(s); quarantined by supervisor";
  r.diagnostic = d.str();
  EvalStats stats;
  stats.health.quarantined = 1;
  return encode_opt_result(r, stats);
}

WorkerReport run_fabric_worker(const EvalConfig& config,
                               const std::vector<std::string>& bench_names,
                               const OptimizerOptions& opts,
                               const std::string& run_dir, int worker_index,
                               int incarnation, const FabricOptions& fab,
                               const FaultPlan& faults,
                               const CancelToken* cancel) {
  static obs::SpanSite claim_site("fabric.lease.claim", "fabric");
  static obs::SpanSite reclaim_site("fabric.lease.reclaim", "fabric");
  static obs::SpanSite task_site("fabric.task", "fabric");
  WorkerReport rep;
  const std::string me = fabric_worker_name(worker_index, incarnation);
  LeaseTable leases(run_dir);
  RunJournal shard(run_dir, shard_journal_file(worker_index));
  shard.load();
  shard.bind_meta("optimize_greedy_batch",
                  batch_meta(config, bench_names, opts));
  const RunControl run{&shard, cancel, fab.task_deadline_s};
  std::vector<std::string> ids;
  ids.reserve(bench_names.size());
  for (const std::string& n : bench_names) ids.push_back("optimize:" + n);

  bool stalled = false;
  for (;;) {
    if (cancel && cancel->cancelled()) {
      rep.interrupted = true;
      break;
    }
    leases.refresh();
    bool all_settled = true;
    bool progressed = false;
    for (std::size_t i = 0; i < ids.size() && !rep.interrupted; ++i) {
      const std::string& id = ids[i];
      const LeaseState before = leases.state(id);
      if (before.phase == LeaseState::Phase::kDone ||
          before.phase == LeaseState::Phase::kPoisoned)
        continue;
      all_settled = false;
      if (before.phase == LeaseState::Phase::kHeld) continue;
      const bool is_reclaim = before.epoch > 0;
      obs::TraceSpan span(is_reclaim ? reclaim_site : claim_site);
      span.arg("task", id);
      span.arg("worker", me);
      // Stamp the claim span's context into the lease record so the lease
      // log links back to the timeline (zeros — and pre-PR bytes — when
      // tracing is off).
      obs::TraceContext claim_ctx = span.context();
      if (!claim_ctx.valid()) claim_ctx = obs::current_trace_context();
      const std::optional<std::uint64_t> epoch =
          leases.try_claim(id, me, fab.lease_ttl_ms, claim_ctx.trace_id,
                           claim_ctx.span_id);
      if (!epoch) {
        span.arg("outcome", "lost");
        continue;
      }
      span.arg("epoch", static_cast<std::int64_t>(*epoch));
      ++rep.claimed;
      progressed = true;
      // Injected worker faults.  crash-after-K arms only in incarnation 0
      // (and the supervisor strips the flag from restart command lines,
      // the way a transient OOM-kill fires once); crash-on-task re-arms on
      // every claim of the named task, so successive incarnations die on
      // it and the supervisor's two-strike poison detection trips.
      const bool crash_kth = incarnation == 0 &&
                             faults.worker_crash_after > 0 &&
                             rep.claimed >= faults.worker_crash_after;
      const bool crash_named = !faults.worker_crash_task.empty() &&
                               bench_names[i] == faults.worker_crash_task;
      if (crash_kth || crash_named) {
        span.arg("outcome", "crash-fault");
        rep.crashed = true;
        if (!fab.crash_via_abandon) {
#if defined(__unix__) || defined(__APPLE__)
          // The real crash window: lease live, result unpublished.
          ::kill(::getpid(), SIGKILL);
#endif
        }
        return rep;
      }
      if (worker_index == 0 && incarnation == 0 &&
          faults.lease_stall_ms > 0 && !stalled) {
        // Deterministic zombie: with a TTL shorter than the stall, the
        // lease expires mid-sleep, another worker reclaims at a higher
        // epoch, and the publish below must be fenced off.
        stalled = true;
        sleep_ms(faults.lease_stall_ms);
      }
      const TaskOutcome out = [&] {
        obs::TraceSpan task_span(task_site);
        task_span.arg("task", id);
        task_span.arg("worker", me);
        task_span.arg("epoch", static_cast<std::int64_t>(*epoch));
        return optimize_one_guarded(config, bench_names[i], opts, &run);
      }();
      if (!out.completed) {
        // Interrupted mid-task: hand the lease back so a resume reclaims
        // immediately instead of waiting out the TTL.
        leases.release(id, me, *epoch);
        rep.interrupted = true;
        span.arg("outcome", "interrupted");
        break;
      }
      // WAL ordering: optimize_one_guarded made the row durable in our
      // shard before this `done` record — publish-then-crash loses
      // nothing, crash-then-publish recomputes deterministically.
      if (leases.publish_done(id, me, *epoch)) {
        ++rep.published;
        span.arg("outcome", "published");
      } else {
        span.arg("outcome", "fenced");
      }
    }
    if (rep.interrupted || all_settled) break;
    if (!progressed) sleep_ms(fab.poll_ms);  // others hold the rest
  }
  rep.fenced = leases.stale_publishes();
  rep.reclaims = leases.reclaims();
  return rep;
}

#if defined(__unix__) || defined(__APPLE__)
namespace {

/// Re-exec this binary as worker slot k, incarnation i.  The fabric flags
/// are inserted right after argv[0] (global flags must precede the
/// subcommand); first-incarnation-only fault flags are stripped from
/// restart command lines.
pid_t spawn_worker_process(const std::vector<std::string>& base_argv, int k,
                           int incarnation) {
  std::vector<std::string> argv = base_argv;
  if (incarnation > 0) {
    const auto once_only = [](const std::string& a) {
      return a.rfind("--fault-worker-crash-after=", 0) == 0 ||
             a.rfind("--fault-lease-stall-ms=", 0) == 0;
    };
    argv.erase(std::remove_if(argv.begin() + 1, argv.end(), once_only),
               argv.end());
  }
  argv.insert(argv.begin() + 1,
              {"--fabric-worker=" + std::to_string(k),
               "--fabric-incarnation=" + std::to_string(incarnation)});
  // Hand the child our trace context (the open spawn/restart span) so its
  // spans land on the supervisor's trace.  Absent when tracing is off, so
  // command lines — and worker behavior — are byte-identical to pre-trace
  // runs.
  const obs::TraceContext ctx = obs::current_trace_context();
  if (ctx.valid())
    argv.insert(argv.begin() + 1,
                "--trace-ctx=" + obs::trace_context_string(ctx));
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  TACOS_CHECK(pid >= 0, "sweep fabric: fork failed");
  if (pid == 0) {
    ::execvp(cargv[0], cargv.data());
    std::perror("tacos fabric execvp");
    std::_Exit(127);
  }
  return pid;
}

}  // namespace
#endif

std::size_t merge_fabric_shards(RunJournal& journal,
                                const std::string& run_dir,
                                const std::vector<std::string>& bench_names) {
  LeaseTable leases(run_dir);
  leases.refresh();
  std::map<int, std::map<std::string, std::string>> shards;
  const auto shard_rows =
      [&](int widx) -> const std::map<std::string, std::string>& {
    const auto it = shards.find(widx);
    if (it != shards.end()) return it->second;
    std::vector<std::pair<std::string, std::string>> recs;
    RunJournal::read_records(run_dir + "/" + shard_journal_file(widx), &recs);
    std::map<std::string, std::string>& rows = shards[widx];
    for (auto& [id, payload] : recs) rows.emplace(id, std::move(payload));
    return rows;
  };
  std::size_t merged = 0;
  for (const std::string& name : bench_names) {
    const std::string id = "optimize:" + name;
    if (journal.has(id)) {
      ++merged;  // resumed row (or an idempotent re-merge)
      continue;
    }
    const LeaseState s = leases.state(id);
    if (s.phase == LeaseState::Phase::kPoisoned) {
      journal.append(id, poison_placeholder_payload(s.crashes));
      std::ostringstream q;
      q << "poison crashes=" << s.crashes;
      journal.append("quarantine:" + name, q.str());
      ++merged;
      continue;
    }
    TACOS_CHECK(s.phase == LeaseState::Phase::kDone,
                "sweep fabric merge: task " << id << " is not settled");
    const int widx = worker_index_of(s.done_worker);
    TACOS_CHECK(widx >= 0, "sweep fabric merge: unparsable winner '"
                               << s.done_worker << "' for " << id);
    const std::map<std::string, std::string>& rows = shard_rows(widx);
    const auto row = rows.find(id);
    TACOS_CHECK(row != rows.end(),
                "sweep fabric merge: " << s.done_worker << " committed " << id
                                       << " without a journaled shard row");
    // Refinement rows ride ahead of their optimize row (the order a local
    // run appends them in), so a merged canonical journal is byte-identical
    // to a single-process one.
    if (const auto rrow = rows.find("refine:" + name); rrow != rows.end())
      journal.append(rrow->first, rrow->second);
    journal.append(id, row->second);
    ++merged;
  }
  return merged;
}

FabricReport run_fabric_sweep(const EvalConfig& config,
                              const std::vector<std::string>& bench_names,
                              const OptimizerOptions& opts,
                              RunJournal& journal, const std::string& run_dir,
                              const FabricOptions& fab,
                              const std::vector<std::string>& worker_argv,
                              const CancelToken* cancel) {
  static obs::SpanSite spawn_site("fabric.worker.spawn", "fabric");
  static obs::SpanSite restart_site("fabric.worker.restart", "fabric");
  FabricReport out;
  // Bind the meta record first: the merged canonical journal must start
  // with the same bytes a single-process run writes.
  journal.bind_meta("optimize_greedy_batch",
                    batch_meta(config, bench_names, opts));
  LeaseTable leases(run_dir);
  leases.refresh();
  const std::size_t reclaim_base = leases.replay_reclaims();
  std::vector<std::string> ids;
  ids.reserve(bench_names.size());
  for (const std::string& n : bench_names) ids.push_back("optimize:" + n);
  // Seed: tasks already in the canonical journal (a single-process run
  // resumed with --workers) are marked done through the normal claim →
  // publish protocol, so workers skip them instead of recomputing.
  for (const std::string& id : ids) {
    if (!journal.has(id)) continue;
    const LeaseState s = leases.state(id);
    if (s.phase == LeaseState::Phase::kDone ||
        s.phase == LeaseState::Phase::kPoisoned)
      continue;
    if (const std::optional<std::uint64_t> e =
            leases.try_claim(id, "sup.0", fab.lease_ttl_ms))
      leases.publish_done(id, "sup.0", *e);
  }

  struct Slot {
    long pid = -1;
    int incarnation = 0;
    int restarts = 0;
    bool done = false;   ///< exited cleanly (0 or 75)
    bool dead = false;   ///< restart budget exhausted
    std::uint64_t respawn_at_ms = 0;
  };
  std::vector<Slot> slots(
      static_cast<std::size_t>(std::max(1, fab.workers)));

#if defined(__unix__) || defined(__APPLE__)
  for (std::size_t k = 0; k < slots.size(); ++k) {
    obs::TraceSpan span(spawn_site);
    span.arg("worker", fabric_worker_name(static_cast<int>(k), 0));
    slots[k].pid = spawn_worker_process(worker_argv, static_cast<int>(k), 0);
    span.arg("pid", static_cast<std::int64_t>(slots[k].pid));
  }
  for (;;) {
    if (cancel && cancel->cancelled()) {
      // Graceful shutdown: TERM the fleet, reap it, merge nothing — the
      // shards and lease log are the resume state.
      for (Slot& s : slots)
        if (s.pid > 0) ::kill(static_cast<pid_t>(s.pid), SIGTERM);
      for (Slot& s : slots) {
        if (s.pid <= 0) continue;
        int st = 0;
        ::waitpid(static_cast<pid_t>(s.pid), &st, 0);
        s.pid = -1;
      }
      out.interrupted = true;
      break;
    }
    leases.refresh();
    bool any_live = false;
    for (std::size_t k = 0; k < slots.size(); ++k) {
      Slot& s = slots[k];
      if (s.pid > 0) {
        int st = 0;
        const pid_t r = ::waitpid(static_cast<pid_t>(s.pid), &st, WNOHANG);
        if (r == 0) {
          any_live = true;
          continue;
        }
        s.pid = -1;
        if (WIFEXITED(st) && WEXITSTATUS(st) == 0) {
          s.done = true;
          continue;
        }
        if (WIFEXITED(st) && WEXITSTATUS(st) == exit_code::kInterrupted) {
          s.done = true;  // honored the shutdown contract; run is resumable
          out.interrupted = true;
          continue;
        }
        // Crash (signal or unexpected exit): release the dead
        // incarnation's leases now — reclaim must not wait out the TTL —
        // and count a strike toward poisoning.
        const std::string name =
            fabric_worker_name(static_cast<int>(k), s.incarnation);
        for (const std::string& id : ids) {
          const LeaseState held = leases.state(id);
          if (held.phase != LeaseState::Phase::kHeld || held.holder != name)
            continue;
          leases.record_crash(id);
          if (leases.state(id).crashes >= 2)
            leases.poison(id);  // two strikes: quarantine, stop the bleeding
          else
            leases.release(id, name, held.epoch);
        }
        if (s.restarts >= fab.max_restarts) {
          s.dead = true;
          std::cerr << "[fabric] worker w" << k << " exhausted its "
                    << fab.max_restarts << " restart(s); degrading\n";
          continue;
        }
        const BackoffPolicy restart_backoff{fab.backoff_base_ms,
                                            fab.backoff_max_ms};
        const std::uint64_t delay =
            restart_backoff.delay_ms(static_cast<unsigned>(s.restarts));
        ++s.restarts;
        ++s.incarnation;
        ++out.health.worker_restarts;
        s.respawn_at_ms = lease_now_ms() + delay;
        any_live = true;  // pending respawn
      } else if (!s.done && !s.dead) {
        if (lease_now_ms() >= s.respawn_at_ms) {
          obs::TraceSpan span(restart_site);
          span.arg("worker",
                   fabric_worker_name(static_cast<int>(k), s.incarnation));
          span.arg("restarts", static_cast<std::int64_t>(s.restarts));
          s.pid = spawn_worker_process(worker_argv, static_cast<int>(k),
                                       s.incarnation);
          span.arg("pid", static_cast<std::int64_t>(s.pid));
        }
        any_live = true;
      }
    }
    if (!any_live) {
      leases.refresh();
      if (leases.all_settled(ids)) break;
      if (out.interrupted) break;  // partial fleet honored a shutdown
      // Degraded mode: every slot is finished or exhausted but tasks
      // remain (the last live worker crashed holding them).  Run the
      // worker loop inline under a fresh slot id — worker faults off,
      // solver-level faults still ride inside `config`.
      std::cerr << "[fabric] no live workers; running remaining tasks"
                   " inline\n";
      const WorkerReport inline_rep =
          run_fabric_worker(config, bench_names, opts, run_dir, fab.workers,
                            0, fab, FaultPlan{}, cancel);
      if (inline_rep.interrupted) {
        out.interrupted = true;
        break;
      }
      leases.refresh();
      TACOS_CHECK(leases.all_settled(ids),
                  "sweep fabric stalled: tasks unsettled with no runnable"
                  " workers");
      break;
    }
    sleep_ms(fab.poll_ms);
  }
#else
  // No fork/exec on this platform: the fabric degrades to one inline
  // worker (still lease-coordinated, still byte-identical).
  const WorkerReport inline_rep = run_fabric_worker(
      config, bench_names, opts, run_dir, 0, 0, fab, FaultPlan{}, cancel);
  out.interrupted = inline_rep.interrupted;
#endif

  if (!out.interrupted) {
    out.merged = merge_fabric_shards(journal, run_dir, bench_names);
    leases.refresh();
    for (const std::string& id : ids)
      if (leases.state(id).phase == LeaseState::Phase::kPoisoned)
        ++out.health.poison_tasks;
    out.health.leases_reclaimed = leases.replay_reclaims() - reclaim_base;
  }
  return out;
}

}  // namespace tacos
