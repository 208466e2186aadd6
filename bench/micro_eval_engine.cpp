/// Micro-harness for the parallel evaluation engine (machine-readable).
///
/// Measures, at 1 / 2 / N pool threads:
///   * steady-state solver throughput (solves/sec, warm-started, on a
///     16-chiplet layout large enough to engage the parallel SpMV path);
///   * end-to-end multi-benchmark optimizer wall time (one optimize_greedy
///     per benchmark via optimize_greedy_batch, per-task Evaluator shards);
/// and verifies both are bit-identical across thread counts (the
/// deterministic-reduction contract of solvers.cpp).  A fidelity-ladder
/// A/B then reruns the paper's full greedy sweep (default 0.5 mm step)
/// in kFull and kLadder modes, asserting identical winners, counting the
/// full-resolution solves avoided, and checking the ladder is itself
/// bit-identical at every thread count.  A refinement A/B reruns the
/// default sweep with `--refine`, recording the adjoint-stage cost (extra
/// solves, wall) against the peak-temperature headroom it reclaims, and
/// asserting a refined winner is never worse than its grid winner.
///
/// Emits BENCH_eval_engine.json so the perf trajectory is tracked from
/// PR to PR.  Usage:
///
///   micro_eval_engine [out.json] [e2e_grid] [solver_grid]
///                     [--metrics[=FILE]] [--trace[=FILE]]
///
/// Defaults: BENCH_eval_engine.json, 24, 48.  Thread counts beyond the
/// machine's cores still run (the pool timeshares); speedups are whatever
/// the hardware gives — the JSON records hardware_concurrency so a reader
/// can judge.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/cancel.hpp"
#include "common/errors.hpp"
#include "common/thread_pool.hpp"
#include "core/optimizer.hpp"
#include "floorplan/layout.hpp"
#include "materials/stack.hpp"
#include "obs/merge.hpp"
#include "obs/obs.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "thermal/grid_model.hpp"

namespace {

using namespace tacos;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Exact (round-trippable) rendering, for fingerprints.
std::string fmt_exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

PowerMap uniform_power(const ChipletLayout& l, double total_w) {
  PowerMap p;
  for (const auto& c : l.chiplets()) p.add(c.rect, total_w / l.chiplet_count());
  return p;
}

struct SolverRun {
  double solves_per_sec = 0.0;
  std::string fingerprint;  // exact tile temperatures of the last solve
};

/// Warm-started solves alternating between two power levels.
SolverRun run_solver_micro(std::size_t grid, int n_solves) {
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = grid;
  ThermalModel model(l, make_25d_stack(), cfg);
  model.solve(uniform_power(l, 300.0));  // warm-up (excluded from timing)
  const auto t0 = Clock::now();
  for (int i = 0; i < n_solves; ++i)
    model.solve(uniform_power(l, i % 2 == 0 ? 303.0 : 300.0));
  const double dt = seconds_since(t0);
  SolverRun out;
  out.solves_per_sec = n_solves / dt;
  std::ostringstream fp;
  for (double t : model.tile_temperatures()) fp << fmt_exact(t) << ";";
  out.fingerprint = fp.str();
  return out;
}

struct E2eRun {
  double wall_s = 0.0;
  EvalStats stats;
  std::string fingerprint;  // chosen orgs + objectives, all benchmarks
};

E2eRun run_e2e(std::size_t grid, const std::vector<std::string>& names,
               FidelityMode mode = FidelityMode::kFull, double step_mm = 2.0) {
  EvalConfig cfg;
  cfg.thermal.grid_nx = cfg.thermal.grid_ny = grid;
  cfg.ladder.mode = mode;
  OptimizerOptions oo;
  oo.step_mm = step_mm;
  E2eRun out;
  const auto t0 = Clock::now();
  const std::vector<OptResult> results =
      optimize_greedy_batch(cfg, names, oo, &out.stats);
  out.wall_s = seconds_since(t0);
  std::ostringstream fp;
  for (const OptResult& r : results) {
    fp << r.found << "|" << r.org.n_chiplets << "|"
       << fmt_exact(r.org.spacing.s1) << "|" << fmt_exact(r.org.spacing.s2)
       << "|" << fmt_exact(r.org.spacing.s3) << "|" << r.org.dvfs_idx << "|"
       << r.org.active_cores << "|" << fmt_exact(r.objective) << "\n";
  }
  out.fingerprint = fp.str();
  return out;
}

/// Preconditioner A/B at the paper's full 64x64 resolution: one cold
/// solve of the 16-chiplet layout per preconditioner.  Demonstrates the
/// multigrid iteration-count win (the acceptance target is >= 3x) and
/// that both preconditioners land on the same temperatures.
struct PrecondAB {
  std::size_t grid = 64;
  std::size_t jacobi_iters = 0;
  std::size_t mg_iters = 0;
  std::size_t mg_levels = 0;
  double iters_ratio = 0.0;
  double max_tile_diff_c = 0.0;
  bool temps_match = false;
};

PrecondAB run_precond_ab(std::size_t grid) {
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  const LayerStack stack = make_25d_stack();
  const PowerMap p = uniform_power(l, 300.0);
  PrecondAB out;
  out.grid = grid;
  std::vector<double> temps[2];
  for (int k = 0; k < 2; ++k) {
    ThermalConfig cfg;
    cfg.grid_nx = cfg.grid_ny = grid;
    cfg.solve.precond = k == 0 ? PrecondKind::kJacobi : PrecondKind::kMultigrid;
    ThermalModel model(l, stack, cfg);  // fresh -> cold start
    const SolveResult sr = model.solve(p).solve_info;
    temps[k] = model.tile_temperatures();
    if (k == 0) {
      out.jacobi_iters = sr.iterations;
    } else {
      out.mg_iters = sr.iterations;
      out.mg_levels = model.multigrid() ? model.multigrid()->level_count() : 0;
    }
  }
  for (std::size_t i = 0; i < temps[0].size(); ++i)
    out.max_tile_diff_c =
        std::max(out.max_tile_diff_c, std::abs(temps[0][i] - temps[1][i]));
  out.iters_ratio = static_cast<double>(out.jacobi_iters) /
                    static_cast<double>(std::max<std::size_t>(1, out.mg_iters));
  out.temps_match = out.max_tile_diff_c < 1e-4;
  return out;
}

/// Fidelity-ladder A/B on the paper's greedy sweep (all benchmarks, the
/// default 0.5 mm placement step).  The full-mode reference runs once at
/// one thread; the ladder runs at every thread count so the block also
/// certifies the ladder's cross-thread bit-identity.  The headline claims
/// — identical winners, >= 60% fewer full-resolution solves, >= 2x
/// end-to-end — are serial-work claims, so both sides of the speedup are
/// the 1-thread walls.  Metrics stay on for the whole A/B (both sides pay
/// the same span overhead), and the 1-thread ladder run's wall time is
/// split per rung: inclusive `eval.rung2` (medium) and `eval.thermal`
/// (full) span time.
struct RungTime {
  double wall_s = 0.0;
  std::size_t calls = 0;
};

struct LadderAB {
  double full_wall_s = 0.0;
  double ladder_wall_s = 0.0;  // at 1 thread
  EvalStats full_stats;
  EvalStats ladder_stats;
  RungTime medium_rung;  // 1-thread ladder run
  RungTime full_rung;    // 1-thread ladder run
  double solve_reduction = 0.0;
  double speedup = 0.0;
  bool winner_match = false;
  bool bit_identical = false;
};

/// Current `span.<site>.total_s` / `.calls` counters of one span site.
RungTime span_totals(const std::string& site) {
  RungTime t;
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  for (const auto& [name, v] : snap.counters) {
    if (name == "span." + site + ".total_s") t.wall_s = v;
    if (name == "span." + site + ".calls")
      t.calls = static_cast<std::size_t>(v);
  }
  return t;
}

RungTime operator-(const RungTime& a, const RungTime& b) {
  return RungTime{a.wall_s - b.wall_s, a.calls - b.calls};
}

LadderAB run_ladder_ab(std::size_t grid, const std::vector<std::string>& names,
                       const std::vector<std::size_t>& counts,
                       RunHealth* health) {
  constexpr double kPaperStep = 0.5;
  LadderAB out;
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  ThreadPool::set_global_threads(1);
  std::cerr << "[micro_eval_engine] ladder A/B: full reference (step "
            << kPaperStep << ")...\n";
  const E2eRun full =
      run_e2e(grid, names, FidelityMode::kFull, kPaperStep);
  out.full_wall_s = full.wall_s;
  out.full_stats = full.stats;
  *health += full.stats.health;

  out.bit_identical = true;
  std::string fp0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    ThreadPool::set_global_threads(counts[i]);
    std::cerr << "[micro_eval_engine] ladder A/B: ladder, threads="
              << counts[i] << "...\n";
    const RungTime medium0 = span_totals("eval.rung2");
    const RungTime full0 = span_totals("eval.thermal");
    const E2eRun lad =
        run_e2e(grid, names, FidelityMode::kLadder, kPaperStep);
    *health += lad.stats.health;
    if (i == 0) {
      out.medium_rung = span_totals("eval.rung2") - medium0;
      out.full_rung = span_totals("eval.thermal") - full0;
      fp0 = lad.fingerprint;
      out.ladder_wall_s = lad.wall_s;
      out.ladder_stats = lad.stats;
      out.winner_match = lad.fingerprint == full.fingerprint;
    } else {
      out.bit_identical = out.bit_identical && lad.fingerprint == fp0;
    }
  }
  obs::set_metrics_enabled(metrics_were_on);
  out.solve_reduction =
      1.0 - static_cast<double>(out.ladder_stats.solves) /
                static_cast<double>(std::max<std::size_t>(1, full.stats.solves));
  out.speedup = out.full_wall_s / std::max(1e-9, out.ladder_wall_s);
  return out;
}

/// Refinement A/B: the grid-only sweep vs the same sweep with the
/// adjoint-gradient continuous refinement stage (`--refine`).  Three
/// numbers matter: what the stage costs (extra solves — one adjoint per
/// gradient plus one forward verification per line-search trial — and
/// wall time), what it buys (peak-temperature reduction of the refined
/// winners, °C below the grid winner at the *same* frozen combination),
/// and the invariant that it can never make a winner worse.
struct RefineAB {
  double grid_wall_s = 0.0;
  double refine_wall_s = 0.0;
  EvalStats grid_stats;
  EvalStats refine_stats;
  std::size_t found = 0;
  std::size_t refined = 0;       ///< winners that moved off-grid
  double max_peak_drop_c = 0.0;  ///< largest grid-vs-refined peak gap
  double sum_peak_drop_c = 0.0;
  double extra_solve_frac = 0.0;  ///< (refine solves − grid solves)/grid
  bool never_worse = true;        ///< refined peak ≤ grid peak, always
};

RefineAB run_refine_ab(std::size_t grid, const std::vector<std::string>& names,
                       RunHealth* health) {
  ThreadPool::set_global_threads(1);  // serial-work claim, 1-thread walls
  EvalConfig cfg;
  cfg.thermal.grid_nx = cfg.thermal.grid_ny = grid;
  OptimizerOptions oo;
  oo.step_mm = 2.0;
  RefineAB out;
  std::cerr << "[micro_eval_engine] refine A/B: grid reference...\n";
  auto t0 = Clock::now();
  const std::vector<OptResult> g =
      optimize_greedy_batch(cfg, names, oo, &out.grid_stats);
  out.grid_wall_s = seconds_since(t0);
  *health += out.grid_stats.health;

  std::cerr << "[micro_eval_engine] refine A/B: refined sweep...\n";
  oo.refine = true;
  t0 = Clock::now();
  const std::vector<OptResult> r =
      optimize_greedy_batch(cfg, names, oo, &out.refine_stats);
  out.refine_wall_s = seconds_since(t0);
  *health += out.refine_stats.health;

  for (std::size_t i = 0; i < r.size(); ++i) {
    if (!r[i].found) continue;
    ++out.found;
    // Refinement rides after the grid search, so the pre-refinement
    // winner must be exactly the grid-only sweep's.
    out.never_worse =
        out.never_worse && g[i].found &&
        r[i].org.n_chiplets == g[i].org.n_chiplets &&
        r[i].org.dvfs_idx == g[i].org.dvfs_idx &&
        r[i].org.active_cores == g[i].org.active_cores;
    if (!r[i].refined) {
      out.never_worse = out.never_worse && r[i].peak_c == g[i].peak_c;
      continue;
    }
    ++out.refined;
    const double drop = r[i].peak_grid_c - r[i].peak_c;
    out.never_worse = out.never_worse && drop > 0.0 &&
                      r[i].peak_grid_c == g[i].peak_c;
    out.max_peak_drop_c = std::max(out.max_peak_drop_c, drop);
    out.sum_peak_drop_c += drop;
  }
  out.extra_solve_frac =
      static_cast<double>(out.refine_stats.solves) /
          static_cast<double>(std::max<std::size_t>(1, out.grid_stats.solves)) -
      1.0;
  return out;
}

/// Evaluation-service round-trip costs: an in-process server on a Unix
/// socket, one real client.  Three numbers matter for sizing a remote
/// sweep: the pure transport/framing overhead (ping round-trips/sec),
/// the cold optimize RPC (compute dominates; its payload must be
/// byte-identical to the local journal line), and the warm memo-hit RPC
/// (the steady state of a long-lived server — cache lookup + framing).
struct ServiceBench {
  double ping_rps = 0.0;
  double cold_ms = 0.0;
  double warm_rps = 0.0;
  double stats_rps = 0.0;  ///< `stats` scrape round-trips/sec
  bool payload_matches_local = false;
  bool warm_all_memo_hits = false;
  bool stats_ok = false;  ///< scrape payload carried the expected series
  ServerStats stats;      ///< the server's drain statistics
};

ServiceBench run_service_bench(std::size_t grid) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "tacos_bench_svc").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  ServerOptions so;
  so.endpoint = parse_endpoint(dir + "/svc.sock");
  so.memo_dir = dir;
  so.threads = 2;
  so.queue_capacity = 16;
  CancelToken stop;
  ServerStats stats;
  std::thread server([&] { stats = serve_forever(so, &stop); });
  for (int i = 0; i < 500; ++i) {
    try {
      if (connect_endpoint(so.endpoint, 200).ok()) break;
    } catch (const ServiceError&) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  EvalConfig cfg;
  cfg.thermal.grid_nx = cfg.thermal.grid_ny = grid;
  OptimizerOptions oo;
  oo.step_mm = 4.0;
  oo.starts = 3;
  const std::string bench = "cholesky";
  const TaskOutcome local = optimize_one_guarded(cfg, bench, oo, nullptr);
  const std::string oracle = encode_opt_result(local.result, local.stats);

  ClientOptions co;
  co.endpoint = so.endpoint;
  EvalClient client(co);
  ServiceBench out;

  constexpr int kPings = 200;
  for (int i = 0; i < 5; ++i) client.ping();  // warm-up
  auto t0 = Clock::now();
  for (int i = 0; i < kPings; ++i) client.ping();
  out.ping_rps = kPings / seconds_since(t0);

  t0 = Clock::now();
  bool memo_hit = false;
  const std::string cold = client.optimize(cfg, oo, bench, 0.0, &memo_hit);
  out.cold_ms = seconds_since(t0) * 1e3;
  out.payload_matches_local = !memo_hit && cold == oracle;

  constexpr int kWarm = 100;
  out.warm_all_memo_hits = true;
  t0 = Clock::now();
  for (int i = 0; i < kWarm; ++i) {
    const std::string warm = client.optimize(cfg, oo, bench, 0.0, &memo_hit);
    out.warm_all_memo_hits =
        out.warm_all_memo_hits && memo_hit && warm == oracle;
  }
  out.warm_rps = kWarm / seconds_since(t0);

  // The live metrics scrape (`stats` verb): cost of one observability
  // poll against a busy server, plus a sanity check that the payload
  // carries the per-request quantile histograms.
  constexpr int kStats = 50;
  out.stats_ok = true;
  t0 = Clock::now();
  for (int i = 0; i < kStats; ++i) {
    const std::optional<std::string> scrape = client.stats();
    out.stats_ok = out.stats_ok && scrape.has_value() &&
                   scrape->find("hist latency_ms") != std::string::npos &&
                   scrape->find("requests") != std::string::npos;
  }
  out.stats_rps = kStats / seconds_since(t0);

  stop.cancel();
  server.join();
  out.stats = stats;
  fs::remove_all(dir);
  return out;
}

/// Cross-process trace aggregation cost: synthetic worker shards in the
/// exporters' exact format (a supervisor + 8 workers, a few thousand
/// events each), merged with the same `obs::merge` path `tacos_cli
/// trace-merge` uses.  Reported as events merged per second, plus a
/// determinism check (two merges must agree byte for byte).
struct TelemetryBench {
  std::size_t shards = 0;
  std::size_t events = 0;
  double merge_ms = 0.0;
  double events_per_sec = 0.0;
  bool deterministic = false;
};

TelemetryBench run_telemetry_bench() {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "tacos_bench_trace_merge").string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  constexpr int kWorkers = 8;
  constexpr int kEventsPerShard = 2000;
  const auto write_shard = [&](const std::string& file,
                               std::uint64_t epoch_ms) {
    std::ofstream os(dir + "/" + file, std::ios::binary);
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"droppedEvents\":0,"
       << "\"epochMs\":" << epoch_ms << "},\n\"traceEvents\":[\n";
    for (int i = 0; i < kEventsPerShard; ++i) {
      os << "{\"name\":\"thermal.solve\",\"cat\":\"thermal\",\"ph\":\"X\","
         << "\"ts\":" << i * 50 << ",\"dur\":40,\"pid\":0,\"tid\":"
         << i % 4 << ",\"args\":{}}" << (i + 1 < kEventsPerShard ? ",\n" : "\n");
    }
    os << "]}\n";
  };
  write_shard("trace.json", 1000);
  for (int k = 0; k < kWorkers; ++k)
    write_shard("trace-w" + std::to_string(k) + ".json", 1000 + k);

  TelemetryBench out;
  obs::merge_trace_shards(dir);  // warm-up (excluded from timing)
  const auto t0 = Clock::now();
  const obs::TraceMergeResult a = obs::merge_trace_shards(dir);
  out.merge_ms = seconds_since(t0) * 1e3;
  const obs::TraceMergeResult b = obs::merge_trace_shards(dir);
  out.shards = a.shards.size();
  out.events = a.events;
  out.events_per_sec = a.events / std::max(1e-9, out.merge_ms / 1e3);
  out.deterministic = a.json == b.json;
  fs::remove_all(dir);
  return out;
}

std::string json_map(const std::vector<std::size_t>& keys,
                     const std::vector<double>& vals) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < keys.size(); ++i)
    os << (i ? ", " : "") << "\"" << keys[i] << "\": " << fmt(vals[i]);
  os << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsOptions obs_opts;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (obs_opts.parse_flag(arg)) continue;
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag: " << arg << "\nusage: " << argv[0]
                << " [out.json] [e2e_grid] [solver_grid]"
                << obs::ObsOptions::usage() << "\n";
      return 1;
    }
    pos.push_back(arg);
  }
  obs_opts.finalize();
  const std::string out_path =
      !pos.empty() ? pos[0] : "BENCH_eval_engine.json";
  const std::size_t e2e_grid =
      pos.size() > 1 ? static_cast<std::size_t>(std::stoul(pos[1])) : 24;
  const std::size_t solver_grid =
      pos.size() > 2 ? static_cast<std::size_t>(std::stoul(pos[2])) : 48;

  const std::size_t hw = ThreadPool::default_thread_count();
  // Always measure 1 and 2; top out at the machine (or TACOS_THREADS),
  // but no lower than 4 so the headline "N threads" column exists even
  // when the harness is smoke-tested on a small box.
  std::vector<std::size_t> counts = {1, 2, std::max<std::size_t>(4, hw)};

  std::vector<std::string> names;
  for (const auto& b : benchmarks()) names.emplace_back(b.name);

  std::vector<double> solver_rates, e2e_walls;
  std::vector<std::size_t> e2e_solves;
  bool solver_identical = true, e2e_identical = true;
  std::string solver_fp0, e2e_fp0;
  RunHealth health;  // merged across every e2e run (all thread counts)

  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::size_t n = counts[i];
    ThreadPool::set_global_threads(n);
    std::cerr << "[micro_eval_engine] threads=" << n << " solver micro...\n";
    const SolverRun s = run_solver_micro(solver_grid, 40);
    solver_rates.push_back(s.solves_per_sec);
    if (i == 0)
      solver_fp0 = s.fingerprint;
    else
      solver_identical = solver_identical && s.fingerprint == solver_fp0;

    std::cerr << "[micro_eval_engine] threads=" << n << " e2e optimizer...\n";
    const E2eRun e = run_e2e(e2e_grid, names);
    e2e_walls.push_back(e.wall_s);
    e2e_solves.push_back(e.stats.solves);
    health += e.stats.health;
    if (i == 0)
      e2e_fp0 = e.fingerprint;
    else
      e2e_identical = e2e_identical && e.fingerprint == e2e_fp0;
  }
  ThreadPool::set_global_threads(hw);

  std::cerr << "[micro_eval_engine] preconditioner A/B (grid 64)...\n";
  const PrecondAB ab = run_precond_ab(64);

  const LadderAB lab = run_ladder_ab(e2e_grid, names, counts, &health);
  ThreadPool::set_global_threads(hw);

  const RefineAB rab = run_refine_ab(e2e_grid, names, &health);
  ThreadPool::set_global_threads(hw);

  std::cerr << "[micro_eval_engine] evaluation-service round-trips...\n";
  const ServiceBench svc = run_service_bench(e2e_grid);

  std::cerr << "[micro_eval_engine] trace-merge on synthetic shards...\n";
  const TelemetryBench tel = run_telemetry_bench();

  const double speedup = e2e_walls.front() / e2e_walls.back();
  const double solver_speedup = solver_rates.back() / solver_rates.front();

  // The health block carries the per-subsystem request counters too:
  // `service.*` from the in-process server's drain stats and `fabric.*`
  // mirrors of the sweep-fabric fields, prefixed like the live metrics
  // registry names so the trajectory tooling can join them.
  std::string health_json = health.to_json();
  {
    std::ostringstream extra;
    extra << ", \"service.requests\": " << svc.stats.requests
          << ", \"service.served_ok\": " << svc.stats.served_ok
          << ", \"service.memo_hits\": " << svc.stats.memo_hits
          << ", \"service.shed\": " << svc.stats.shed
          << ", \"service.deadline_expired\": " << svc.stats.deadline_expired
          << ", \"service.eval_errors\": " << svc.stats.eval_errors
          << ", \"service.protocol_errors\": " << svc.stats.protocol_errors
          << ", \"fabric.leases_reclaimed\": " << health.leases_reclaimed
          << ", \"fabric.worker_restarts\": " << health.worker_restarts
          << ", \"fabric.poison_tasks\": " << health.poison_tasks;
    health_json.insert(health_json.size() - 1, extra.str());
  }

  // Atomic publish: a crash mid-write must not leave a truncated JSON
  // that the perf-trajectory tooling would read as a (bogus) regression.
  AtomicFile out_file(out_path);
  std::ostream& os = out_file.stream();
  os << "{\n"
     << "  \"harness\": \"micro_eval_engine\",\n"
     << "  \"hardware_concurrency\": " << hw << ",\n"
     << "  \"thread_counts\": [";
  for (std::size_t i = 0; i < counts.size(); ++i)
    os << (i ? ", " : "") << counts[i];
  os << "],\n"
     << "  \"solver\": {\n"
     << "    \"grid\": " << solver_grid << ",\n"
     << "    \"solves_per_sec\": " << json_map(counts, solver_rates) << ",\n"
     << "    \"speedup_max_vs_1\": " << fmt(solver_speedup) << ",\n"
     << "    \"bit_identical\": " << (solver_identical ? "true" : "false")
     << "\n  },\n"
     << "  \"optimizer_e2e\": {\n"
     << "    \"grid\": " << e2e_grid << ",\n"
     << "    \"benchmarks\": " << names.size() << ",\n"
     << "    \"thermal_solves\": " << e2e_solves.front() << ",\n"
     << "    \"wall_s\": " << json_map(counts, e2e_walls) << ",\n"
     << "    \"speedup_max_vs_1\": " << fmt(speedup) << ",\n"
     << "    \"bit_identical\": " << (e2e_identical ? "true" : "false")
     << "\n  },\n"
     << "  \"preconditioner\": {\n"
     << "    \"grid\": " << ab.grid << ",\n"
     << "    \"jacobi_iters\": " << ab.jacobi_iters << ",\n"
     << "    \"mg_iters\": " << ab.mg_iters << ",\n"
     << "    \"iters_ratio\": " << fmt(ab.iters_ratio) << ",\n"
     << "    \"mg_levels\": " << ab.mg_levels << ",\n"
     << "    \"max_tile_diff_c\": " << fmt(ab.max_tile_diff_c) << ",\n"
     << "    \"temps_match\": " << (ab.temps_match ? "true" : "false")
     << "\n  },\n"
     << "  \"fidelity_ladder\": {\n"
     << "    \"grid\": " << e2e_grid << ",\n"
     << "    \"step_mm\": 0.5,\n"
     << "    \"full\": {\"wall_s\": " << fmt(lab.full_wall_s)
     << ", \"solves\": " << lab.full_stats.solves
     << ", \"evals\": " << lab.full_stats.evals << "},\n"
     << "    \"ladder\": {\"wall_s\": " << fmt(lab.ladder_wall_s)
     << ", \"solves\": " << lab.ladder_stats.solves
     << ", \"evals\": " << lab.ladder_stats.evals << "},\n"
     << "    \"screened\": " << lab.ladder_stats.ladder.screened << ",\n"
     << "    \"rejected\": " << lab.ladder_stats.ladder.rejected << ",\n"
     << "    \"promoted\": " << lab.ladder_stats.ladder.promoted << ",\n"
     << "    \"audits\": " << lab.ladder_stats.ladder.audits << ",\n"
     << "    \"medium_solves\": " << lab.ladder_stats.ladder.medium_solves
     << ",\n"
     << "    \"rungs\": {\"medium\": {\"wall_s\": "
     << fmt(lab.medium_rung.wall_s) << ", \"calls\": " << lab.medium_rung.calls
     << "}, \"full\": {\"wall_s\": " << fmt(lab.full_rung.wall_s)
     << ", \"calls\": " << lab.full_rung.calls << "}},\n"
     << "    \"full_solve_reduction\": " << fmt(lab.solve_reduction) << ",\n"
     << "    \"e2e_speedup_vs_full\": " << fmt(lab.speedup) << ",\n"
     << "    \"winner_match\": " << (lab.winner_match ? "true" : "false")
     << ",\n"
     << "    \"bit_identical_across_threads\": "
     << (lab.bit_identical ? "true" : "false") << "\n  },\n"
     << "  \"refine\": {\n"
     << "    \"grid\": " << e2e_grid << ",\n"
     << "    \"step_mm\": 2,\n"
     << "    \"grid_only\": {\"wall_s\": " << fmt(rab.grid_wall_s)
     << ", \"solves\": " << rab.grid_stats.solves << "},\n"
     << "    \"refined\": {\"wall_s\": " << fmt(rab.refine_wall_s)
     << ", \"solves\": " << rab.refine_stats.solves << "},\n"
     << "    \"winners_found\": " << rab.found << ",\n"
     << "    \"winners_refined\": " << rab.refined << ",\n"
     << "    \"attempted\": " << rab.refine_stats.refine.attempted << ",\n"
     << "    \"accepted_steps\": " << rab.refine_stats.refine.steps << ",\n"
     << "    \"trials\": " << rab.refine_stats.refine.trials << ",\n"
     << "    \"adjoint_solves\": " << rab.refine_stats.refine.adjoint_solves
     << ",\n"
     << "    \"extra_solve_frac\": " << fmt(rab.extra_solve_frac) << ",\n"
     << "    \"max_peak_drop_c\": " << fmt(rab.max_peak_drop_c) << ",\n"
     << "    \"sum_peak_drop_c\": " << fmt(rab.sum_peak_drop_c) << ",\n"
     << "    \"never_worse\": " << (rab.never_worse ? "true" : "false")
     << "\n  },\n"
     << "  \"service\": {\n"
     << "    \"grid\": " << e2e_grid << ",\n"
     << "    \"ping_round_trips_per_sec\": " << fmt(svc.ping_rps) << ",\n"
     << "    \"cold_optimize_ms\": " << fmt(svc.cold_ms) << ",\n"
     << "    \"warm_memo_hits_per_sec\": " << fmt(svc.warm_rps) << ",\n"
     << "    \"stats_scrapes_per_sec\": " << fmt(svc.stats_rps) << ",\n"
     << "    \"requests\": " << svc.stats.requests << ",\n"
     << "    \"memo_hits\": " << svc.stats.memo_hits << ",\n"
     << "    \"payload_matches_local\": "
     << (svc.payload_matches_local ? "true" : "false") << ",\n"
     << "    \"warm_all_memo_hits\": "
     << (svc.warm_all_memo_hits ? "true" : "false") << ",\n"
     << "    \"stats_ok\": " << (svc.stats_ok ? "true" : "false")
     << "\n  },\n"
     << "  \"telemetry\": {\n"
     << "    \"merge_shards\": " << tel.shards << ",\n"
     << "    \"merge_events\": " << tel.events << ",\n"
     << "    \"merge_ms\": " << fmt(tel.merge_ms) << ",\n"
     << "    \"merge_events_per_sec\": " << fmt(tel.events_per_sec) << ",\n"
     << "    \"merge_deterministic\": "
     << (tel.deterministic ? "true" : "false") << "\n  },\n"
     << "  \"health\": " << health_json << "\n}\n";
  out_file.commit();

  std::cout << "solver: " << fmt(solver_rates.front()) << " -> "
            << fmt(solver_rates.back()) << " solves/s ("
            << fmt(solver_speedup) << "x), bit_identical="
            << (solver_identical ? "yes" : "NO") << "\n"
            << "e2e optimizer (" << names.size() << " benchmarks): "
            << fmt(e2e_walls.front()) << " s -> " << fmt(e2e_walls.back())
            << " s (" << fmt(speedup) << "x at " << counts.back()
            << " threads), bit_identical=" << (e2e_identical ? "yes" : "NO")
            << "\n"
            << "preconditioner (grid " << ab.grid
            << "): jacobi=" << ab.jacobi_iters << " iters, mg=" << ab.mg_iters
            << " iters (" << fmt(ab.iters_ratio) << "x, " << ab.mg_levels
            << " levels), temps_match=" << (ab.temps_match ? "yes" : "NO")
            << "\n"
            << "fidelity ladder (step 0.5): " << fmt(lab.full_wall_s)
            << " s full -> " << fmt(lab.ladder_wall_s) << " s ladder ("
            << fmt(lab.speedup) << "x), full solves "
            << lab.full_stats.solves << " -> " << lab.ladder_stats.solves
            << " (-" << fmt(100.0 * lab.solve_reduction)
            << "%), winner_match=" << (lab.winner_match ? "yes" : "NO")
            << ", bit_identical=" << (lab.bit_identical ? "yes" : "NO")
            << "\n"
            << "refine (step 2): " << rab.refined << "/" << rab.found
            << " winners moved off-grid, peak drop max " << fmt(rab.max_peak_drop_c)
            << " C / sum " << fmt(rab.sum_peak_drop_c) << " C, "
            << rab.refine_stats.refine.adjoint_solves << " adjoint solve(s), +"
            << fmt(100.0 * rab.extra_solve_frac)
            << "% solves, never_worse=" << (rab.never_worse ? "yes" : "NO")
            << "\n"
            << "service: ping " << fmt(svc.ping_rps) << " rt/s, cold optimize "
            << fmt(svc.cold_ms) << " ms, warm memo " << fmt(svc.warm_rps)
            << " rt/s, stats scrape " << fmt(svc.stats_rps)
            << " rt/s, payload_match="
            << (svc.payload_matches_local ? "yes" : "NO") << ", all_memo_hits="
            << (svc.warm_all_memo_hits ? "yes" : "NO") << ", stats_ok="
            << (svc.stats_ok ? "yes" : "NO") << "\n"
            << "telemetry: merged " << tel.events << " events from "
            << tel.shards << " shards in " << fmt(tel.merge_ms) << " ms ("
            << fmt(tel.events_per_sec) << " ev/s), deterministic="
            << (tel.deterministic ? "yes" : "NO") << "\n"
            << "wrote " << out_path << "\n";
  std::cerr << "[micro_eval_engine] " << health.summary() << "\n";
  obs::record_run_health(health);
  if (obs_opts.any()) obs_opts.publish();
  return (solver_identical && e2e_identical && ab.temps_match &&
          lab.winner_match && lab.bit_identical && rab.never_worse &&
          svc.payload_matches_local && svc.warm_all_memo_hits &&
          svc.stats_ok && tel.deterministic)
             ? 0
             : 1;
}
