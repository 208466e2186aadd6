#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/journal.hpp"
#include "common/thread_pool.hpp"
#include "core/optimizer.hpp"
#include "thermal/grid_model.hpp"

namespace tacos {
namespace {

// Fidelity-ladder contract (docs/PERFORMANCE.md): the medium rung may only
// *reject* candidates, and only with calibrated margin; every ambiguous
// candidate is promoted to the exact full evaluation, and the committed
// winner is always backed by one, so it is feasible at full fidelity; on
// every tested sweep it also keeps full fidelity's combination and
// objective, though its spacings may differ.  The ladder must promote
// everything on a cold start, survive injected medium-rung failures, and
// stay bit-identical at any thread count (including its journal encoding).

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() {
    ThreadPool::set_global_threads(ThreadPool::default_thread_count());
  }
};

EvalConfig fast_config(std::size_t grid = 16) {
  EvalConfig c;
  c.thermal.grid_nx = c.thermal.grid_ny = grid;
  return c;
}

EvalConfig ladder_config(std::size_t grid = 16) {
  EvalConfig c = fast_config(grid);
  c.ladder.mode = FidelityMode::kLadder;
  return c;
}

OptimizerOptions fast_opts(double threshold_c = 85.0) {
  OptimizerOptions oo;
  oo.step_mm = 2.0;
  oo.threshold_c = threshold_c;
  return oo;
}

const BenchmarkProfile& cholesky() { return benchmark_by_name("cholesky"); }

// --- Cold start: no calibration data, everything promotes. ---------------

TEST(Ladder, ColdStartPromotesEverything) {
  Evaluator eval(ladder_config());
  const Organization hot{16, {0.5, 0.25, 0.5}, 0, 256};
  // Even against an absurdly low bound, an uncalibrated ladder must not
  // reject: no residual bounds yet.
  EXPECT_FALSE(eval.screen_infeasible(hot, cholesky(), 40.0));
  EXPECT_GE(eval.ladder_stats().screened, 1u);
  EXPECT_EQ(eval.ladder_stats().rejected, 0u);
  // The walk-grade path likewise falls through to the exact evaluation.
  const Evaluator::WalkEval w = eval.walk_eval(hot, cholesky(), 85.0);
  EXPECT_TRUE(w.exact);
  EXPECT_EQ(eval.ladder_stats().rejected, 0u);

  // --fidelity=auto is the ladder exactly when the medium rung exists: at
  // grid 12 the half-resolution edge (6) is below medium_grid_min (8).
  for (const std::size_t grid : {12u, 16u}) {
    SCOPED_TRACE("grid=" + std::to_string(grid));
    EvalConfig c = fast_config(grid);
    c.ladder.mode = FidelityMode::kAuto;
    Evaluator e(c);
    const bool on = grid == 16;
    EXPECT_EQ(e.ladder_active(), on);
    EXPECT_EQ(e.config().ladder.mode,
              on ? FidelityMode::kLadder : FidelityMode::kFull);
    EXPECT_FALSE(e.screen_infeasible(hot, cholesky(), 40.0));
    EXPECT_EQ(e.ladder_stats().screened, on ? 1u : 0u);
  }
}

// --- Winner parity on the CI smoke's settings (grid 16, step 2). --------

TEST(Ladder, WinnerInvariantAcrossFidelityModes) {
  Rng dummy(0);
  for (const double threshold : {80.0, 85.0, 90.0}) {
    Evaluator full(fast_config());
    Evaluator ladder(ladder_config());
    const OptResult rf = optimize_greedy(full, cholesky(),
                                         fast_opts(threshold));
    const OptResult rl = optimize_greedy(ladder, cholesky(),
                                         fast_opts(threshold));
    SCOPED_TRACE("threshold=" + std::to_string(threshold));
    ASSERT_EQ(rf.found, rl.found);
    if (!rf.found) continue;
    EXPECT_EQ(rf.org.n_chiplets, rl.org.n_chiplets);
    EXPECT_EQ(rf.org.spacing.s1, rl.org.spacing.s1);
    EXPECT_EQ(rf.org.spacing.s2, rl.org.spacing.s2);
    EXPECT_EQ(rf.org.spacing.s3, rl.org.spacing.s3);
    EXPECT_EQ(rf.org.dvfs_idx, rl.org.dvfs_idx);
    EXPECT_EQ(rf.org.active_cores, rl.org.active_cores);
    // Objective depends only on the combo, so it is bit-identical; the
    // winner's peak re-solves from a different warm-start history, so it
    // only agrees to solver tolerance.
    EXPECT_EQ(rf.objective, rl.objective);
    EXPECT_NEAR(rf.peak_c, rl.peak_c, 1e-6);
    // The ladder actually did something on this workload (grid 16 keeps
    // the medium rung active), and the winner's verdict was exact.
    EXPECT_GE(ladder.ladder_stats().screened, 1u);
  }
}

// --- Determinism: bit-identical rows at any thread count. ----------------

TEST(Ladder, BatchBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  std::vector<std::string> names;
  for (const auto& b : benchmarks()) {
    names.emplace_back(b.name);
    if (names.size() == 3) break;
  }
  std::string fp0;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool::set_global_threads(threads);
    EvalStats merged;
    const std::vector<OptResult> rows =
        optimize_greedy_batch(ladder_config(), names, fast_opts(), &merged);
    ASSERT_EQ(rows.size(), names.size());
    // The journal codec renders every field (doubles at %.17g), so equal
    // encodings mean bit-identical rows AND bit-identical merged stats —
    // including every ladder counter.
    std::string fp;
    for (const OptResult& r : rows) fp += encode_opt_result(r, merged);
    if (fp0.empty())
      fp0 = fp;
    else
      EXPECT_EQ(fp, fp0) << "threads=" << threads;
    EXPECT_TRUE(merged.ladder.any());
  }
}

// --- What the ladder guarantees against full fidelity. -------------------

TEST(Ladder, DifferentialAgainstFullKeepsCombinationAndFeasibility) {
  // At a 1 mm step the walk's estimate-ordered descent can stop at other
  // spacings than the full walk (hpccg here: the full walk commits one
  // placement, the ladder walk another with the same combination).  What
  // holds is the combination, the objective and a winner verified
  // feasible at full fidelity — not the spacings.
  OptimizerOptions oo = fast_opts();
  oo.step_mm = 1.0;
  const BenchmarkProfile& hpccg = benchmark_by_name("hpccg");
  Evaluator full(fast_config(24));
  Evaluator ladder(ladder_config(24));
  const OptResult rf = optimize_greedy(full, hpccg, oo);
  const OptResult rl = optimize_greedy(ladder, hpccg, oo);
  ASSERT_TRUE(rf.found);
  ASSERT_TRUE(rl.found);
  EXPECT_EQ(rl.org.n_chiplets, rf.org.n_chiplets);
  EXPECT_EQ(rl.org.dvfs_idx, rf.org.dvfs_idx);
  EXPECT_EQ(rl.org.active_cores, rf.org.active_cores);
  EXPECT_EQ(rl.objective, rf.objective);
  EXPECT_GT(ladder.ladder_stats().rejected, 0u);
  // An independent full-fidelity evaluation of the ladder's winner.
  Evaluator check(fast_config(24));
  const ThermalEval& ev = check.thermal_eval(rl.org, hpccg);
  EXPECT_TRUE(ev.leak_converged);
  EXPECT_LE(ev.peak_c, oo.threshold_c);
  EXPECT_NEAR(ev.peak_c, rl.peak_c, 1e-6);
}

// --- Fault injection: a failing medium rung degrades to promotion. -------

TEST(Ladder, MediumRungFailuresPromoteWithoutChangingWinner) {
  Evaluator clean(ladder_config());
  EvalConfig faulted_cfg = ladder_config();
  // Every 10th screening solve fails: some estimates fail, the rest still
  // screen.
  faulted_cfg.thermal.solve.fault.screen_fail_every = 10;
  Evaluator faulted(faulted_cfg);

  const OptResult rc = optimize_greedy(clean, cholesky(), fast_opts());
  const OptResult rf = optimize_greedy(faulted, cholesky(), fast_opts());

  EXPECT_GT(clean.ladder_stats().medium_solves, 0u);
  EXPECT_EQ(clean.ladder_stats().medium_failures, 0u);
  EXPECT_GT(faulted.ladder_stats().medium_failures, 0u);
  EXPECT_GT(faulted.ladder_stats().rejected, 0u);
  // Screening faults run on the medium models' own solve clock: the full
  // path sees no failure at all.
  EXPECT_EQ(faulted.health().solve_failures, 0u);
  // A medium-rung failure is not an error: the candidate is promoted, so
  // the search commits the same organization.
  ASSERT_EQ(rc.found, rf.found);
  ASSERT_TRUE(rc.found);
  EXPECT_EQ(rc.org.spacing.s1, rf.org.spacing.s1);
  EXPECT_EQ(rc.org.spacing.s2, rf.org.spacing.s2);
  EXPECT_EQ(rc.org.spacing.s3, rf.org.spacing.s3);
  EXPECT_EQ(rc.org.dvfs_idx, rf.org.dvfs_idx);
  EXPECT_EQ(rc.org.active_cores, rf.org.active_cores);
  EXPECT_EQ(rc.objective, rf.objective);
}

// --- Journal codec: rung metadata rides with the row. --------------------

TEST(Ladder, JournalRoundTripsLadderStats) {
  OptResult r;
  r.found = true;
  r.org = Organization{16, {1.0 / 3.0, 0.25, 2.0 / 7.0}, 2, 192};
  r.ips = 123.456;
  r.cost = 78.9;
  r.objective = 1.0 / 3.0;
  r.peak_c = 84.9999;
  r.combos_tried = 17;
  r.thermal_solves = 412;
  EvalStats s;
  s.solves = 412;
  s.evals = 33;
  s.ladder.screened = 10;
  s.ladder.rejected = 4;
  s.ladder.promoted = 6;
  s.ladder.medium_solves = 40;
  s.ladder.medium_failures = 3;

  const std::string payload = encode_opt_result(r, s);
  // Ten fields; the retired audit slot and surrogate/coarse counters are
  // written as 0.
  const std::string line = "\nladder 10 4 6 0 0 0 0 0 40 3\n";
  const std::size_t at = payload.find(line);
  ASSERT_NE(at, std::string::npos);
  // A row written while the keep-frac audit existed carries a count in
  // the retired slot; decoding ignores it.
  std::string audited = payload;
  audited.replace(at, line.size(), "\nladder 10 4 6 1 0 0 0 0 40 3\n");
  for (const std::string& p : {payload, audited}) {
    OptResult r2;
    EvalStats s2;
    ASSERT_TRUE(decode_opt_result(p, &r2, &s2));
    EXPECT_EQ(r2.org.spacing.s1, r.org.spacing.s1);
    EXPECT_EQ(r2.org.spacing.s3, r.org.spacing.s3);
    EXPECT_EQ(r2.objective, r.objective);
    EXPECT_EQ(s2.ladder.screened, s.ladder.screened);
    EXPECT_EQ(s2.ladder.rejected, s.ladder.rejected);
    EXPECT_EQ(s2.ladder.promoted, s.ladder.promoted);
    EXPECT_EQ(s2.ladder.medium_solves, s.ladder.medium_solves);
    EXPECT_EQ(s2.ladder.medium_failures, s.ladder.medium_failures);
    EXPECT_EQ(encode_opt_result(r2, s2), payload);
  }
}

TEST(Ladder, ResumesJournalWrittenWithRetiredRungs) {
  // A ladder batch journal (grid 16, step 2, cholesky + hpccg) as written
  // while the surrogate and coarse-solve rungs existed, byte for byte: its
  // ladder lines carry non-zero counters in fields 5-8.  Resuming it must
  // bind its meta row — batch_meta is unchanged — and replay both rows
  // instead of recomputing them, with the retired counters read as zero.
  const std::string journal_lines[] = {
      R"({"task":"meta:optimize_greedy_batch","crc":2697792816,"data":"grid=16x16 alpha=1 beta=0 threshold=85 step=2 starts=10 max_moves=400 seed=2018 prune=6 fidelity=ladder keep_frac=0 min_calib=5 ladder_margin=1 n=4,16 benches=cholesky,hpccg"})",
      R"({"task":"optimize:cholesky","crc":1851966047,"data":"found 1\norg 16 4 4 4 0 256\nmetrics 183585.65737051793 44.43015692234961 0.55911045840763673 83.921950540414315\ncounts 14 125\nquarantined 0\nstats 125 26\nhealth 0 0 0 0 0 0 0 0 0\nladder 41 14 27 0 12 10 21 0 160 0\n"})",
      R"({"task":"optimize:hpccg","crc":1924026258,"data":"found 1\norg 16 0 2 8 0 256\nmetrics 127152.31788079471 41.028981178042379 0.71604704097116834 84.555406371297451\ncounts 10 86\nquarantined 0\nstats 86 18\nhealth 0 0 0 0 0 0 0 0 0\nladder 20 2 18 0 8 8 16 0 79 0\n"})",
  };
  const std::string dir = testing::TempDir() + "tacos_ladder_retired_resume";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/journal.jsonl", std::ios::binary);
    for (const std::string& line : journal_lines) out << line << '\n';
  }
  RunJournal journal(dir);
  EXPECT_EQ(journal.load().loaded, 3u);
  const RunControl run{&journal, nullptr, 0.0};
  EvalStats merged;
  const std::vector<OptResult> rows = optimize_greedy_batch(
      ladder_config(), {"cholesky", "hpccg"}, fast_opts(), &merged, &run);
  EXPECT_EQ(journal.task_count(), 2u);  // replayed, nothing appended
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].org.spacing.s1, 4.0);
  EXPECT_EQ(rows[0].objective, 0.55911045840763673);
  EXPECT_EQ(rows[1].org.spacing.s3, 8.0);
  EXPECT_EQ(rows[1].peak_c, 84.555406371297451);
  EXPECT_EQ(merged.solves, 125u + 86u);
  EXPECT_EQ(merged.ladder.screened, 41u + 20u);
  EXPECT_EQ(merged.ladder.medium_solves, 160u + 79u);
  EXPECT_EQ(merged.ladder.surrogate_scores, 0u);
  EXPECT_EQ(merged.ladder.coarse_solves, 0u);
  std::filesystem::remove_all(dir);
}

TEST(Ladder, PreLadderJournalRowsDecodeWithZeroStats) {
  // Full-mode rows (and rows written before the ladder existed) carry no
  // "ladder" line; decoding must tolerate that and yield zero counters.
  OptResult r;
  r.found = false;
  EvalStats s;
  s.solves = 7;
  s.evals = 1;
  const std::string payload = encode_opt_result(r, s);
  EXPECT_EQ(payload.find("ladder "), std::string::npos);
  OptResult r2;
  EvalStats s2;
  s2.ladder.screened = 99;  // stale state must be cleared by decode
  ASSERT_TRUE(decode_opt_result(payload, &r2, &s2));
  EXPECT_FALSE(s2.ladder.any());
  EXPECT_EQ(s2.solves, 7u);
}

}  // namespace
}  // namespace tacos
