#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/optimizer.hpp"
#include "floorplan/layout.hpp"
#include "materials/stack.hpp"
#include "thermal/grid_model.hpp"

namespace tacos {
namespace {

// The determinism contract of the parallel evaluation engine: every result
// — solver fields, chosen organizations, objective values — is
// byte-identical at 1, 2, and 8 threads (fixed-chunk reductions in the
// solver; one Evaluator shard and one seeded Rng per task in the batch
// runner, per rng.hpp's "parallel experiment runners" contract).
//
// These tests are also the TSan targets for the thread pool and the
// sharded evaluators (see .github/workflows/ci.yml).

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() {
    ThreadPool::set_global_threads(ThreadPool::default_thread_count());
  }
};

PowerMap uniform_power(const ChipletLayout& l, double total_w) {
  PowerMap p;
  for (const auto& c : l.chiplets()) p.add(c.rect, total_w / l.chiplet_count());
  return p;
}

/// Cold-start solve at `threads` pool threads with an explicit
/// preconditioner choice; returns the exact tile temperatures.  Grid 40 →
/// ~12.8k unknowns, above the solver's parallel threshold, so the
/// row-partitioned kernels actually engage (and, for kMultigrid, the
/// V-cycle's chunked smoothing runs on the pool too).
std::vector<double> solve_at(std::size_t threads, PrecondKind precond) {
  ThreadPool::set_global_threads(threads);
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 40;
  cfg.solve.precond = precond;
  ThermalModel model(l, make_25d_stack(), cfg);
  model.solve(uniform_power(l, 300.0));
  return model.tile_temperatures();
}

/// `run(threads)` returns temperatures; they must be bit-identical at 1, 2
/// and 8 threads.
template <typename Run>
void expect_bit_identical_across_threads(Run run) {
  const std::vector<double> t1 = run(1);
  const std::vector<double> t2 = run(2);
  const std::vector<double> t8 = run(8);
  ASSERT_EQ(t1.size(), t2.size());
  ASSERT_EQ(t1.size(), t8.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    // Exact equality on doubles is the point of the chunked reductions.
    EXPECT_EQ(t1[i], t2[i]) << "value " << i;
    EXPECT_EQ(t1[i], t8[i]) << "value " << i;
  }
}

TEST(ParallelDeterminism, SolverBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  expect_bit_identical_across_threads(
      [](std::size_t t) { return solve_at(t, PrecondKind::kJacobi); });
}

TEST(ParallelDeterminism, MultigridSolveBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  expect_bit_identical_across_threads(
      [](std::size_t t) { return solve_at(t, PrecondKind::kMultigrid); });
}

/// Ten multigrid transient steps from ambient at `threads` pool threads
/// (grid 40, so the hierarchy's fine level and its column solves run on
/// the pool); returns the exact tile temperatures after every step.
std::vector<double> steps_at(std::size_t threads) {
  ThreadPool::set_global_threads(threads);
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 40;
  cfg.solve.precond = PrecondKind::kMultigrid;
  ThermalModel model(l, make_25d_stack(), cfg);
  model.reset_to_ambient();
  std::vector<double> out;
  for (int k = 0; k < 10; ++k) {
    model.step_transient(uniform_power(l, k % 2 == 0 ? 300.0 : 150.0), 0.25);
    const std::vector<double> t = model.tile_temperatures();
    out.insert(out.end(), t.begin(), t.end());
  }
  return out;
}

TEST(ParallelDeterminism, MultigridTransientStepsBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  expect_bit_identical_across_threads(steps_at);
}

TEST(ParallelDeterminism, JacobiAndMultigridAgreeWithinTolerance) {
  ThreadCountGuard guard;
  const std::vector<double> tj = solve_at(4, PrecondKind::kJacobi);
  const std::vector<double> tm = solve_at(4, PrecondKind::kMultigrid);
  ASSERT_EQ(tj.size(), tm.size());
  for (std::size_t i = 0; i < tj.size(); ++i)
    EXPECT_NEAR(tj[i], tm[i], 1e-4) << "tile " << i;
}

EvalConfig small_config() {
  EvalConfig c;
  c.thermal.grid_nx = c.thermal.grid_ny = 12;
  return c;
}

OptimizerOptions small_options() {
  OptimizerOptions o;
  o.step_mm = 4.0;
  o.starts = 3;
  return o;
}

std::vector<std::string> test_benchmarks() {
  std::vector<std::string> names;
  for (const auto& n : representative_benchmarks()) names.emplace_back(n);
  return names;
}

std::string batch_fingerprint(std::size_t threads, EvalStats* stats) {
  ThreadPool::set_global_threads(threads);
  const std::vector<OptResult> results = optimize_greedy_batch(
      small_config(), test_benchmarks(), small_options(), stats);
  std::ostringstream fp;
  fp.precision(17);
  for (const OptResult& r : results) {
    fp << r.found << "|" << r.org.n_chiplets << "|" << r.org.spacing.s1 << "|"
       << r.org.spacing.s2 << "|" << r.org.spacing.s3 << "|" << r.org.dvfs_idx
       << "|" << r.org.active_cores << "|" << r.objective << "|" << r.ips
       << "\n";
  }
  return fp.str();
}

TEST(ParallelDeterminism, OptimizerBatchBitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  EvalStats s1, s2, s8;
  const std::string f1 = batch_fingerprint(1, &s1);
  const std::string f2 = batch_fingerprint(2, &s2);
  const std::string f8 = batch_fingerprint(8, &s8);
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(f1, f8);
  // The merged counters are sums over per-task shards — identical work
  // happens at every thread count.
  EXPECT_EQ(s1.solves, s2.solves);
  EXPECT_EQ(s1.solves, s8.solves);
  EXPECT_EQ(s1.evals, s8.evals);
  EXPECT_GT(s1.solves, 0u);
}

std::string refined_fingerprint(std::size_t threads, EvalStats* stats) {
  ThreadPool::set_global_threads(threads);
  OptimizerOptions o = small_options();
  o.refine = true;
  o.chiplet_counts = {16};  // every winner enters the refinement stage
  const std::vector<OptResult> results = optimize_greedy_batch(
      small_config(), test_benchmarks(), o, stats);
  std::ostringstream fp;
  fp.precision(17);
  for (const OptResult& r : results) {
    fp << r.found << "|" << r.org.spacing.s1 << "|" << r.org.spacing.s2
       << "|" << r.org.spacing.s3 << "|" << r.peak_c << "|" << r.refined
       << "|" << r.refine_steps << "|" << r.grid_spacing.s1 << "|"
       << r.grid_spacing.s2 << "|" << r.grid_spacing.s3 << "|"
       << r.peak_grid_c << "\n";
  }
  return fp.str();
}

TEST(ParallelDeterminism, RefinedSweepBitIdenticalAcrossThreadCounts) {
  // The refinement stage is RNG-free and sequential per task, so refined
  // spacings — including every off-grid digit — and the refine counters
  // must be byte-identical at any thread count.
  ThreadCountGuard guard;
  EvalStats s1, s2, s8;
  const std::string f1 = refined_fingerprint(1, &s1);
  const std::string f2 = refined_fingerprint(2, &s2);
  const std::string f8 = refined_fingerprint(8, &s8);
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(f1, f8);
  EXPECT_EQ(s1.refine.attempted, s2.refine.attempted);
  EXPECT_EQ(s1.refine.attempted, s8.refine.attempted);
  EXPECT_EQ(s1.refine.steps, s8.refine.steps);
  EXPECT_EQ(s1.refine.trials, s8.refine.trials);
  EXPECT_EQ(s1.refine.adjoint_solves, s8.refine.adjoint_solves);
  EXPECT_GT(s1.refine.attempted, 0u);
}

TEST(ParallelDeterminism, BatchMatchesSerialPerBenchmarkRuns) {
  ThreadCountGuard guard;
  ThreadPool::set_global_threads(4);
  const std::vector<OptResult> batch = optimize_greedy_batch(
      small_config(), test_benchmarks(), small_options(), nullptr);
  ASSERT_EQ(batch.size(), test_benchmarks().size());
  std::size_t i = 0;
  for (const std::string& name : test_benchmarks()) {
    Evaluator eval(small_config());
    const OptResult serial =
        optimize_greedy(eval, benchmark_by_name(name), small_options());
    EXPECT_EQ(batch[i].found, serial.found) << name;
    EXPECT_EQ(batch[i].org, serial.org) << name;
    EXPECT_EQ(batch[i].objective, serial.objective) << name;
    ++i;
  }
}

std::string combos_fingerprint(std::size_t threads) {
  ThreadPool::set_global_threads(threads);
  Evaluator eval(small_config());
  const auto combos =
      enumerate_combos(eval, benchmark_by_name("cholesky"), 1000.0,
                       eval.cost_2d(), small_options());
  std::ostringstream fp;
  fp.precision(17);
  for (const Combo& c : combos)
    fp << c.dvfs_idx << "|" << c.active_cores << "|" << c.n_chiplets << "|"
       << c.interposer_mm << "|" << c.ips << "|" << c.cost << "|"
       << c.objective << "\n";
  return fp.str();
}

TEST(ParallelDeterminism, EnumerateCombosByteIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  const std::string f1 = combos_fingerprint(1);
  EXPECT_EQ(f1, combos_fingerprint(2));
  EXPECT_EQ(f1, combos_fingerprint(8));
}

}  // namespace
}  // namespace tacos
