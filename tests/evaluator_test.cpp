#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/errors.hpp"
#include "core/evaluator.hpp"
#include "core/optimizer.hpp"
#include "obs/metrics.hpp"

namespace tacos {
namespace {

EvalConfig fast_config(std::size_t grid = 16) {
  EvalConfig c;
  c.thermal.grid_nx = c.thermal.grid_ny = grid;
  return c;
}

const BenchmarkProfile& cholesky() { return benchmark_by_name("cholesky"); }

TEST(Organization, LayoutDispatch) {
  EXPECT_EQ(layout_for(Organization{1, {}, 0, 256}).chiplet_count(), 1);
  EXPECT_EQ(layout_for(Organization{4, {0, 0, 2.0}, 0, 256}).chiplet_count(),
            4);
  EXPECT_EQ(
      layout_for(Organization{16, {1.0, 1.0, 2.0}, 0, 256}).chiplet_count(),
      16);
  EXPECT_THROW(layout_for(Organization{9, {}, 0, 256}), Error);
}

TEST(Organization, InterposerEdge) {
  EXPECT_NEAR(interposer_edge_of(Organization{1, {}, 0, 256}), 18.0, 1e-9);
  EXPECT_NEAR(interposer_edge_of(Organization{4, {0, 0, 5.0}, 0, 256}), 25.0,
              1e-9);
  EXPECT_NEAR(interposer_edge_of(Organization{16, {2.0, 0, 3.0}, 0, 256}),
              27.0, 1e-9);
}

TEST(Evaluator, ThermalEvalIsMemoized) {
  Evaluator eval(fast_config());
  const Organization org{16, {1.0, 0.5, 1.0}, 0, 128};
  const ThermalEval& a = eval.thermal_eval(org, cholesky());
  const std::size_t evals = eval.eval_count();
  const std::size_t solves = eval.solve_count();
  const ThermalEval& b = eval.thermal_eval(org, cholesky());
  EXPECT_EQ(eval.eval_count(), evals);    // no new evaluation
  EXPECT_EQ(eval.solve_count(), solves);  // no new solves
  EXPECT_DOUBLE_EQ(a.peak_c, b.peak_c);
}

TEST(Evaluator, FrontierAvoidsRedundantSimulations) {
  Evaluator eval(fast_config());
  const Organization hot{16, {0.5, 0.25, 0.5}, 0, 256};   // 1 GHz
  const Organization cool{16, {0.5, 0.25, 0.5}, 4, 256};  // 320 MHz
  // Evaluate the hot case exactly; if it is already below the threshold,
  // the cooler case at the same layout/active-set must be decidable with
  // no extra simulation.
  const double hot_peak = eval.thermal_eval(hot, cholesky()).peak_c;
  const double threshold = hot_peak + 10.0;
  const std::size_t evals = eval.eval_count();
  EXPECT_TRUE(eval.feasible(cool, cholesky(), threshold));
  EXPECT_EQ(eval.eval_count(), evals);
}

TEST(Evaluator, FrontierInfeasibleShortcut) {
  Evaluator eval(fast_config());
  const Organization cool{16, {0.5, 0.25, 0.5}, 4, 256};
  const Organization hot{16, {0.5, 0.25, 0.5}, 0, 256};
  const double cool_peak = eval.thermal_eval(cool, cholesky()).peak_c;
  const std::size_t evals = eval.eval_count();
  // Anything strictly below the cool case's peak is infeasible for the
  // hotter configuration too — no simulation needed.
  EXPECT_FALSE(eval.feasible(hot, cholesky(), cool_peak - 5.0));
  EXPECT_EQ(eval.eval_count(), evals);
}

TEST(Evaluator, FeasibleMatchesExactEvaluationNearThreshold) {
  Evaluator eval(fast_config(24));
  const Organization org{16, {2.0, 1.0, 2.0}, 0, 224};
  const double peak = eval.thermal_eval(org, cholesky()).peak_c;
  EXPECT_TRUE(eval.feasible(org, cholesky(), peak + 0.1));
  EXPECT_FALSE(eval.feasible(org, cholesky(), peak - 0.1));
}

TEST(Evaluator, CostMatchesCostModel) {
  Evaluator eval(fast_config());
  const Organization org{16, {1.0, 1.0, 1.0}, 0, 256};
  const double edge = interposer_edge_of(org);
  EXPECT_NEAR(eval.cost(org),
              system_cost_25d(16, 4.5 * 4.5, edge * edge), 1e-9);
  EXPECT_NEAR(eval.cost_2d(), single_chip_cost(324.0), 1e-9);
  EXPECT_NEAR(eval.cost(Organization{1, {}, 0, 256}), eval.cost_2d(), 1e-12);
}

TEST(Evaluator, IpsMatchesPerfModel) {
  Evaluator eval(fast_config());
  const Organization org{4, {0, 0, 3.0}, 2, 128};
  EXPECT_NEAR(eval.ips(org, cholesky()),
              system_ips(cholesky(), 533.0, 128), 1e-9);
}

TEST(Evaluator, Baseline2DIsFeasibleAndMemoized) {
  Evaluator eval(fast_config(24));
  const BaselinePoint& b = eval.baseline_2d(cholesky(), 85.0);
  ASSERT_TRUE(b.feasible);
  EXPECT_LE(b.peak_c, 85.0);
  EXPECT_GT(b.ips, 0.0);
  const std::size_t evals = eval.eval_count();
  eval.baseline_2d(cholesky(), 85.0);
  EXPECT_EQ(eval.eval_count(), evals);
}

TEST(Evaluator, Baseline2DImprovesWithThreshold) {
  Evaluator eval(fast_config(24));
  const double ips75 = eval.baseline_2d(cholesky(), 75.0).ips;
  const double ips85 = eval.baseline_2d(cholesky(), 85.0).ips;
  const double ips105 = eval.baseline_2d(cholesky(), 105.0).ips;
  EXPECT_LE(ips75, ips85);
  EXPECT_LE(ips85, ips105);
}

TEST(Evaluator, SpacingLowersPeakTemperature) {
  // The core paper effect through the full evaluation stack.
  Evaluator eval(fast_config(24));
  const Organization packed{16, {0, 0, 0}, 0, 256};
  const Organization spaced{16, {4.0, 2.0, 4.0}, 0, 256};
  EXPECT_GT(eval.thermal_eval(packed, cholesky()).peak_c,
            eval.thermal_eval(spaced, cholesky()).peak_c + 5.0);
}

TEST(Evaluator, ModelCacheEvictionStaysCorrect) {
  EvalConfig cfg = fast_config(12);
  cfg.model_cache_capacity = 2;  // force evictions
  Evaluator eval(cfg);
  const Organization a{16, {0.5, 0.25, 0.5}, 0, 128};
  const Organization b{16, {1.0, 0.5, 1.0}, 0, 128};
  const Organization c{16, {1.5, 0.75, 1.5}, 0, 128};
  const double pa = eval.thermal_eval(a, cholesky()).peak_c;
  eval.thermal_eval(b, cholesky());
  eval.thermal_eval(c, cholesky());  // evicts a's model
  // Memoized result still served without rebuilding.
  EXPECT_DOUBLE_EQ(eval.thermal_eval(a, cholesky()).peak_c, pa);
}

TEST(Evaluator, ModelCacheCapacityZeroAndOneMatchLargeCache) {
  // Regression for the capacity-0 use-after-free: eviction used to destroy
  // the ModelEntry the in-flight evaluation was still solving on (at
  // capacity 0 the entry was evicted on the very call that built it).
  // With shared handles every capacity must work and agree.
  const Organization orgs[] = {
      {16, {0.5, 0.25, 0.5}, 0, 128},
      {16, {0.5, 0.25, 0.5}, 2, 128},  // same layout, different level
      {4, {0, 0, 2.0}, 0, 192},
  };
  std::vector<double> peaks[3];
  const std::size_t capacities[] = {0, 1, 48};
  for (int v = 0; v < 3; ++v) {
    EvalConfig cfg = fast_config(12);
    cfg.model_cache_capacity = capacities[v];
    Evaluator eval(cfg);
    for (const Organization& org : orgs)
      peaks[v].push_back(eval.thermal_eval(org, cholesky()).peak_c);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    // Cache capacity only changes whether a model (and its warm-start
    // field) is rebuilt, so results agree to solver tolerance.
    EXPECT_NEAR(peaks[0][i], peaks[2][i], 1e-5) << "org " << i;
    EXPECT_NEAR(peaks[1][i], peaks[2][i], 1e-5) << "org " << i;
  }
}

/// Counters recorded while `run` executes with metrics on.
template <class Run>
std::map<std::string, double> counters_of(Run run) {
  obs::set_metrics_enabled(true);
  obs::MetricsRegistry::global().reset_values();
  run();
  obs::set_metrics_enabled(false);
  std::map<std::string, double> c;
  for (const auto& [name, v] :
       obs::MetricsRegistry::global().snapshot().counters)
    c[name] = v;
  return c;
}

TEST(Evaluator, CacheCountersMatchLookupsAndModelsBuilt) {
  // Seven memo lookups over three layouts at model capacity 2: every memo
  // miss looks up a model once, and every model miss builds one.
  EvalConfig cfg = fast_config(12);
  cfg.model_cache_capacity = 2;
  Evaluator eval(cfg);
  const Organization a0{16, {0.5, 0.25, 0.5}, 0, 128};
  const Organization a2{16, {0.5, 0.25, 0.5}, 2, 128};
  const Organization a4{16, {0.5, 0.25, 0.5}, 4, 128};
  const Organization b0{16, {1.0, 0.5, 1.0}, 0, 128};
  const Organization c0{4, {0, 0, 2.0}, 0, 128};
  auto c = counters_of([&] {
    eval.thermal_eval(a0, cholesky());  // memo miss, model miss (builds A)
    eval.thermal_eval(a2, cholesky());  // memo miss, model hit
    eval.thermal_eval(a0, cholesky());  // memo hit
    eval.thermal_eval(b0, cholesky());  // memo miss, model miss (builds B)
    eval.thermal_eval(c0, cholesky());  // memo miss, model miss (evicts A)
    eval.thermal_eval(a4, cholesky());  // memo miss, model miss (rebuilds A)
    eval.feasible(b0, cholesky(), 85.0);  // memo hit
  });
  EXPECT_EQ(c["eval.cache.memo.hit"], 2.0);
  EXPECT_EQ(c["eval.cache.memo.miss"], 5.0);
  EXPECT_EQ(c["eval.cache.model.hit"], 1.0);
  EXPECT_EQ(c["eval.cache.model.miss"], 4.0);
  EXPECT_EQ(c["eval.cache.medium.hit"] + c["eval.cache.medium.miss"], 0.0);
  EXPECT_EQ(c["eval.cache.memo.hit"] + c["eval.cache.memo.miss"], 7.0);
  EXPECT_EQ(c["eval.cache.model.hit"] + c["eval.cache.model.miss"],
            static_cast<double>(eval.eval_count()));
  EXPECT_EQ(c["eval.cache.model.miss"], c["span.thermal.build.calls"]);

  // A ladder sweep exercises the medium cache as well: the two model
  // caches' misses are exactly the models built, and every full
  // evaluation looked its model up once.
  EvalConfig lcfg = fast_config(16);
  lcfg.ladder.mode = FidelityMode::kLadder;
  Evaluator ladder(lcfg);
  OptimizerOptions oo;
  oo.step_mm = 2.0;
  c = counters_of([&] { optimize_greedy(ladder, cholesky(), oo); });
  EXPECT_GT(c["eval.cache.medium.miss"], 0.0);
  EXPECT_GT(c["eval.cache.medium.hit"] + c["eval.cache.model.hit"], 0.0);
  EXPECT_EQ(c["eval.cache.model.miss"] + c["eval.cache.medium.miss"],
            c["span.thermal.build.calls"]);
  EXPECT_EQ(c["eval.cache.model.hit"] + c["eval.cache.model.miss"],
            static_cast<double>(ladder.eval_count()));
  EXPECT_GE(c["eval.cache.memo.miss"],
            static_cast<double>(ladder.eval_count()));
}

TEST(Evaluator, QuarantinedEvaluationRecordsNothing) {
  // A solve whose recovery ladder is exhausted surfaces as EvalError; the
  // failed evaluation must leave no memo, frontier, or eval-count trace —
  // a later query of the same organization simulates from scratch.
  EvalConfig cfg = fast_config(12);
  cfg.thermal.solve.fault.pcg_fail_at = 0;  // first solve fails every rung
  cfg.thermal.solve.fault.pcg_fail_rungs = 4;
  Evaluator eval(cfg);
  const Organization org{16, {1.0, 0.5, 1.0}, 0, 128};
  EXPECT_THROW(eval.thermal_eval(org, cholesky()), EvalError);
  EXPECT_EQ(eval.eval_count(), 0u);
  EXPECT_EQ(eval.health().solve_failures, 1u);
  // The fault targeted solve index 0 only; the retry simulates cleanly
  // (nothing poisoned was served from a cache).
  const ThermalEval& ev = eval.thermal_eval(org, cholesky());
  EXPECT_TRUE(ev.leak_converged);
  EXPECT_EQ(eval.eval_count(), 1u);
  EXPECT_GT(ev.peak_c, 25.0);
}

TEST(Evaluator, UnconvergedLeakageStaysOutOfTheFrontier) {
  // An unconverged fixed point's peak is the last iterate of an unsettled
  // loop, not a monotone bound: it must not let feasible() short-circuit
  // later queries.  (The memo still serves it, flagged.)
  EvalConfig cfg = fast_config(12);
  cfg.thermal.solve.fault.leak_force_nonconverge = true;
  Evaluator eval(cfg);
  const Organization hot{16, {0.5, 0.25, 0.5}, 0, 256};
  const Organization cool{16, {0.5, 0.25, 0.5}, 4, 256};
  const ThermalEval& ev = eval.thermal_eval(hot, cholesky());
  EXPECT_FALSE(ev.leak_converged);
  EXPECT_GE(eval.health().leak_nonconverged, 1u);
  // With a trustworthy frontier entry this query would be answered with
  // no simulation (see FrontierAvoidsRedundantSimulations); here it must
  // fall through to an exact evaluation.
  const std::size_t evals = eval.eval_count();
  eval.feasible(cool, cholesky(), ev.peak_c + 10.0);
  EXPECT_EQ(eval.eval_count(), evals + 1);
}

}  // namespace
}  // namespace tacos
