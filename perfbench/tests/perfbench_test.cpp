// Unit tests of the benchmark's own code: the timing aggregation, the
// reference comparison and the per-layer metric extraction.  Run with
// `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>
#include <string>

#include "layers.hpp"
#include "probe.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

TEST(Stats, MedianOfOddAndEvenSizes) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, UnitMinimaDiscardBurstHitPasses) {
  // Three passes over three units; a burst doubles unit 1 in pass 0 and
  // unit 2 in passes 0 and 2.  Each unit keeps its undisturbed time.
  const std::vector<std::vector<double>> samples = {
      {1.0, 4.0, 6.2}, {1.1, 2.0, 3.1}, {0.9, 2.1, 6.0}};
  const std::vector<double> m = unit_minima(samples);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_DOUBLE_EQ(m[0], 0.9);
  EXPECT_DOUBLE_EQ(m[1], 2.0);
  EXPECT_DOUBLE_EQ(m[2], 3.1);
  EXPECT_DOUBLE_EQ(sum(m), 6.0);
  EXPECT_THROW(unit_minima({{1.0, 2.0}, {1.0}}), std::invalid_argument);
  EXPECT_THROW(unit_minima({}), std::invalid_argument);
}

TEST(Stats, PercentileInterpolatesBetweenOrderStatistics) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 100.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 50.5);
  EXPECT_NEAR(percentile(v, 90), 90.1, 1e-12);
  EXPECT_NEAR(percentile(v, 99), 99.01, 1e-12);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 90), 5.0);
}

TEST(Stats, PercentileNeedsTenUnitsBeyondIt) {
  EXPECT_FALSE(percentile_supported(19, 50));
  EXPECT_TRUE(percentile_supported(20, 50));
  EXPECT_FALSE(percentile_supported(99, 90));
  EXPECT_TRUE(percentile_supported(100, 90));
  EXPECT_FALSE(percentile_supported(999, 99));
  EXPECT_TRUE(percentile_supported(1000, 99));
  EXPECT_FALSE(percentile_supported(8, 50));  // the sweep's eight tasks
  EXPECT_FALSE(percentile_supported(1000000, 100));
}

/// Keeps the thread busy for `seconds` of wall time.
void spin(double seconds) {
  const auto t0 = std::chrono::steady_clock::now();
  volatile double x = 0.0;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() < seconds)
    x = x + 1.0;
}

TEST(HostClock, RunsAtTheProbedSpeedAndStandsStillWhenStopped) {
  host_clock::start();
  EXPECT_THROW(host_clock::start(), std::logic_error);
  const auto t0 = std::chrono::steady_clock::now();
  const double c0 = host_clock::now();
  spin(0.3);  // about 15 ticks
  const double c1 = host_clock::now();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  host_clock::stop();
  const std::vector<double> probes = host_clock::probe_times();
  ASSERT_GE(probes.size(), 3u + 5u);  // start()'s three, then the ticks
  // Between ticks the clock runs at reference ÷ (a median of recent probe
  // times), and it leaves out the probes' own time.
  const double fastest = *std::min_element(probes.begin(), probes.end());
  const double slowest = *std::max_element(probes.begin(), probes.end());
  double probing = 0.0;
  for (double p : probes) probing += p;
  EXPECT_LE(c1 - c0, wall * kProbeReferenceS / fastest);
  EXPECT_GE(c1 - c0, (wall - probing) * kProbeReferenceS / slowest);
  const double stopped = host_clock::now();
  spin(0.05);
  EXPECT_EQ(host_clock::now(), stopped);
  // It can start again, from 0.
  host_clock::start();
  EXPECT_LT(host_clock::now(), stopped);
  host_clock::stop();
}

TEST(Reference, ExactTolerantAndIgnoredKeys) {
  const std::string ref = "a x=1 y=2.0 z=7\nb x=3 y=4.0 z=8\n";
  EXPECT_TRUE(compare_digests(ref, ref, {"y"}, 1e-3, {}).empty());
  // y within tolerance, z ignored: equal.
  EXPECT_TRUE(compare_digests("a x=1 y=2.0004 z=9\nb x=3 y=4.0 z=8\n", ref,
                              {"y"}, 1e-3, {"z"})
                  .empty());
  // y beyond tolerance.
  EXPECT_EQ(compare_digests("a x=1 y=2.01 z=7\nb x=3 y=4.0 z=8\n", ref, {"y"},
                            1e-3, {})
                .size(),
            1u);
  // x must match byte for byte: "1.0" is not "1".
  EXPECT_EQ(compare_digests("a x=1.0 y=2.0 z=7\nb x=3 y=4.0 z=8\n", ref, {"y"},
                            1e-3, {})
                .size(),
            1u);
  // A missing result line is one error, not a crash.
  EXPECT_EQ(compare_digests("a x=1 y=2.0 z=7\n", ref, {"y"}, 1e-3, {}).size(),
            1u);
  // Relabelled results do not line up.
  EXPECT_FALSE(compare_digests("b x=1 y=2.0 z=7\na x=3 y=4.0 z=8\n", ref, {"y"},
                               1e-3, {})
                   .empty());
}

TEST(Layers, ReadSpansCountersAndHistograms) {
  tacos::obs::MetricsSnapshot snap;
  snap.counters = {{"span.opt.task.self_s", 1.5},
                   {"span.eval.thermal.self_s", 0.25},
                   {"span.eval.perf.self_s", 0.5},
                   {"span.thermal.rung.warm.self_s", 2.0},
                   {"span.bench.thermal.step.self_s", 1.0},
                   {"span.power.build_map.calls", 3},
                   {"span.bench.power.map.calls", 4},
                   {"thermal.solves", 12},
                   {"thermal.mg.cycles", 40}};
  tacos::obs::HistogramSnapshot pcg;
  pcg.sum = 300;
  pcg.count = 12;
  snap.histograms = {{"pcg.iterations", pcg}};
  Counts c;
  c.screened = 10;
  c.rejected = 4;
  std::map<std::string, Metric> m;
  for (const Metric& x : layer_metrics(snap, c)) {
    ASSERT_TRUE(m.emplace(x.name, x).second) << "duplicate " << x.name;
  }
  EXPECT_DOUBLE_EQ(m["optimizer.self_s"].value, 1.5);
  EXPECT_DOUBLE_EQ(m["evaluator.self_s"].value, 0.75);
  EXPECT_DOUBLE_EQ(m["pcg.self_s"].value, 3.0);
  EXPECT_DOUBLE_EQ(m["pcg.iters"].value, 300);
  EXPECT_DOUBLE_EQ(m["pcg.iters_per_solve"].value, 25);
  EXPECT_DOUBLE_EQ(m["power.map_calls"].value, 7);
  EXPECT_DOUBLE_EQ(m["thermal.solves"].value, 12);
  EXPECT_DOUBLE_EQ(m["mg.cycles"].value, 40);
  EXPECT_DOUBLE_EQ(m["ladder.reject_ratio"].value, 0.4);
  EXPECT_EQ(m["ladder.reject_ratio"].unit, "ratio");
  // A bypassed layer reads 0, and a ratio over an empty base is 0.
  EXPECT_DOUBLE_EQ(m["mg.build_s"].value, 0.0);
  EXPECT_DOUBLE_EQ(m["leakage.iters_per_eval"].value, 0.0);
  for (const auto& [name, x] : m)
    EXPECT_TRUE(x.unit == "s" || x.unit == "count" || x.unit == "ratio" ||
                x.unit == "bytes")
        << name;
}

TEST(Layers, SelfSecondsAreTheDeltaOfEverySpanSelfTime) {
  tacos::obs::MetricsSnapshot before, after;
  before.counters = {{"span.a.self_s", 1.0}, {"span.a.total_s", 5.0}};
  after.counters = {{"span.a.self_s", 1.5},
                    {"span.a.total_s", 9.0},
                    {"span.b.self_s", 2.0},
                    {"thermal.solves", 100}};
  EXPECT_DOUBLE_EQ(span_self_seconds(before, after), 2.5);
}

}  // namespace
}  // namespace perfbench
