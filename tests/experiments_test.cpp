#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "core/experiments.hpp"
#include "obs/metrics.hpp"

namespace tacos {
namespace {

// Structural tests of the experiment runners at tiny grid resolutions —
// these guard the bench binaries' outputs (row counts, required series,
// headline invariants) without paying full-resolution runtimes.

ExperimentOptions tiny() {
  ExperimentOptions o;
  o.grid = 12;
  o.w_step_mm = 4.0;
  o.opt_step_mm = 4.0;
  o.starts = 3;
  return o;
}

/// Parse a CSV table into rows of strings (header skipped).
std::vector<std::vector<std::string>> rows_of(const TextTable& t) {
  std::istringstream is(t.to_csv());
  std::string line;
  std::vector<std::vector<std::string>> out;
  bool header = true;
  while (std::getline(is, line)) {
    if (header) {
      header = false;
      continue;
    }
    std::vector<std::string> cells;
    std::istringstream ls(line);
    std::string cell;
    while (std::getline(ls, cell, ',')) cells.push_back(cell);
    out.push_back(cells);
  }
  return out;
}

TEST(Experiments, Fig3aCoversAllSeries) {
  const auto rows = rows_of(fig3a_cost_table(5.0));
  // 3 defect densities x 2 chiplet counts x 7 interposer sizes.
  EXPECT_EQ(rows.size(), 3u * 2u * 7u);
  // Normalized cost at the minimum interposer is < 1 for every D0.
  for (const auto& r : rows)
    if (r[0] == "20.0") EXPECT_LT(std::stod(r[4]), 1.0);
}

TEST(Experiments, PrecondReachesTheSpacingSweep) {
  // --precond reaches every solve of the thermal runners: under Jacobi the
  // Fig. 5 sweep builds no multigrid hierarchy, by default it does.
  const auto mg_builds = [](const ExperimentOptions& o) {
    obs::set_metrics_enabled(true);
    obs::MetricsRegistry::global().reset_values();
    fig5_spacing_table(o);
    obs::set_metrics_enabled(false);
    for (const auto& [name, v] :
         obs::MetricsRegistry::global().snapshot().counters)
      if (name == "span.thermal.mg.build.calls") return v;
    return 0.0;
  };
  ExperimentOptions o = tiny();
  EXPECT_GT(mg_builds(o), 0.0);
  o.precond = PrecondKind::kJacobi;
  EXPECT_EQ(mg_builds(o), 0.0);
}

TEST(Experiments, CostClaimsHasFiveRows) {
  EXPECT_EQ(cost_claims_table().row_count(), 5u);
}

TEST(Experiments, Fig3bShowsTheFourTrends) {
  ExperimentOptions o = tiny();
  const auto rows = rows_of(fig3b_thermal_table(o));
  // series, interposer, density, peak. Index by (series, W, pd).
  std::map<std::tuple<std::string, double, double>, double> peak;
  for (const auto& r : rows)
    peak[{r[0], std::stod(r[1]), std::stod(r[2])}] = std::stod(r[3]);
  // Density ↑ -> temperature ↑.
  EXPECT_LT(peak.at({"2x2", 30.0, 0.5}), peak.at({"2x2", 30.0, 2.0}));
  // Interposer ↑ -> temperature ↓.
  EXPECT_GT(peak.at({"4x4", 20.0, 1.0}), peak.at({"4x4", 46.0, 1.0}));
  // Chiplet count ↑ -> temperature ↓ at fixed size/power.
  EXPECT_GT(peak.at({"2x2", 36.0, 1.5}), peak.at({"6x6", 36.0, 1.5}));
  // The grown 2D chip tracks the 2.5D system within a few degrees.
  EXPECT_NEAR(peak.at({"new-2D", 40.0, 1.0}), peak.at({"8x8", 40.0, 1.0}),
              6.0);
}

TEST(Experiments, NetworkPowerMatchesPaperNumbers) {
  const auto rows = rows_of(network_power_table(tiny()));
  ASSERT_EQ(rows.size(), 5u);
  // Single chip ~3.9 W peak; 16c @ 10mm <= ~8.4 W.
  EXPECT_NEAR(std::stod(rows[0][6]), 3.9, 0.2);
  EXPECT_NEAR(std::stod(rows[4][6]), 8.4, 0.5);
}

TEST(Experiments, IsoPerformanceSaves36Percent) {
  ExperimentOptions o = tiny();
  const auto rows = rows_of(iso_performance_cost_table(o));
  ASSERT_EQ(rows.size(), kBenchmarkCount);
  for (const auto& r : rows) {
    ASSERT_EQ(r.size(), 6u);
    // Every benchmark keeps its 2D performance at the minimal interposer.
    EXPECT_NEAR(std::stod(r[5]), 36.4, 0.5) << r[0];
  }
}

}  // namespace
}  // namespace tacos
