#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "core/organization.hpp"
#include "floorplan/layout.hpp"
#include "linalg/multigrid.hpp"
#include "linalg/solvers.hpp"
#include "materials/stack.hpp"
#include "thermal/grid_model.hpp"

namespace tacos {
namespace {

// The multigrid preconditioner contract: the hierarchy matches the
// thermal grid geometry and coarsens to a direct solve; the V-cycle is a
// symmetric positive-definite operator (CG requires it); kAuto selects it
// at every grid size; preconditioned solves land on the same temperatures
// as Jacobi in >= 3x fewer iterations on production-sized systems; and
// the recovery ladder / fault-injection machinery is
// preconditioner-agnostic.

PowerMap uniform_power(const ChipletLayout& l, double total_w) {
  PowerMap p;
  for (const auto& c : l.chiplets()) p.add(c.rect, total_w / l.chiplet_count());
  return p;
}

ThermalConfig config_for(std::size_t grid, PrecondKind precond) {
  ThermalConfig cfg;
  cfg.grid_nx = cfg.grid_ny = grid;
  cfg.solve.precond = precond;
  return cfg;
}

/// Hand-built two-layer conduction grid (nx*ny cells per layer, 5-point
/// lateral coupling, vertical coupling between layers, every node tied to
/// ambient so the matrix is strictly diagonally dominant → SPD).
CsrMatrix make_grid_matrix(std::size_t nx, std::size_t ny,
                           std::size_t layers) {
  const std::size_t ncell = nx * ny;
  CsrBuilder cb(ncell * layers);
  const auto id = [&](std::size_t l, std::size_t ix, std::size_t iy) {
    return l * ncell + iy * nx + ix;
  };
  for (std::size_t l = 0; l < layers; ++l)
    for (std::size_t iy = 0; iy < ny; ++iy)
      for (std::size_t ix = 0; ix < nx; ++ix) {
        const std::size_t i = id(l, ix, iy);
        cb.add_conductance_to_reference(i, 0.05);  // ambient tie
        if (ix + 1 < nx) cb.add_conductance(i, id(l, ix + 1, iy), 1.0);
        if (iy + 1 < ny) cb.add_conductance(i, id(l, ix, iy + 1), 1.0);
        if (l + 1 < layers) cb.add_conductance(i, id(l + 1, ix, iy), 0.5);
      }
  return cb.build();
}

// --- Hierarchy construction ---------------------------------------------

TEST(Multigrid, HierarchyCoarsensGeometricallyToDirectLevel) {
  const CsrMatrix A = make_grid_matrix(16, 16, 2);
  MultigridOptions mo;
  mo.coarsest_max_unknowns = 40;
  MultigridPreconditioner mg(A, {16, 16, 2, 0}, mo);
  ASSERT_GE(mg.level_count(), 3u);
  EXPECT_EQ(mg.unknowns(0), A.rows());
  for (std::size_t l = 1; l < mg.level_count(); ++l) {
    EXPECT_LT(mg.unknowns(l), mg.unknowns(l - 1)) << "level " << l;
    // 2x coarsening in x and y only: each level shrinks ~4x per layer.
    EXPECT_GE(mg.unknowns(l - 1), 3 * mg.unknowns(l)) << "level " << l;
  }
  EXPECT_LE(mg.unknowns(mg.level_count() - 1), 40u);
}

TEST(Multigrid, GeometryMismatchThrows) {
  const CsrMatrix A = make_grid_matrix(4, 4, 2);
  EXPECT_THROW(MultigridPreconditioner(A, {5, 4, 2, 0}), SolverError);
  EXPECT_THROW(MultigridPreconditioner(A, {4, 4, 2, 3}), SolverError);
  EXPECT_THROW(MultigridPreconditioner(A, {0, 0, 0, 0}), SolverError);
}

TEST(Multigrid, AsymmetricSmoothingIsRejected) {
  const CsrMatrix A = make_grid_matrix(8, 8, 1);
  MultigridOptions mo;
  mo.pre_sweeps = 2;
  mo.post_sweeps = 1;  // would silently break CG's symmetry requirement
  EXPECT_THROW(MultigridPreconditioner(A, {8, 8, 1, 0}, mo), SolverError);
}

TEST(Multigrid, IndefiniteColumnIsRejected) {
  // One column whose vertical coupling outweighs its diagonal: the line
  // smoother's LDLᵀ meets a negative pivot, and construction must refuse
  // the matrix instead of building a non-SPD cycle.
  const std::size_t nx = 4, ny = 4, layers = 2, ncell = nx * ny;
  CsrBuilder cb(ncell * layers);
  for (std::size_t i = 0; i < ncell * layers; ++i)
    cb.add_conductance_to_reference(i, 1.0);
  cb.add(0, ncell, -2.0);
  cb.add(ncell, 0, -2.0);
  const CsrMatrix A = cb.build();
  MultigridOptions mo;
  mo.coarsest_max_unknowns = 8;  // keep level 0 a smoothed level
  try {
    MultigridPreconditioner mg(A, {nx, ny, layers, 0}, mo);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_NE(std::string(e.what()).find("pivot"), std::string::npos)
        << e.what();
  }
}

// --- Operator properties -------------------------------------------------

TEST(Multigrid, VCycleIsSymmetricPositiveDefinite) {
  const CsrMatrix A = make_grid_matrix(12, 12, 2);
  MultigridOptions mo;
  mo.coarsest_max_unknowns = 40;
  MultigridPreconditioner mg(A, {12, 12, 2, 0}, mo);
  const std::size_t n = A.rows();
  // Deterministic pseudo-random probe vectors.
  std::vector<double> r1(n), r2(n), z(n);
  std::uint64_t s = 12345;
  const auto next = [&s] {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(s >> 11) / 9007199254740992.0 - 0.5;
  };
  for (std::size_t i = 0; i < n; ++i) r1[i] = next();
  for (std::size_t i = 0; i < n; ++i) r2[i] = next();

  // Positive definite: r·M⁻¹r > 0 for nonzero r.
  EXPECT_GT(mg.apply_dot(r1, z), 0.0);
  EXPECT_GT(mg.apply_dot(r2, z), 0.0);

  // Symmetric: r2·(M⁻¹ r1) == r1·(M⁻¹ r2) up to rounding.
  mg.apply_dot(r1, z);
  double a = 0.0;
  for (std::size_t i = 0; i < n; ++i) a += r2[i] * z[i];
  mg.apply_dot(r2, z);
  double b = 0.0;
  for (std::size_t i = 0; i < n; ++i) b += r1[i] * z[i];
  EXPECT_NEAR(a, b, 1e-9 * (std::abs(a) + 1.0));
}

TEST(Multigrid, InjectedPreconditionerCutsPcgIterations) {
  const CsrMatrix A = make_grid_matrix(24, 24, 3);
  const std::size_t n = A.rows();
  std::vector<double> b(n, 0.0);
  b[n / 2] = 3.0;
  b[7] = 1.0;

  std::vector<double> x_j(n, 0.0);
  const SolveResult rj = solve_pcg(A, b, x_j);

  MultigridOptions mo;
  mo.coarsest_max_unknowns = 60;
  MultigridPreconditioner mg(A, {24, 24, 3, 0}, mo);
  SolveOptions so;
  so.preconditioner = &mg;
  std::vector<double> x_m(n, 0.0);
  const SolveResult rm = solve_pcg(A, b, x_m, so);

  ASSERT_TRUE(rj.converged);
  ASSERT_TRUE(rm.converged);
  EXPECT_LT(rm.iterations, rj.iterations);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(x_j[i], x_m[i], 1e-6) << "row " << i;
}

// --- Thermal-model integration ------------------------------------------

TEST(Multigrid, ThermalModelBuildsHierarchyOncePerLayout) {
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  ThermalModel model(l, make_25d_stack(),
                     config_for(32, PrecondKind::kMultigrid));
  EXPECT_EQ(model.multigrid(), nullptr);  // lazy: nothing built yet
  model.solve(uniform_power(l, 300.0));
  const MultigridPreconditioner* mg = model.multigrid();
  ASSERT_NE(mg, nullptr);
  EXPECT_EQ(mg->unknowns(0), model.node_count());
  // Grid 32 coarsens 32² → 16² → 8² → 4² → 2² cells per layer: the
  // coarsest level is 2·2·8 cells + 12 lumped nodes = 44 unknowns.
  EXPECT_EQ(mg->level_count(), 5u);
  EXPECT_EQ(mg->unknowns(mg->level_count() - 1), 44u);
  // A second solve reuses the same hierarchy instance.
  model.solve(uniform_power(l, 303.0));
  EXPECT_EQ(model.multigrid(), mg);
}

TEST(Multigrid, AutoBuildsHierarchyAtEveryPaperGrid) {
  // kAuto is multigrid at every size, on the 2.5D stack and on the 2D
  // baseline chip alike (grid 12 is the medium rung of the grid-24
  // sweep); only an explicit kJacobi solves without a hierarchy.
  const ChipletLayout l25 = make_uniform_layout(4, 4.0);
  const ChipletLayout l2d = make_single_chip_layout(SystemSpec{});
  const struct {
    const ChipletLayout* layout;
    LayerStack stack;
  } inputs[] = {{&l25, make_25d_stack()}, {&l2d, make_2d_stack()}};
  for (const auto& in : inputs) {
    for (const std::size_t grid : {12u, 16u, 24u, 32u}) {
      const PowerMap p = uniform_power(*in.layout, 250.0);
      ThermalModel autom(*in.layout, in.stack,
                         config_for(grid, PrecondKind::kAuto));
      EXPECT_EQ(autom.steady_precond(), PrecondKind::kMultigrid);
      ASSERT_TRUE(autom.solve(p).solve_info.converged);
      ASSERT_NE(autom.multigrid(), nullptr)
          << "grid " << grid << ", " << in.layout->chiplet_count()
          << " chiplet(s)";
      EXPECT_EQ(autom.multigrid()->unknowns(0), autom.node_count());

      ThermalModel jacobi(*in.layout, in.stack,
                          config_for(grid, PrecondKind::kJacobi));
      EXPECT_EQ(jacobi.steady_precond(), PrecondKind::kJacobi);
      ASSERT_TRUE(jacobi.solve(p).solve_info.converged);
      EXPECT_EQ(jacobi.multigrid(), nullptr)
          << "grid " << grid << ", " << in.layout->chiplet_count()
          << " chiplet(s)";
    }
  }
}

TEST(Multigrid, AtLeastThreeTimesFewerIterationsAtGrid48) {
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  const PowerMap p = uniform_power(l, 300.0);
  ThermalModel jacobi(l, make_25d_stack(),
                      config_for(48, PrecondKind::kJacobi));
  ThermalModel mg(l, make_25d_stack(),
                  config_for(48, PrecondKind::kMultigrid));
  const SolveResult rj = jacobi.solve(p).solve_info;
  const SolveResult rm = mg.solve(p).solve_info;
  ASSERT_TRUE(rj.converged);
  ASSERT_TRUE(rm.converged);
  EXPECT_GE(rj.iterations, 3 * rm.iterations)
      << "jacobi=" << rj.iterations << " mg=" << rm.iterations;
  const std::vector<double> tj = jacobi.tile_temperatures();
  const std::vector<double> tm = mg.tile_temperatures();
  for (std::size_t i = 0; i < tj.size(); ++i)
    EXPECT_NEAR(tj[i], tm[i], 1e-4) << "tile " << i;
}

TEST(Multigrid, JacobiAgreementOnEveryPaperLayout) {
  // Every paper organization shape (2D baseline, 4- and 16-chiplet) at the
  // sweep's medium-rung (12), sweep (24) and evaluation (32) resolutions:
  // the preconditioner must not change what the Evaluator computes, only
  // how fast.
  const Organization orgs[] = {
      {1, {}, 0, 256},
      {4, {0.0, 0.0, 2.0}, 1, 192},
      {16, {1.0, 0.5, 1.0}, 0, 256},
  };
  for (const std::size_t grid : {12u, 24u, 32u}) {
    for (const Organization& org : orgs) {
      const ChipletLayout layout = layout_for(org);
      const LayerStack stack =
          org.n_chiplets == 1 ? make_2d_stack() : make_25d_stack();
      ThermalModel jacobi(layout, stack,
                          config_for(grid, PrecondKind::kJacobi));
      ThermalModel mg(layout, stack,
                      config_for(grid, PrecondKind::kMultigrid));
      const PowerMap p = uniform_power(layout, 250.0);
      const ThermalResult rj = jacobi.solve(p);
      const ThermalResult rm = mg.solve(p);
      const std::string at = "grid " + std::to_string(grid) +
                             " n=" + std::to_string(org.n_chiplets);
      ASSERT_TRUE(rj.solve_info.converged) << at;
      ASSERT_TRUE(rm.solve_info.converged) << at;
      EXPECT_NEAR(rj.peak_c, rm.peak_c, 1e-4) << at;
      const std::vector<double> tj = jacobi.tile_temperatures();
      const std::vector<double> tm = mg.tile_temperatures();
      ASSERT_EQ(tj.size(), tm.size());
      for (std::size_t i = 0; i < tj.size(); ++i)
        EXPECT_NEAR(tj[i], tm[i], 1e-4) << at << " tile " << i;
    }
  }
}

TEST(Multigrid, ColdSolvesAreReproducibleBitForBit) {
  const ChipletLayout l = make_uniform_layout(4, 4.0);
  const PowerMap p = uniform_power(l, 300.0);
  ThermalModel a(l, make_25d_stack(), config_for(32, PrecondKind::kMultigrid));
  ThermalModel b(l, make_25d_stack(), config_for(32, PrecondKind::kMultigrid));
  a.solve(p);
  b.solve(p);
  EXPECT_EQ(a.tile_temperatures(), b.tile_temperatures());
}

// --- Recovery ladder under fault injection -------------------------------

/// These force kMultigrid explicitly, so they keep pinning the ladder on
/// multigrid whatever kAuto resolves to: the ladder must behave
/// identically for either preconditioner (same rungs, same counters, same
/// restored state).

TEST(Multigrid, ColdRestartRungRecoversUnderMultigrid) {
  ThermalConfig cfg = config_for(12, PrecondKind::kMultigrid);
  cfg.solve.fault.pcg_fail_at = 0;
  cfg.solve.fault.pcg_fail_rungs = 1;
  const ChipletLayout l = make_uniform_layout(2, 4.0);
  ThermalModel faulted(l, make_25d_stack(), cfg);
  ThermalModel clean(l, make_25d_stack(),
                     config_for(12, PrecondKind::kMultigrid));
  const PowerMap power = uniform_power(l, 200.0);

  const ThermalResult fr = faulted.solve(power);
  const ThermalResult cr = clean.solve(power);
  EXPECT_TRUE(fr.solve_info.converged);
  EXPECT_EQ(faulted.health().cold_restarts, 1u);
  EXPECT_EQ(faulted.health().solve_failures, 0u);
  // The cold-restart rung re-runs the same multigrid-preconditioned solve
  // from ambient — exactly the clean model's first solve.
  EXPECT_EQ(fr.peak_c, cr.peak_c);
  EXPECT_EQ(faulted.tile_temperatures(), clean.tile_temperatures());
}

TEST(Multigrid, ExhaustedLadderRestoresFieldUnderMultigrid) {
  ThermalConfig cfg = config_for(12, PrecondKind::kMultigrid);
  cfg.solve.fault.pcg_fail_at = 1;  // second solve fails every rung
  cfg.solve.fault.pcg_fail_rungs = 4;
  const ChipletLayout l = make_uniform_layout(2, 4.0);
  ThermalModel model(l, make_25d_stack(), cfg);
  const PowerMap power = uniform_power(l, 200.0);

  ASSERT_TRUE(model.solve(power).solve_info.converged);
  const std::vector<double> good = model.tile_temperatures();
  EXPECT_THROW(model.solve(uniform_power(l, 210.0)), ThermalError);
  EXPECT_EQ(model.health().solve_failures, 1u);
  // No warm-start poisoning: the failed attempt's iterate is discarded.
  EXPECT_EQ(model.tile_temperatures(), good);
}

}  // namespace
}  // namespace tacos
