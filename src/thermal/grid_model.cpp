#include "thermal/grid_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/errors.hpp"
#include "obs/trace.hpp"

namespace tacos {

namespace {

/// Thermal resistance of a slab: length `len_mm` along the heat-flow
/// direction, cross-section `area_mm2`, conductivity k in W/(m·K).
/// Returns K/W.  (1e3 factor: mm/mm^2 = 1/mm = 1e3/m.)
double slab_resistance(double k, double len_mm, double area_mm2) {
  TACOS_ASSERT(k > 0 && area_mm2 > 0, "bad slab: k=" << k << " A=" << area_mm2);
  return len_mm / (k * area_mm2) * 1e3;
}

/// Convective conductance to ambient: h in W/(m^2 K), area in mm^2 → W/K.
double convection_conductance(double h, double area_mm2) {
  return h * area_mm2 * 1e-6;
}

/// Iteration-cap multiplier for the recovery ladder's raised-cap retry.
constexpr std::size_t kCapRaiseFactor = 4;

}  // namespace

ThermalModel::ThermalModel(const ChipletLayout& layout, const LayerStack& stack,
                           const ThermalConfig& config)
    : grid_(layout.interposer(), config.grid_nx, config.grid_ny),
      config_(config) {
  static obs::SpanSite build_site("thermal.build", "thermal");
  obs::TraceSpan span(build_site);
  TACOS_CHECK(!stack.layers.empty(), "empty layer stack");
  const std::size_t n_stack = stack.layers.size();
  n_layers_ = n_stack + 2;  // + spreader + sink
  source_layer_ = stack.source_layer();
  const std::size_t ncell = grid_.cell_count();
  n_grid_nodes_ = n_layers_ * ncell;
  first_lumped_ = n_grid_nodes_;
  const std::size_t n_nodes = n_grid_nodes_ + 12;

  // --- Per-cell chiplet coverage (for kChiplets layers and peak queries).
  source_cover_.assign(ncell, 0.0);
  for (const auto& c : layout.chiplets()) {
    grid_.rasterize(c.rect, [&](std::size_t ix, std::size_t iy, double frac) {
      source_cover_[grid_.index(ix, iy)] += frac;
    });
  }
  for (double& f : source_cover_) f = std::min(f, 1.0);

  // --- Effective per-cell conductivities for every gridded layer.
  const Material cu = materials::copper();
  std::vector<std::vector<double>> k_lat(n_layers_), k_vert(n_layers_);
  std::vector<double> thickness(n_layers_);
  for (std::size_t l = 0; l < n_stack; ++l) {
    const Layer& ly = stack.layers[l];
    thickness[l] = ly.thickness_mm;
    k_lat[l].resize(ncell);
    k_vert[l].resize(ncell);
    for (std::size_t i = 0; i < ncell; ++i) {
      const double f =
          ly.extent == LayerExtent::kChiplets ? source_cover_[i] : 1.0;
      k_lat[l][i] = f * ly.occupied.k_lateral + (1 - f) * ly.fill.k_lateral;
      k_vert[l][i] = f * ly.occupied.k_vertical + (1 - f) * ly.fill.k_vertical;
    }
  }
  const std::size_t spreader_l = n_stack;
  const std::size_t sink_l = n_stack + 1;
  thickness[spreader_l] = config_.package.spreader_thickness_mm;
  thickness[sink_l] = config_.package.sink_thickness_mm;
  k_lat[spreader_l].assign(ncell, cu.k_lateral);
  k_vert[spreader_l].assign(ncell, cu.k_vertical);
  k_lat[sink_l].assign(ncell, cu.k_lateral);
  k_vert[sink_l].assign(ncell, cu.k_vertical);

  // Retain the per-layer material parameters: ∂K/∂f assembly
  // (conductance_sensitivity) recomputes cell conductivities from
  // source_cover_ exactly as the loops above did.
  layer_sens_.resize(n_layers_);
  for (std::size_t l = 0; l < n_stack; ++l) {
    const Layer& ly = stack.layers[l];
    layer_sens_[l] = LayerSens{ly.thickness_mm,
                               ly.extent == LayerExtent::kChiplets,
                               ly.occupied.k_lateral, ly.fill.k_lateral,
                               ly.occupied.k_vertical, ly.fill.k_vertical};
  }
  for (const std::size_t l : {spreader_l, sink_l})
    layer_sens_[l] = LayerSens{thickness[l], false, cu.k_lateral,
                               cu.k_lateral, cu.k_vertical, cu.k_vertical};

  // --- Per-cell thermal capacitance (transient mode): C = c_v * volume.
  // 1e-9 converts mm^3 to m^3.
  capacitance_.assign(n_nodes, 0.0);
  {
    const double cell_vol_factor = grid_.cell_area() * 1e-9;
    for (std::size_t l = 0; l < n_stack; ++l) {
      const Layer& ly = stack.layers[l];
      for (std::size_t i = 0; i < ncell; ++i) {
        const double f =
            ly.extent == LayerExtent::kChiplets ? source_cover_[i] : 1.0;
        const double cv = f * ly.occupied.vol_heat_cap +
                          (1 - f) * ly.fill.vol_heat_cap;
        capacitance_[l * ncell + i] = cv * cell_vol_factor * ly.thickness_mm;
      }
    }
    for (std::size_t i = 0; i < ncell; ++i) {
      capacitance_[spreader_l * ncell + i] =
          cu.vol_heat_cap * cell_vol_factor *
          config_.package.spreader_thickness_mm;
      capacitance_[sink_l * ncell + i] =
          cu.vol_heat_cap * cell_vol_factor *
          config_.package.sink_thickness_mm;
    }
  }

  // --- Assemble the conductance network.
  CsrBuilder builder(n_nodes);
  ambient_g_.assign(n_nodes, 0.0);
  const double dx = grid_.dx(), dy = grid_.dy();
  const double cell_area = grid_.cell_area();

  // Lateral conductances inside each gridded layer.
  for (std::size_t l = 0; l < n_layers_; ++l) {
    const double t = thickness[l];
    for (std::size_t iy = 0; iy < grid_.ny(); ++iy) {
      for (std::size_t ix = 0; ix < grid_.nx(); ++ix) {
        const std::size_t c = grid_.index(ix, iy);
        if (ix + 1 < grid_.nx()) {
          const std::size_t e = grid_.index(ix + 1, iy);
          const double r = slab_resistance(k_lat[l][c], dx / 2, dy * t) +
                           slab_resistance(k_lat[l][e], dx / 2, dy * t);
          builder.add_conductance(node(l, ix, iy), node(l, ix + 1, iy), 1 / r);
        }
        if (iy + 1 < grid_.ny()) {
          const std::size_t nn = grid_.index(ix, iy + 1);
          const double r = slab_resistance(k_lat[l][c], dy / 2, dx * t) +
                           slab_resistance(k_lat[l][nn], dy / 2, dx * t);
          builder.add_conductance(node(l, ix, iy), node(l, ix, iy + 1), 1 / r);
        }
      }
    }
  }

  // Vertical conductances between consecutive gridded layers.
  for (std::size_t l = 0; l + 1 < n_layers_; ++l) {
    for (std::size_t iy = 0; iy < grid_.ny(); ++iy) {
      for (std::size_t ix = 0; ix < grid_.nx(); ++ix) {
        const std::size_t c = grid_.index(ix, iy);
        const double r =
            slab_resistance(k_vert[l][c], thickness[l] / 2, cell_area) +
            slab_resistance(k_vert[l + 1][c], thickness[l + 1] / 2, cell_area);
        builder.add_conductance(node(l, ix, iy), node(l + 1, ix, iy), 1 / r);
      }
    }
  }

  // --- Package periphery (lumped).  Ring widths from the scaling rules.
  const double w_int = grid_.domain().w;
  const double h_int = grid_.domain().h;
  const double sp_scale = config_.package.spreader_scale;
  const double sk_scale = config_.package.sink_scale;
  const double w_sp = w_int * sp_scale;                 // spreader edge
  const double w_sink = w_sp * sk_scale;                // sink edge
  const double ring_sp = (w_sp - w_int) / 2.0;          // spreader overhang
  const double ring_sink = (w_sink - w_sp) / 2.0;       // sink outer overhang
  const double t_sp = thickness[spreader_l];
  const double t_sink = thickness[sink_l];
  // Quadrant-ring segment areas (W, E, S, N segments are equal by symmetry).
  const double a_sp_per = (w_sp * w_sp - w_int * h_int) / 4.0;
  const double a_sink_outer = (w_sink * w_sink - w_sp * w_sp) / 4.0;

  // Lumped ids: 0..3 spreader periphery (W,E,S,N), 4..7 sink inner periphery,
  // 8..11 sink outer periphery.
  const auto sp_per = [&](int side) { return first_lumped_ + side; };
  const auto sink_in = [&](int side) { return first_lumped_ + 4 + side; };
  const auto sink_out = [&](int side) { return first_lumped_ + 8 + side; };

  // Degenerate packages (scale factors of 1, used by the 1D analytic
  // validation tests) have no overhang: skip the periphery entirely and
  // tie the unused lumped nodes weakly to ambient so the matrix stays SPD.
  const bool has_periphery = ring_sp > 1e-9 && ring_sink > 1e-9;
  if (!has_periphery) {
    for (int side = 0; side < 4; ++side) {
      ambient_g_[sp_per(side)] = 1e-6;
      ambient_g_[sink_in(side)] = 1e-6;
      ambient_g_[sink_out(side)] = 1e-6;
      capacitance_[sp_per(side)] = 1e-9;
      capacitance_[sink_in(side)] = 1e-9;
      capacitance_[sink_out(side)] = 1e-9;
    }
  }

  // Lateral: boundary grid cells ↔ periphery segments, for spreader & sink.
  // side 0 = west (ix=0), 1 = east, 2 = south (iy=0), 3 = north.
  const auto connect_boundary = [&](std::size_t layer, double t,
                                    double ring_w,
                                    const std::function<std::size_t(int)>& per) {
    for (std::size_t iy = 0; iy < grid_.ny(); ++iy) {
      const double rW =
          slab_resistance(cu.k_lateral, dx / 2, dy * t) +
          slab_resistance(cu.k_lateral, ring_w / 2, dy * t);
      builder.add_conductance(node(layer, 0, iy), per(0), 1 / rW);
      builder.add_conductance(node(layer, grid_.nx() - 1, iy), per(1), 1 / rW);
    }
    for (std::size_t ix = 0; ix < grid_.nx(); ++ix) {
      const double rS =
          slab_resistance(cu.k_lateral, dy / 2, dx * t) +
          slab_resistance(cu.k_lateral, ring_w / 2, dx * t);
      builder.add_conductance(node(layer, ix, 0), per(2), 1 / rS);
      builder.add_conductance(node(layer, ix, grid_.ny() - 1), per(3), 1 / rS);
    }
  };
  if (has_periphery) {
  connect_boundary(spreader_l, t_sp, ring_sp,
                   [&](int s) { return sp_per(s); });
  connect_boundary(sink_l, t_sink, ring_sp,
                   [&](int s) { return sink_in(s); });

  for (int side = 0; side < 4; ++side) {
    // Spreader periphery ↔ sink inner periphery (vertical, area = ring).
    const double r_vert =
        slab_resistance(cu.k_vertical, t_sp / 2, a_sp_per) +
        slab_resistance(cu.k_vertical, t_sink / 2, a_sp_per);
    builder.add_conductance(sp_per(side), sink_in(side), 1 / r_vert);

    // Sink inner ↔ sink outer periphery (lateral, radial flow).
    const double cross = w_sp * t_sink;  // segment side length × thickness
    const double r_lat = slab_resistance(
        cu.k_lateral, (ring_sp + ring_sink) / 2.0, cross);
    builder.add_conductance(sink_in(side), sink_out(side), 1 / r_lat);

    // Convection to ambient from both sink periphery rings.
    ambient_g_[sink_in(side)] =
        convection_conductance(config_.package.h_convection, a_sp_per);
    ambient_g_[sink_out(side)] =
        convection_conductance(config_.package.h_convection, a_sink_outer);

    // Thermal capacitance of the lumped copper periphery volumes.
    capacitance_[sp_per(side)] = cu.vol_heat_cap * a_sp_per * t_sp * 1e-9;
    capacitance_[sink_in(side)] = cu.vol_heat_cap * a_sp_per * t_sink * 1e-9;
    capacitance_[sink_out(side)] =
        cu.vol_heat_cap * a_sink_outer * t_sink * 1e-9;
  }
  }  // has_periphery

  // Convection from every sink grid cell.
  for (std::size_t iy = 0; iy < grid_.ny(); ++iy)
    for (std::size_t ix = 0; ix < grid_.nx(); ++ix)
      ambient_g_[node(sink_l, ix, iy)] =
          convection_conductance(config_.package.h_convection, cell_area);

  // Fold ambient conductances into the matrix diagonal and base RHS.
  rhs_base_.assign(n_nodes, 0.0);
  const double t_amb = config_.package.ambient_c;
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (ambient_g_[i] > 0) {
      builder.add_conductance_to_reference(i, ambient_g_[i]);
      rhs_base_[i] = ambient_g_[i] * t_amb;
    }
  }

  matrix_ = builder.build();
  temperatures_.assign(n_nodes, t_amb);

  // --- Rasterization caches for tile / chiplet temperature queries.
  if (layout.has_tiles()) {
    const int n = layout.spec().tiles_per_side;
    tile_cells_.resize(static_cast<std::size_t>(n) * n);
    for (int ty = 0; ty < n; ++ty) {
      for (int tx = 0; tx < n; ++tx) {
        const Rect r = layout.tile_rect(tx, ty);
        auto& cells = tile_cells_[static_cast<std::size_t>(ty) * n + tx];
        double wsum = 0.0;
        grid_.rasterize(r, [&](std::size_t ix, std::size_t iy, double frac) {
          const double w = frac * cell_area / r.area();
          cells.emplace_back(node(source_layer_, ix, iy), w);
          wsum += w;
        });
        TACOS_ASSERT(wsum > 0.99, "tile (" << tx << "," << ty
                                           << ") not covered by grid");
        for (auto& [idx, w] : cells) w /= wsum;
      }
    }
  }
  chiplet_cells_.resize(layout.chiplets().size());
  for (std::size_t ci = 0; ci < layout.chiplets().size(); ++ci) {
    const Rect r = layout.chiplets()[ci].rect;
    double wsum = 0.0;
    grid_.rasterize(r, [&](std::size_t ix, std::size_t iy, double frac) {
      const double w = frac * cell_area / r.area();
      chiplet_cells_[ci].emplace_back(node(source_layer_, ix, iy), w);
      wsum += w;
    });
    TACOS_ASSERT(wsum > 0.99, "chiplet " << ci << " not covered by grid");
    for (auto& [idx, w] : chiplet_cells_[ci]) w /= wsum;
  }
  span.arg("rows", static_cast<std::int64_t>(n_nodes));
}

std::vector<double> ThermalModel::build_rhs(const PowerMap& power) const {
  std::vector<double> rhs = rhs_base_;
  for (const auto& s : power.sources) {
    if (s.watts <= 0) continue;
    const double src_area = s.rect.area();
    TACOS_CHECK(src_area > 0, "zero-area heat source with positive power");
    double injected = 0.0;
    grid_.rasterize(s.rect, [&](std::size_t ix, std::size_t iy, double frac) {
      const double share = frac * grid_.cell_area() / src_area;
      rhs[node(source_layer_, ix, iy)] += s.watts * share;
      injected += s.watts * share;
    });
    TACOS_CHECK(injected > 0.999 * s.watts,
                "heat source extends outside the modeled domain (injected "
                    << injected << " of " << s.watts << " W)");
  }
  return rhs;
}

ThermalResult ThermalModel::make_result(const SolveResult& sr) const {
  ThermalResult out;
  out.solve_info = sr;
  double peak_cov = -1e300, peak_any_src = -1e300, peak_all = -1e300;
  const std::size_t base = source_layer_ * grid_.cell_count();
  for (std::size_t i = 0; i < grid_.cell_count(); ++i) {
    const double t = temperatures_[base + i];
    peak_any_src = std::max(peak_any_src, t);
    if (source_cover_[i] >= 0.5) peak_cov = std::max(peak_cov, t);
  }
  // Peak silicon temperature: prefer cells majority-covered by a chiplet
  // (partial cells mix chiplet and epoxy temperatures); fall back to the
  // layer max when the grid is too coarse for any cell to be half-covered.
  out.peak_c = peak_cov > -1e300 ? peak_cov : peak_any_src;
  for (double t : temperatures_) peak_all = std::max(peak_all, t);
  out.peak_anywhere_c = peak_all;
  return out;
}

const std::vector<double>& ThermalModel::adjoint_peak(AdjointInfo* info) {
  TACOS_CHECK(solved_, "adjoint_peak requires a solved steady state");
  static obs::SpanSite site("thermal.adjoint", "thermal");
  obs::TraceSpan span(site);

  // The adjoint right-hand side selects the argmax cell peak_c reports:
  // hottest majority-covered CMOS cell, falling back to the layer max
  // when the grid is too coarse for any cell to be half-covered.
  const std::size_t base = source_layer_ * grid_.cell_count();
  std::size_t peak = base;
  double best = -1e300;
  bool covered = false;
  for (std::size_t i = 0; i < grid_.cell_count(); ++i) {
    if (source_cover_[i] < 0.5) continue;
    covered = true;
    if (temperatures_[base + i] > best) {
      best = temperatures_[base + i];
      peak = base + i;
    }
  }
  if (!covered) {
    for (std::size_t i = 0; i < grid_.cell_count(); ++i) {
      if (temperatures_[base + i] > best) {
        best = temperatures_[base + i];
        peak = base + i;
      }
    }
  }

  std::vector<double> rhs(matrix_.rows(), 0.0);
  rhs[peak] = 1.0;
  if (adjoint_.size() != matrix_.rows()) {
    adjoint_.assign(matrix_.rows(), 0.0);
    adjoint_valid_ = false;
  }
  SolveOptions opts = config_.solve;
  // Fault schedules index *forward* solves; the adjoint neither consumes
  // the ledger's solve clock nor participates in injection, so fault-plan
  // targets stay stable whether or not refinement runs.
  opts.fault = {};
  opts.preconditioner = multigrid_for(matrix_, mg_);

  const auto attempt = [&]() -> SolveResult {
    try {
      return solve_adjoint(matrix_, rhs, adjoint_, opts);
    } catch (const SolverError&) {
      return SolveResult{};
    }
  };
  SolveResult sr = attempt();
  if (!sr.converged) {
    // One cold restart: the warm-start field may belong to a different
    // layout state after heavy LRU churn.
    std::fill(adjoint_.begin(), adjoint_.end(), 0.0);
    sr = attempt();
  }
  if (!sr.converged) {
    adjoint_valid_ = false;
    throw ThermalError(ledger().solve_index, 1, sr.iterations,
                       sr.residual_norm, "adjoint solve did not converge");
  }
  adjoint_valid_ = true;
  if (info) {
    info->peak_node = peak;
    info->iterations = sr.iterations;
  }
  span.arg("iters", static_cast<std::int64_t>(sr.iterations));
  return adjoint_;
}

double ThermalModel::conductance_sensitivity(
    const std::vector<double>& dcover) const {
  TACOS_CHECK(solved_ && adjoint_valid_,
              "conductance_sensitivity requires solve() and adjoint_peak()");
  TACOS_CHECK(dcover.size() == grid_.cell_count(),
              "dcover must have one entry per grid cell");
  const double dx = grid_.dx(), dy = grid_.dy();
  const double cell_area = grid_.cell_area();

  // −λᵀ(∂K/∂f)T: every θ-dependent entry of K is an edge conductance
  // g = 1/(r_a + r_b) whose half-cell slab resistances move with the cell
  // conductivity k = f·k_occ + (1−f)·k_fill, so dr = −(r/k)·dk and
  // dg = −g²·(dr_a + dr_b); an edge contributes −dg(λ_a−λ_b)(T_a−T_b).
  double acc = 0.0;
  const auto edge = [&](std::size_t a, std::size_t b, double r_a, double dr_a,
                        double r_b, double dr_b) {
    const double g = 1.0 / (r_a + r_b);
    const double dg = -g * g * (dr_a + dr_b);
    acc -= dg * (adjoint_[a] - adjoint_[b]) *
           (temperatures_[a] - temperatures_[b]);
  };
  for (std::size_t l = 0; l < n_layers_; ++l) {
    const LayerSens& L = layer_sens_[l];
    if (L.chiplet) {
      // Lateral edges within a coverage-dependent layer.
      const double t = L.thickness;
      const double dk_lat = L.k_lat_occ - L.k_lat_fill;
      const auto k_lat_at = [&](std::size_t i) {
        const double f = source_cover_[i];
        return f * L.k_lat_occ + (1 - f) * L.k_lat_fill;
      };
      for (std::size_t iy = 0; iy < grid_.ny(); ++iy) {
        for (std::size_t ix = 0; ix < grid_.nx(); ++ix) {
          const std::size_t c = grid_.index(ix, iy);
          const double k_c = k_lat_at(c);
          if (ix + 1 < grid_.nx()) {
            const std::size_t e = grid_.index(ix + 1, iy);
            const double k_e = k_lat_at(e);
            const double r_c = slab_resistance(k_c, dx / 2, dy * t);
            const double r_e = slab_resistance(k_e, dx / 2, dy * t);
            edge(node(l, ix, iy), node(l, ix + 1, iy), r_c,
                 -r_c / k_c * dk_lat * dcover[c], r_e,
                 -r_e / k_e * dk_lat * dcover[e]);
          }
          if (iy + 1 < grid_.ny()) {
            const std::size_t nn = grid_.index(ix, iy + 1);
            const double k_n = k_lat_at(nn);
            const double r_c = slab_resistance(k_c, dy / 2, dx * t);
            const double r_n = slab_resistance(k_n, dy / 2, dx * t);
            edge(node(l, ix, iy), node(l, ix, iy + 1), r_c,
                 -r_c / k_c * dk_lat * dcover[c], r_n,
                 -r_n / k_n * dk_lat * dcover[nn]);
          }
        }
      }
    }
    // Vertical edges: only pairs touching a coverage-dependent layer.
    if (l + 1 >= n_layers_) continue;
    const LayerSens& U = layer_sens_[l + 1];
    if (!L.chiplet && !U.chiplet) continue;
    for (std::size_t iy = 0; iy < grid_.ny(); ++iy) {
      for (std::size_t ix = 0; ix < grid_.nx(); ++ix) {
        const std::size_t c = grid_.index(ix, iy);
        const double f_l = L.chiplet ? source_cover_[c] : 1.0;
        const double f_u = U.chiplet ? source_cover_[c] : 1.0;
        const double k_l = f_l * L.k_vert_occ + (1 - f_l) * L.k_vert_fill;
        const double k_u = f_u * U.k_vert_occ + (1 - f_u) * U.k_vert_fill;
        const double r_l = slab_resistance(k_l, L.thickness / 2, cell_area);
        const double r_u = slab_resistance(k_u, U.thickness / 2, cell_area);
        const double dr_l =
            L.chiplet ? -r_l / k_l * (L.k_vert_occ - L.k_vert_fill) * dcover[c]
                      : 0.0;
        const double dr_u =
            U.chiplet ? -r_u / k_u * (U.k_vert_occ - U.k_vert_fill) * dcover[c]
                      : 0.0;
        edge(node(l, ix, iy), node(l + 1, ix, iy), r_l, dr_l, r_u, dr_u);
      }
    }
  }
  return acc;
}

PrecondKind ThermalModel::steady_precond() const {
  // kAuto is multigrid at every size: the line-smoothed V-cycle beats
  // Jacobi even on the medium rung's grid-12 models (docs/PERFORMANCE.md,
  // "The multigrid preconditioner"), so Jacobi runs only when asked for.
  return config_.solve.precond == PrecondKind::kJacobi
             ? PrecondKind::kJacobi
             : PrecondKind::kMultigrid;
}

MultigridPreconditioner* ThermalModel::multigrid_for(
    const CsrMatrix& A, std::unique_ptr<MultigridPreconditioner>& slot) {
  if (steady_precond() != PrecondKind::kMultigrid) return nullptr;
  if (!slot) {
    static obs::SpanSite build_site("thermal.mg.build", "thermal");
    obs::TraceSpan span(build_site);
    const MultigridGeometry geom{grid_.nx(), grid_.ny(), n_layers_,
                                 A.rows() - n_grid_nodes_};
    slot = std::make_unique<MultigridPreconditioner>(A, geom);
    span.arg("levels", static_cast<std::int64_t>(slot->level_count()));
    span.arg("rows", static_cast<std::int64_t>(A.rows()));
    span.arg("coarse_rows", static_cast<std::int64_t>(
                                slot->unknowns(slot->level_count() - 1)));
  }
  return slot.get();
}

std::vector<double> ThermalModel::gated_rhs(const PowerMap& power,
                                            std::size_t solve_index,
                                            double dt_s) {
  std::vector<double> rhs = build_rhs(power);
  if (dt_s > 0)
    for (std::size_t i = 0; i < rhs.size(); ++i)
      rhs[i] += capacitance_[i] / dt_s * temperatures_[i];
  if (config_.solve.fault.nan_rhs(solve_index))
    rhs[0] = std::numeric_limits<double>::quiet_NaN();
  // Input gate: reject non-finite power before the solver can smear it
  // through the warm-start field.  The field is untouched on this path.
  for (double v : rhs) {
    if (!std::isfinite(v)) {
      ++ledger().health.nonfinite_inputs;
      throw ThermalError(solve_index, 0, 0, 0.0,
                         "non-finite power input (rhs contains NaN/inf)");
    }
  }
  return rhs;
}

SolveResult ThermalModel::attempt_solve(
    const CsrMatrix& A, std::unique_ptr<MultigridPreconditioner>& mg,
    const std::vector<double>& rhs, std::size_t solve_index, int attempt,
    std::string* error) {
  // One span per ladder rung, so a trace shows exactly where the recovery
  // budget went for a misbehaving task.
  static obs::SpanSite rung_warm("thermal.rung.warm", "thermal");
  static obs::SpanSite rung_cold("thermal.rung.cold", "thermal");
  static obs::SpanSite rung_cap("thermal.rung.cap", "thermal");
  static obs::SpanSite rung_gs("thermal.rung.gs", "thermal");
  obs::SpanSite* const rung_sites[4] = {&rung_warm, &rung_cold, &rung_cap,
                                        &rung_gs};
  obs::TraceSpan rung(*rung_sites[attempt]);
  rung.arg("solve", static_cast<std::int64_t>(solve_index));

  SolveOptions opts = config_.solve;
  if (attempt == 2) opts.max_iterations *= kCapRaiseFactor;
  const bool forced_fail = opts.fault.pcg_should_fail(solve_index, attempt);
  if (forced_fail) {
    // A crippled run (two iterations, unreachable tolerance) stands in for
    // genuine divergence: it really mutates the iterate, so the restore
    // paths are exercised against a truly dirtied field.
    opts.max_iterations = std::min<std::size_t>(opts.max_iterations, 2);
    opts.rel_tolerance = 0.0;
  }
  SolveResult sr;
  try {
    // PCG rungs use the hierarchy built for A (nullptr = Jacobi); the
    // Gauss-Seidel rung (attempt 3) has no preconditioner.
    if (attempt == 3) {
      sr = solve_gauss_seidel(A, rhs, temperatures_, opts);
    } else {
      opts.preconditioner = multigrid_for(A, mg);
      sr = solve_pcg(A, rhs, temperatures_, opts);
    }
  } catch (const SolverError& e) {
    // A structural breakdown (e.g. a non-SPD pAp on a bad iterate)
    // escalates exactly like non-convergence.
    *error = e.what();
    return SolveResult{};
  }
  if (forced_fail) sr.converged = false;
  return sr;
}

ThermalResult ThermalModel::solve(const PowerMap& power) {
  static obs::SpanSite solve_site("thermal.solve", "thermal");
  obs::TraceSpan span(solve_site);

  SolveLedger& led = ledger();
  const std::size_t idx = led.solve_index++;
  const std::vector<double> rhs = gated_rhs(power, idx, 0.0);

  // Recovery ladder: warm start, then cold from ambient, then cold with a
  // raised iteration cap, then the Gauss-Seidel fallback.
  const std::vector<double> pre_solve = temperatures_;
  std::string last_error;
  SolveResult sr;
  try {
    sr = attempt_solve(matrix_, mg_, rhs, idx, 0, &last_error);
    for (int attempt = 1; !sr.converged && attempt <= 3; ++attempt) {
      switch (attempt) {
        case 1: ++led.health.cold_restarts; break;
        case 2: ++led.health.cap_retries; break;
        default: ++led.health.gs_fallbacks; break;
      }
      // Discard the diverged iterate; every retry starts cold from ambient.
      std::fill(temperatures_.begin(), temperatures_.end(),
                config_.package.ambient_c);
      sr = attempt_solve(matrix_, mg_, rhs, idx, attempt, &last_error);
    }
  } catch (const CancelledError&) {
    // Cancellation is not a ladder rung: the abandoned attempt left a
    // partial iterate behind, so restore the last good field (the task may
    // be resumed, and a later solve must not warm-start from garbage).
    temperatures_ = pre_solve;
    throw;
  }
  if (!sr.converged) {
    ++led.health.solve_failures;
    temperatures_ = pre_solve;  // no warm-start poisoning for later solves
    throw ThermalError(
        idx, 4, sr.iterations, sr.residual_norm,
        last_error.empty()
            ? "solver did not converge after the full recovery ladder"
            : "recovery ladder exhausted; last solver error: " + last_error);
  }
  solved_ = true;
  if (obs::metrics_enabled()) {
    struct SolveMetrics {
      obs::Counter solves =
          obs::MetricsRegistry::global().counter("thermal.solves");
      obs::Histogram iters = obs::MetricsRegistry::global().histogram(
          "thermal.cg_iterations", obs::pow2_edges(1, 4096));
      obs::Histogram resid = obs::MetricsRegistry::global().histogram(
          "thermal.residual", obs::decade_edges(1e-12, 1.0));
    };
    static SolveMetrics m;
    m.solves.add();
    m.iters.observe(static_cast<double>(sr.iterations));
    m.resid.observe(sr.residual_norm);
  }
  span.arg("solve", static_cast<std::int64_t>(idx));
  span.arg("iters", static_cast<std::int64_t>(sr.iterations));
  return make_result(sr);
}

void ThermalModel::reset_to_ambient() {
  std::fill(temperatures_.begin(), temperatures_.end(),
            config_.package.ambient_c);
  solved_ = true;  // the field is well-defined (ambient everywhere)
}

ThermalResult ThermalModel::step_transient(const PowerMap& power,
                                           double dt_s) {
  TACOS_CHECK(dt_s > 0, "transient step must be positive, got " << dt_s);
  static obs::SpanSite step_site("thermal.step", "thermal");
  obs::TraceSpan span(step_site);
  if (dt_s != transient_dt_s_) {
    // Level 0 of the step hierarchy references transient_matrix_: drop it
    // before the matrix is replaced.
    transient_mg_.reset();
    // Build (G + C/dt) once per step size: same off-diagonals as G, with
    // C/dt added on the diagonal.  It is itself a conductance network
    // (C/dt ties every node to a reference), so the multigrid hierarchy
    // built for it simply sums C/dt into each aggregate's diagonal.
    std::vector<std::size_t> row_ptr = matrix_.row_ptr();
    std::vector<std::size_t> col_idx = matrix_.col_idx();
    std::vector<double> values = matrix_.values();
    for (std::size_t i = 0; i < matrix_.rows(); ++i) {
      bool found = false;
      for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
        if (col_idx[k] == i) {
          values[k] += capacitance_[i] / dt_s;
          found = true;
          break;
        }
      }
      TACOS_ASSERT(found, "row " << i << " has no diagonal entry");
    }
    transient_matrix_ = CsrMatrix(matrix_.rows(), std::move(row_ptr),
                                  std::move(col_idx), std::move(values));
    transient_dt_s_ = dt_s;
  }

  SolveLedger& led = ledger();
  const std::size_t idx = led.solve_index++;
  const std::vector<double> rhs = gated_rhs(power, idx, dt_s);
  // No recovery ladder here: the pre-step field *is* the simulation state,
  // and restarting a transient step from ambient would silently rewrite
  // history.  Restore the state and report instead.
  const std::vector<double> pre_step = temperatures_;
  std::string error;
  SolveResult sr;
  try {
    sr = attempt_solve(transient_matrix_, transient_mg_, rhs, idx, 0, &error);
  } catch (const CancelledError&) {
    temperatures_ = pre_step;  // cancelled mid-step: keep history intact
    throw;
  }
  if (!sr.converged) {
    ++led.health.solve_failures;
    temperatures_ = pre_step;
    throw ThermalError(idx, 1, sr.iterations, sr.residual_norm,
                       error.empty()
                           ? "transient step did not converge (state restored)"
                           : "transient step failed (state restored): " +
                                 error);
  }
  solved_ = true;
  if (obs::metrics_enabled()) {
    static obs::Counter steps =
        obs::MetricsRegistry::global().counter("thermal.steps");
    steps.add();
  }
  span.arg("solve", static_cast<std::int64_t>(idx));
  span.arg("iters", static_cast<std::int64_t>(sr.iterations));
  return make_result(sr);
}

double ThermalModel::current_peak_c() const {
  TACOS_CHECK(solved_, "current_peak_c() before any solve or reset");
  return make_result(SolveResult{}).peak_c;
}

double ThermalModel::total_capacitance() const {
  double c = 0.0;
  for (double v : capacitance_) c += v;
  return c;
}

std::vector<double> ThermalModel::tile_temperatures() const {
  TACOS_CHECK(solved_, "tile_temperatures() before solve()");
  TACOS_CHECK(!tile_cells_.empty(), "layout carries no tiles");
  std::vector<double> out(tile_cells_.size(), 0.0);
  for (std::size_t t = 0; t < tile_cells_.size(); ++t)
    for (const auto& [idx, w] : tile_cells_[t]) out[t] += w * temperatures_[idx];
  return out;
}

std::vector<double> ThermalModel::chiplet_temperatures() const {
  TACOS_CHECK(solved_, "chiplet_temperatures() before solve()");
  std::vector<double> out(chiplet_cells_.size(), 0.0);
  for (std::size_t c = 0; c < chiplet_cells_.size(); ++c)
    for (const auto& [idx, w] : chiplet_cells_[c])
      out[c] += w * temperatures_[idx];
  return out;
}

std::vector<double> ThermalModel::layer_field(std::size_t layer) const {
  TACOS_CHECK(solved_, "layer_field() before solve()");
  TACOS_CHECK(layer < n_layers_, "layer " << layer << " out of range");
  const std::size_t base = layer * grid_.cell_count();
  return {temperatures_.begin() + static_cast<std::ptrdiff_t>(base),
          temperatures_.begin() +
              static_cast<std::ptrdiff_t>(base + grid_.cell_count())};
}

double ThermalModel::energy_balance_error(const PowerMap& power) const {
  TACOS_CHECK(solved_, "energy_balance_error() before solve()");
  const double p_in = power.total();
  if (p_in <= 0) return 0.0;
  return std::abs(p_in - heat_outflow_w()) / p_in;
}

double ThermalModel::stored_heat_j() const {
  double q = 0.0;
  for (std::size_t i = 0; i < capacitance_.size(); ++i)
    q += capacitance_[i] * (temperatures_[i] - config_.package.ambient_c);
  return q;
}

double ThermalModel::heat_outflow_w() const {
  double p = 0.0;
  for (std::size_t i = 0; i < ambient_g_.size(); ++i)
    p += ambient_g_[i] * (temperatures_[i] - config_.package.ambient_c);
  return p;
}

}  // namespace tacos
