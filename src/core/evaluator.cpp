#include "core/evaluator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/errors.hpp"
#include "core/leakage.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "thermal/adjoint.hpp"

namespace tacos {

const char* fidelity_mode_name(FidelityMode m) {
  switch (m) {
    case FidelityMode::kAuto:
      return "auto";
    case FidelityMode::kFull:
      return "full";
    case FidelityMode::kLadder:
      return "ladder";
  }
  return "?";
}

std::optional<FidelityMode> parse_fidelity_mode(std::string_view s) {
  if (s == "auto") return FidelityMode::kAuto;
  if (s == "full") return FidelityMode::kFull;
  if (s == "ladder") return FidelityMode::kLadder;
  return std::nullopt;
}

Evaluator::LayoutKey Evaluator::LayoutKey::of(const Organization& org) {
  // 1 nm quantization: coarser keys (the historical 0.01 mm) collide for
  // the off-grid spacings the continuous refinement stage produces, which
  // would alias distinct layouts onto one cached model/memo entry.
  const auto q = [](double v) { return std::lround(v * 1e6); };
  if (org.n_chiplets == 1) return LayoutKey{1, 0, 0, 0};
  return LayoutKey{org.n_chiplets, q(org.spacing.s1), q(org.spacing.s2),
                   q(org.spacing.s3)};
}

Evaluator::Evaluator(EvalConfig config) : config_(std::move(config)) {
  config_.spec.validate();
  config_.cost.validate();
  const double chip_area =
      config_.spec.chip_edge_mm() * config_.spec.chip_edge_mm();
  cost_2d_ = single_chip_cost(chip_area, config_.cost);
  // Resolve kAuto once, at construction: the ladder is exactly its medium
  // rung, so it is on whenever that rung can be built.
  if (config_.ladder.mode == FidelityMode::kAuto)
    config_.ladder.mode =
        medium_available() ? FidelityMode::kLadder : FidelityMode::kFull;
}

int Evaluator::bench_index(const BenchmarkProfile& bench) const {
  const auto& all = benchmarks();
  for (std::size_t i = 0; i < all.size(); ++i)
    if (all[i].name == bench.name) return static_cast<int>(i);
  TACOS_CHECK(false, "benchmark " << bench.name
                                  << " is not in the registered set");
  return -1;  // unreachable
}

void Evaluator::count_lookup(Cache cache, bool hit) {
  if (!obs::metrics_enabled()) return;
  struct Meter {
    obs::Counter hit, miss;
    explicit Meter(const std::string& name)
        : hit(obs::MetricsRegistry::global().counter(name + ".hit")),
          miss(obs::MetricsRegistry::global().counter(name + ".miss")) {}
  };
  static Meter meters[] = {Meter("eval.cache.model"),
                           Meter("eval.cache.medium"),
                           Meter("eval.cache.memo")};
  Meter& m = meters[static_cast<int>(cache)];
  (hit ? m.hit : m.miss).add();
}

std::shared_ptr<Evaluator::ModelEntry> Evaluator::model_for(
    ModelCache& cache, const Organization& org, const ThermalConfig& thermal,
    SolveLedger& ledger) {
  const LayoutKey key = LayoutKey::of(org);
  const auto it = cache.index.find(key);
  count_lookup(cache.kind, it != cache.index.end());
  if (it != cache.index.end()) {
    cache.lru.splice(cache.lru.begin(), cache.lru, it->second);
    return cache.lru.front().second;
  }
  auto entry = std::make_shared<ModelEntry>();
  entry->layout =
      std::make_unique<ChipletLayout>(layout_for(org, config_.spec));
  const LayerStack stack =
      org.n_chiplets == 1 ? make_2d_stack() : make_25d_stack();
  entry->model = std::make_unique<ThermalModel>(*entry->layout, stack, thermal);
  // All models of a cache share one ledger: the fault plan's solve clock
  // keeps ticking across evictions, and the health counters survive them.
  entry->model->set_ledger(&ledger);
  cache.lru.emplace_front(key, entry);
  cache.index[key] = cache.lru.begin();
  // Eviction only drops the cache's reference; the shared handle we are
  // about to return keeps the new entry alive for the caller even when
  // capacity is 0 and the entry is evicted immediately.
  while (cache.lru.size() > config_.model_cache_capacity) {
    cache.index.erase(cache.lru.back().first);
    cache.lru.pop_back();
  }
  return entry;
}

const ThermalEval* Evaluator::memo_find(const EvalKey& key) const {
  const auto it = eval_memo_.find(key);
  count_lookup(Cache::kMemo, it != eval_memo_.end());
  return it != eval_memo_.end() ? &it->second : nullptr;
}

double Evaluator::reference_power(const Organization& org,
                                  const BenchmarkProfile& bench) const {
  const DvfsLevel& lvl = level_of(org);
  const double per_core =
      core_dynamic_power_w(bench, lvl, config_.power) +
      core_leakage_power_w(bench, lvl, config_.power.t_ref_c, config_.power);
  // Mesh power is computed per layout; for the frontier abscissa a
  // layout-independent estimate suffices (it shifts all entries equally
  // for a given benchmark/level; the safety margin absorbs the rest).
  return org.active_cores * per_core;
}

const ThermalEval& Evaluator::thermal_eval(const Organization& org,
                                           const BenchmarkProfile& bench) {
  const EvalKey key{LayoutKey::of(org), bench_index(bench), org.dvfs_idx,
                    org.active_cores};
  if (const ThermalEval* hit = memo_find(key)) return *hit;
  return evaluate(key, org, bench);
}

const ThermalEval& Evaluator::evaluate(const EvalKey& key,
                                       const Organization& org,
                                       const BenchmarkProfile& bench) {
  // Cache misses only: a memo hit costs nothing and traces nothing.
  static obs::SpanSite eval_site("eval.thermal", "eval");
  obs::TraceSpan span(eval_site);
  if (span.active()) {
    span.arg("n", static_cast<std::int64_t>(org.n_chiplets));
    span.arg("bench", std::string(bench.name));
    span.arg("f", static_cast<std::int64_t>(org.dvfs_idx));
    span.arg("p", static_cast<std::int64_t>(org.active_cores));
  }

  const std::shared_ptr<ModelEntry> entry =
      model_for(models_, org, config_.thermal, ledger_);
  const DvfsLevel& lvl = level_of(org);
  const std::vector<int> active =
      active_tiles(config_.policy, org.active_cores, config_.spec);

  LeakageResult lr;
  try {
    lr = run_leakage_fixed_point(
        *entry->model, *entry->layout, bench, lvl, active, config_.power,
        config_.leak_tol_c, config_.max_leak_iters,
        config_.thermal.solve.fault.leak_force_nonconverge);
  } catch (const Error& e) {
    // The thermal stack already exhausted its recovery ladder (or rejected
    // a non-finite input); add the organization context for quarantine
    // diagnostics and rethrow as an evaluation failure.
    std::ostringstream key_os;
    key_os << "n=" << org.n_chiplets << " s=(" << org.spacing.s1 << " "
           << org.spacing.s2 << " " << org.spacing.s3 << ")";
    throw EvalError(key_os.str(), std::string(bench.name), org.dvfs_idx,
                    org.active_cores, e.what());
  }
  ThermalEval ev;
  ev.peak_c = lr.peak_c;
  ev.total_power_w = lr.total_power_w;
  ev.leak_iterations = lr.iterations;
  ev.solves = static_cast<std::size_t>(lr.iterations);
  ev.leak_converged = lr.converged;
  if (!lr.converged) ++ledger_.health.leak_nonconverged;
  solve_count_ += ev.solves;
  ++eval_count_;

  // Record in the monotone frontier — converged evaluations only.  An
  // unconverged peak is the last iterate of an unsettled fixed point, not
  // a trustworthy monotone bound; letting it into the frontier would have
  // feasible() short-circuit later queries off a bad number.  (The memo
  // above still records it, explicitly flagged via leak_converged.  A
  // quarantined evaluation — EvalError above — records nothing at all.)
  if (lr.converged)
    frontier_[FrontierKey{key.layout, org.active_cores}].emplace_back(
        reference_power(org, bench), ev.peak_c);

  // Ladder bookkeeping: close out any pending medium-rung estimate for
  // this candidate (it calibrates the rung's residual bounds).
  if (ladder_active()) record_full_result(key, ev);

  return eval_memo_.emplace(key, ev).first->second;
}

Evaluator::PeakGradient Evaluator::peak_gradient(
    const Organization& org, const BenchmarkProfile& bench) {
  TACOS_CHECK(org.n_chiplets == 16,
              "spacing gradients are defined for the 16-chiplet "
              "organization only (got n="
                  << org.n_chiplets << ")");
  static obs::SpanSite grad_site("refine.gradient", "refine");
  obs::TraceSpan span(grad_site);
  if (span.active()) {
    span.arg("bench", std::string(bench.name));
    span.arg("f", static_cast<std::int64_t>(org.dvfs_idx));
    span.arg("p", static_cast<std::int64_t>(org.active_cores));
  }

  const std::shared_ptr<ModelEntry> entry =
      model_for(models_, org, config_.thermal, ledger_);
  const DvfsLevel& lvl = level_of(org);
  const std::vector<int> active =
      active_tiles(config_.policy, org.active_cores, config_.spec);

  const auto rethrow = [&](const Error& e) {
    std::ostringstream key_os;
    key_os << "n=" << org.n_chiplets << " s=(" << org.spacing.s1 << " "
           << org.spacing.s2 << " " << org.spacing.s3 << ")";
    throw EvalError(key_os.str(), std::string(bench.name), org.dvfs_idx,
                    org.active_cores, e.what());
  };

  // The adjoint identity needs a consistent (q, T) pair.  On fixed-point
  // convergence the model's field was solved against the *previous*
  // iterate's power map, so converge the loop, rebuild the map from the
  // final tile temperatures (recording source ownership for the rigid-
  // translation geometry), and pay one more forward solve.
  LeakageResult lr;
  try {
    lr = run_leakage_fixed_point(
        *entry->model, *entry->layout, bench, lvl, active, config_.power,
        config_.leak_tol_c, config_.max_leak_iters,
        config_.thermal.solve.fault.leak_force_nonconverge);
  } catch (const Error& e) {
    rethrow(e);
  }
  const std::vector<double> tile_temps = entry->model->tile_temperatures();
  std::vector<int> source_chiplet;
  const PowerMap pm =
      build_power_map(*entry->layout, bench, lvl, active, tile_temps,
                      config_.power, 1.0, &source_chiplet);
  ThermalResult tr;
  try {
    tr = entry->model->solve(pm);
  } catch (const Error& e) {
    rethrow(e);
  }
  solve_count_ += static_cast<std::size_t>(lr.iterations) + 1;

  ThermalModel::AdjointInfo ainfo;
  const std::vector<double>& lambda = entry->model->adjoint_peak(&ainfo);
  ++refine_stats_.adjoint_solves;
  if (obs::metrics_enabled()) {
    static obs::Counter adjoints =
        obs::MetricsRegistry::global().counter("refine.adjoint_solves");
    adjoints.add();
  }
  if (span.active())
    span.arg("adjoint_iters", static_cast<std::int64_t>(ainfo.iterations));

  PeakGradient g;
  g.peak_c = tr.peak_c;
  for (int param = 0; param < 2; ++param) {
    const std::vector<ChipletVelocity> vel =
        org16_spacing_velocities(*entry->layout, param);
    const double d = peak_spacing_gradient(*entry->model, lambda, pm,
                                           source_chiplet, *entry->layout,
                                           vel);
    (param == 0 ? g.d_s1 : g.d_s2) = d;
  }
  return g;
}

std::optional<bool> Evaluator::frontier_verdict(const EvalKey& key,
                                                const Organization& org,
                                                const BenchmarkProfile& bench,
                                                double threshold_c) const {
  // Monotone frontier: for the same layout and active-core pattern, peak
  // temperature grows with injected power.
  const auto it = frontier_.find(FrontierKey{key.layout, org.active_cores});
  if (it == frontier_.end()) return std::nullopt;
  const double p_ref = reference_power(org, bench);
  const double margin = config_.frontier_margin_c;
  for (const auto& [p_known, peak_known] : it->second) {
    if (p_known >= p_ref && peak_known <= threshold_c - margin)
      return true;  // even more power stayed comfortably below
    if (p_known <= p_ref && peak_known > threshold_c + margin)
      return false;  // even less power was clearly above
  }
  return std::nullopt;
}

bool Evaluator::feasible(const Organization& org,
                         const BenchmarkProfile& bench, double threshold_c) {
  const EvalKey key{LayoutKey::of(org), bench_index(bench), org.dvfs_idx,
                    org.active_cores};
  if (const ThermalEval* hit = memo_find(key))
    return hit->peak_c <= threshold_c;
  if (const auto v = frontier_verdict(key, org, bench, threshold_c)) return *v;
  return evaluate(key, org, bench).peak_c <= threshold_c;
}

double Evaluator::ips(const Organization& org,
                      const BenchmarkProfile& bench) const {
  static obs::SpanSite perf_site("eval.perf", "eval");
  obs::TraceSpan span(perf_site);
  return system_ips(bench, level_of(org).freq_mhz, org.active_cores);
}

double Evaluator::cost(const Organization& org) const {
  static obs::SpanSite cost_site("eval.cost", "eval");
  obs::TraceSpan span(cost_site);
  if (org.n_chiplets == 1) return cost_2d_;
  const double edge = interposer_edge_of(org, config_.spec);
  const double chiplet_edge =
      config_.spec.chip_edge_mm() / (org.n_chiplets == 4 ? 2 : 4);
  return system_cost_25d(org.n_chiplets, chiplet_edge * chiplet_edge,
                         edge * edge, config_.cost);
}

const BaselinePoint& Evaluator::baseline_2d(const BenchmarkProfile& bench,
                                            double threshold_c) {
  const auto key = std::make_pair(bench_index(bench),
                                  std::lround(threshold_c * 100.0));
  if (auto it = baseline_memo_.find(key); it != baseline_memo_.end())
    return it->second;

  static obs::SpanSite baseline_site("eval.baseline", "eval");
  obs::TraceSpan span(baseline_site);
  span.arg("bench", std::string(bench.name));

  // Enumerate the 40 (f, p) pairs in descending IPS order and return the
  // first thermally feasible one.
  struct Cand {
    std::size_t f;
    int p;
    double ips;
  };
  std::vector<Cand> cands;
  for (std::size_t f = 0; f < kDvfsLevelCount; ++f)
    for (int p : kActiveCoreChoices)
      cands.push_back({f, p, system_ips(bench, kDvfsLevels[f].freq_mhz, p)});
  std::sort(cands.begin(), cands.end(),
            [](const Cand& a, const Cand& b) { return a.ips > b.ips; });

  BaselinePoint best;
  best.feasible = false;  // explicit: stays infeasible if nothing fits
  for (const Cand& c : cands) {
    Organization org{1, {}, c.f, c.p};
    // Fidelity ladder: skip candidates the calibrated medium rung
    // confidently puts above the threshold — the same verdict (infeasible
    // → next candidate) the full walk would reach, minus the leakage fixed
    // point.
    if (screen_infeasible(org, bench, threshold_c)) continue;
    if (feasible(org, bench, threshold_c)) {
      best.dvfs_idx = c.f;
      best.active_cores = c.p;
      best.ips = c.ips;
      best.peak_c = thermal_eval(org, bench).peak_c;
      best.feasible = true;
      break;
    }
  }
  // Memoized either way: an infeasible threshold is a legitimate, stable
  // answer (feasible == false), not a cache miss to retry.
  return baseline_memo_.emplace(key, best).first->second;
}

// --- Fidelity ladder ---------------------------------------------------

bool Evaluator::rung_verdict(const EvalKey& key, double est_c,
                             double reject_above_c) const {
  const auto it = calib_.find(RungKey{key.bench_idx, key.layout.n});
  if (it == calib_.end() || it->second.count < config_.ladder.min_calibration)
    return false;  // uncalibrated: the rung has no opinion yet
  // min_resid is the most optimistic full − estimate seen out-of-sample;
  // even if this estimate errs as far low as any before it, the candidate
  // still clears the threshold by the safety margin.
  return est_c + it->second.min_resid - config_.ladder.safety_margin_c >
         reject_above_c;
}

bool Evaluator::medium_available() {
  if (!medium_init_) {
    medium_init_ = true;
    const std::size_t nx = config_.thermal.grid_nx / 2;
    const std::size_t ny = config_.thermal.grid_ny / 2;
    if (nx >= config_.ladder.medium_grid_min &&
        ny >= config_.ladder.medium_grid_min) {
      medium_thermal_ = config_.thermal;
      medium_thermal_->grid_nx = nx;
      medium_thermal_->grid_ny = ny;
      // Screening solves keep their own clean fault clock: the plan's
      // pcg_fail_* indices target the full path; screen_fail_* becomes
      // a whole-recovery-ladder failure on the medium ledger's own solve
      // index.  (The cancel token is inherited — screening must stay
      // responsive to batch shutdown.)
      const FaultPlan& plan = config_.thermal.solve.fault;
      FaultPlan screen;
      screen.pcg_fail_at = plan.screen_fail_at;
      screen.pcg_fail_every = plan.screen_fail_every;
      screen.pcg_fail_rungs = 4;
      medium_thermal_->solve.fault = screen;
    }
  }
  return medium_thermal_.has_value();
}

std::optional<double> Evaluator::medium_estimate(const EvalKey& key,
                                                 const Organization& org,
                                                 const BenchmarkProfile& bench,
                                                 bool* fresh) {
  *fresh = false;
  if (!medium_available()) return std::nullopt;
  if (auto it = medium_memo_.find(key); it != medium_memo_.end())
    return it->second;
  *fresh = true;
  static obs::SpanSite r2_site("eval.rung2", "eval");
  obs::TraceSpan span(r2_site);
  try {
    const std::shared_ptr<ModelEntry> entry =
        model_for(medium_models_, org, *medium_thermal_, medium_ledger_);
    const std::vector<int> active =
        active_tiles(config_.policy, org.active_cores, config_.spec);
    const LeakageResult lr = run_leakage_fixed_point(
        *entry->model, *entry->layout, bench, level_of(org), active,
        config_.power,
        std::max(config_.leak_tol_c, config_.ladder.medium_leak_tol_c),
        config_.max_leak_iters);
    ladder_stats_.medium_solves += static_cast<std::size_t>(lr.iterations);
    if (span.active()) span.arg("est_c", lr.peak_c);
    if (!lr.converged) return std::nullopt;
    medium_memo_.emplace(key, lr.peak_c);
    pending_est_[key] = lr.peak_c;
    return lr.peak_c;
  } catch (const Error&) {
    ++ladder_stats_.medium_failures;
    return std::nullopt;
  }
}

bool Evaluator::screen_infeasible(const Organization& org,
                                  const BenchmarkProfile& bench,
                                  double reject_above_c) {
  if (!ladder_active()) return false;
  const EvalKey key{LayoutKey::of(org), bench_index(bench), org.dvfs_idx,
                    org.active_cores};
  // An exact memoized answer beats the rung (and costs nothing).  Only
  // converged results reject — same discipline as the frontier.
  if (const ThermalEval* hit = memo_find(key))
    return hit->leak_converged && hit->peak_c > reject_above_c;

  ++ladder_stats_.screened;
  // Full leakage fixed point on a half-resolution model (separate cache
  // and ledger; never ticks the full path's solve clock).
  bool fresh = false;
  if (const auto est = medium_estimate(key, org, bench, &fresh);
      est && rung_verdict(key, *est, reject_above_c)) {
    ++ladder_stats_.rejected;
    return true;
  }
  ++ladder_stats_.promoted;
  return false;
}

Evaluator::WalkEval Evaluator::walk_eval(const Organization& org,
                                         const BenchmarkProfile& bench,
                                         double threshold_c,
                                         double prune_above_c) {
  const EvalKey key{LayoutKey::of(org), bench_index(bench), org.dvfs_idx,
                    org.active_cores};
  if (const ThermalEval* hit = memo_find(key))
    return WalkEval{hit->peak_c, 0.0, true, hit->peak_c <= threshold_c};
  const auto exact_of = [&]() -> WalkEval {
    const double peak = evaluate(key, org, bench).peak_c;
    return WalkEval{peak, 0.0, true, peak <= threshold_c};
  };
  if (!ladder_active()) return exact_of();
  // The same margin-guarded frontier shortcut the full path's feasible()
  // takes.  A deduced-feasible verdict commits without a solve in either
  // mode; a deduced-infeasible one settles feasibility but not the peak.
  const std::optional<bool> fv = frontier_verdict(key, org, bench,
                                                  threshold_c);
  if (fv == true) return WalkEval{threshold_c, 0.0, false, true};

  bool fresh = false;
  const std::optional<double> est = medium_estimate(key, org, bench, &fresh);
  if (fresh) ++ladder_stats_.screened;
  const auto promote = [&]() -> WalkEval {
    if (fresh) ++ladder_stats_.promoted;
    return exact_of();
  };
  if (!est) return promote();  // rung unavailable / failed / unconverged

  // Prefer the walk-grade bound (same operating point, placement-only
  // residuals); fall back to the pooled per-(bench, n) bound while the
  // combo's own walk is still warming up.
  const ResidBound* bp = nullptr;
  if (const auto wit = walk_calib_.find(
          WalkKey{key.bench_idx, key.layout.n, key.dvfs_idx, key.p});
      wit != walk_calib_.end() &&
      wit->second.count >= config_.ladder.min_calibration)
    bp = &wit->second;
  else if (const auto cit = calib_.find(RungKey{key.bench_idx, key.layout.n});
           cit != calib_.end() &&
           cit->second.count >= config_.ladder.min_calibration)
    bp = &cit->second;
  if (!bp) return promote();  // cold start: exact, which also calibrates
  const ResidBound& b = *bp;
  const double sm = config_.ladder.safety_margin_c;
  // Absolute verdicts (feasibility, prune boundary) are walk-fatal when
  // wrong, so they demand the full safety margin on the calibrated
  // residual extremes.  Any boundary the interval straddles → exact.
  const bool infeasible_sure =
      fv == false || *est + b.min_resid - sm > threshold_c;
  const bool prune_sure =
      !std::isfinite(prune_above_c) ||
      *est + b.min_resid - sm > prune_above_c ||
      *est + b.max_resid + sm <= prune_above_c;
  if (!infeasible_sure || !prune_sure) return promote();
  if (fresh) ++ladder_stats_.rejected;
  // Bias-corrected estimate for peak ordering; the band is the residual
  // half-spread, reported so callers (and tests) can see how tight the
  // calibration is at this operating point.
  return WalkEval{*est + 0.5 * (b.min_resid + b.max_resid),
                  0.5 * (b.max_resid - b.min_resid), false, false};
}

void Evaluator::record_full_result(const EvalKey& key, const ThermalEval& ev) {
  const auto pit = pending_est_.find(key);
  if (pit == pending_est_.end()) return;
  if (ev.leak_converged) {
    const double resid = ev.peak_c - pit->second;
    const auto absorb = [&](ResidBound& cb) {
      cb.min_resid = cb.count == 0 ? resid : std::min(cb.min_resid, resid);
      cb.max_resid = cb.count == 0 ? resid : std::max(cb.max_resid, resid);
      ++cb.count;
    };
    absorb(calib_[RungKey{key.bench_idx, key.layout.n}]);
    absorb(walk_calib_[WalkKey{key.bench_idx, key.layout.n, key.dvfs_idx,
                               key.p}]);
  }
  pending_est_.erase(pit);
}

}  // namespace tacos
