#include "core/optimizer.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>

#include "common/thread_pool.hpp"
#include "core/refine.hpp"
#include "obs/trace.hpp"

namespace tacos {

long spacing_grid_max(double budget_mm, double step_mm) {
  return std::lround(std::floor(budget_mm / 2.0 / step_mm + 1e-9));
}

std::pair<long, long> greedy_smart_start(double budget_mm, double step_mm) {
  const long grid_max = spacing_grid_max(budget_mm, step_mm);
  // Uniform matrix placement s1 = s3 = B/3, s2 = s3/2, snapped to the
  // nearest grid points (the historical rounding, which every recorded
  // journal and frontier winner depends on).  Nearest rounding alone can
  // leave the Eq. 9/10 manifold when the budget is not a step multiple:
  // i1 <= grid_max keeps s3 >= 0 only up to the epsilon the grid_max
  // guard admits, and a nearest-rounded i2 at the top of the grid can
  // overshoot the Eq. 10 bound (2*s2 <= budget) by the same epsilon —
  // which the layout factory's strict checks reject.  So the start is
  // rounded *down* onto the manifold whenever nearest overshoots it: the
  // strict comparison never fires for step-divisible budgets (historical
  // starts are bit-identical) and only demotes the genuinely off-manifold
  // ones.
  long i1 = std::lround(budget_mm / 3.0 / step_mm);
  i1 = std::clamp(i1, 0L, grid_max);
  long i2 = std::lround((budget_mm - 2 * i1 * step_mm) / 2.0 / step_mm);
  i2 = std::clamp(i2, 0L, grid_max);
  while (i1 > 0 && 2 * i1 * step_mm > budget_mm) --i1;          // s3 >= 0
  while (i2 > 0 && 2 * i2 * step_mm > budget_mm) --i2;          // Eq. 10
  return {i1, i2};
}

namespace {

/// Smallest interposer edge for n chiplets (fully packed, Eq. 9).
double min_interposer(const SystemSpec& spec) {
  return spec.chip_edge_mm() + 2 * spec.guard_band_mm;
}


/// The spacing-budget of a combo: total gap along one axis (Eq. 9).
double spacing_budget(const Combo& combo, const SystemSpec& spec) {
  return combo.interposer_mm - min_interposer(spec);
}

Organization make_org(const Combo& combo, const Spacing& s) {
  return Organization{combo.n_chiplets, s, combo.dvfs_idx,
                      combo.active_cores};
}

/// Spacing for the n=16 manifold point (s1, s2) at budget B.  The clamps
/// absorb representation error at the top of the grid: budgets are
/// accumulated in step_mm increments, so a budget sitting epsilon below an
/// exact step multiple lets spacing_grid_max's epsilon guard round up and
/// 2 * s1 (or 2 * s2) overshoot the budget by ~1e-9 mm — which the layout
/// factory's strict s3 >= 0 and Eq. 10 checks would reject.  Both clamps
/// bind only in that epsilon band (s2 <= grid_max * step <= B/2 + eps), so
/// every historically reachable point is unchanged.
Spacing spacing16(double s1, double s2, double budget) {
  const double s3 = std::max(0.0, budget - 2 * s1);
  return Spacing{s1, std::min(s2, s1 + s3 / 2.0), s3};
}

/// IPS fallback normalizer when no 2D point is thermally feasible: the
/// weakest operating point (Eq. (5) still needs a positive IPS_2D).
double ips_2d_or_fallback(const Evaluator& eval, const BenchmarkProfile& bench,
                          const BaselinePoint& base) {
  if (base.feasible) return base.ips;
  Organization weakest{1, {}, kDvfsLevelCount - 1, kActiveCoreChoices.front()};
  return eval.ips(weakest, bench);
}

}  // namespace

std::vector<Combo> enumerate_combos(const Evaluator& eval,
                                    const BenchmarkProfile& bench,
                                    double ips_2d, double cost_2d,
                                    const OptimizerOptions& opts) {
  TACOS_CHECK(ips_2d > 0 && cost_2d > 0, "normalizers must be positive");
  TACOS_CHECK(opts.step_mm > 0, "granularity must be positive");
  const SystemSpec& spec = eval.config().spec;
  // Interposer sizes start at the packed minimum and advance by the grid
  // step, so every combination's spacing budget is step-aligned.
  const double w_min = min_interposer(spec);

  std::vector<Combo> combos;
  for (int n : opts.chiplet_counts) {
    TACOS_CHECK(n == 4 || n == 16, "chiplet count must be 4 or 16, got " << n);
    const double chiplet_edge = spec.chip_edge_mm() / (n == 4 ? 2 : 4);
    for (double w = w_min; w <= spec.max_interposer_mm + 1e-9;
         w += opts.step_mm) {
      const double cost = system_cost_25d(n, chiplet_edge * chiplet_edge,
                                          w * w, eval.config().cost);
      for (std::size_t f = 0; f < kDvfsLevelCount; ++f) {
        for (int p : kActiveCoreChoices) {
          Combo c;
          c.dvfs_idx = f;
          c.active_cores = p;
          c.n_chiplets = n;
          c.interposer_mm = w;
          c.ips = system_ips(bench, kDvfsLevels[f].freq_mhz, p);
          c.cost = cost;
          c.objective =
              opts.alpha * ips_2d / c.ips + opts.beta * c.cost / cost_2d;
          combos.push_back(c);
        }
      }
    }
  }
  std::sort(combos.begin(), combos.end(), [](const Combo& a, const Combo& b) {
    if (a.objective != b.objective) return a.objective < b.objective;
    // Deterministic tie-breaks: cheaper, then smaller, then faster.
    if (a.cost != b.cost) return a.cost < b.cost;
    if (a.n_chiplets != b.n_chiplets) return a.n_chiplets < b.n_chiplets;
    if (a.dvfs_idx != b.dvfs_idx) return a.dvfs_idx < b.dvfs_idx;
    return a.active_cores < b.active_cores;
  });
  return combos;
}

std::optional<Organization> find_placement_greedy(
    Evaluator& eval, const BenchmarkProfile& bench, const Combo& combo,
    const OptimizerOptions& opts, Rng& rng) {
  const SystemSpec& spec = eval.config().spec;
  const double budget = spacing_budget(combo, spec);
  TACOS_CHECK(budget >= -1e-9, "combo interposer below the packed minimum");

  if (combo.n_chiplets == 4) {
    // Eq. (9) pins the single spacing; nothing to search.
    const Organization org = make_org(combo, Spacing{0, 0, budget});
    // Fidelity ladder: a calibrated low-fidelity reject stands in for the
    // full infeasibility verdict.  No RNG is consumed on either path, so
    // the decision is placement-for-placement identical when the screen
    // promotes (see Evaluator::screen_infeasible).
    if (opts.prune_margin_c > 0 &&
        eval.screen_infeasible(org, bench, opts.threshold_c))
      return std::nullopt;
    if (eval.feasible(org, bench, opts.threshold_c)) return org;
    return std::nullopt;
  }

  // n = 16: search the (s1, s2) manifold.
  const double step = opts.step_mm;
  const long grid_max = spacing_grid_max(budget, step);
  const auto org_at = [&](long i1, long i2) {
    return make_org(combo, spacing16(i1 * step, i2 * step, budget));
  };

  // One walk-candidate verdict.  Full mode: the historical
  // feasible()-then-thermal_eval pair (exact peaks, frontier shortcut
  // intact).  Ladder mode: Evaluator::walk_eval, which substitutes a
  // calibrated medium-rung estimate for candidates it is sure are
  // infeasible and clear of `prune_above`, and promotes every ambiguous
  // one to the identical exact evaluation.
  const auto cand_eval = [&](const Organization& o,
                             double prune_above) -> Evaluator::WalkEval {
    if (eval.ladder_active())
      return eval.walk_eval(o, bench, opts.threshold_c, prune_above);
    Evaluator::WalkEval w;
    if (eval.feasible(o, bench, opts.threshold_c)) {
      w.feasible = true;
      return w;
    }
    w.peak_c = eval.thermal_eval(o, bench).peak_c;
    return w;
  };
  constexpr double kNoPrune = std::numeric_limits<double>::quiet_NaN();

  // Neighbour shuffles draw from a child stream seeded per (combo, start),
  // not from the shared per-benchmark Rng: the number of move rounds a
  // walk takes (and hence its draw count) depends on evaluation fidelity,
  // and letting it advance the shared stream would make every later
  // combo's random starts — and so the chosen organization — depend on
  // how early previous walks happened to terminate.  With the fork, the
  // shared stream advances exactly two draws per random start in every
  // fidelity mode.
  const auto walk_rng_for = [&](int start) {
    std::uint64_t h = opts.seed;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(static_cast<std::uint64_t>(combo.dvfs_idx));
    mix(static_cast<std::uint64_t>(combo.active_cores));
    mix(static_cast<std::uint64_t>(combo.n_chiplets));
    mix(static_cast<std::uint64_t>(std::llround(combo.interposer_mm * 100)));
    mix(static_cast<std::uint64_t>(start));
    return Rng(h);
  };

  for (int start = 0; start < opts.starts; ++start) {
    if (opts.cancel) opts.cancel->poll();
    long i1, i2;
    if (start == 0) {
      // Deterministic first start: the uniform matrix placement
      // (s1 = s3 = B/3, s2 = s3/2), usually the best heat spreader.
      std::tie(i1, i2) = greedy_smart_start(budget, step);
    } else {
      // uniform_long: grid_max does not fit in int at fine steps on large
      // interposers, and the old int cast truncated (implementation-
      // defined wrap biasing the starts).  In-int-range draws consume the
      // engine identically to the historical uniform_int path.
      i1 = rng.uniform_long(0, grid_max);
      i2 = rng.uniform_long(0, grid_max);
    }

    Organization cur = org_at(i1, i2);
    // Fidelity ladder: screen the deterministic uniform probe against the
    // prune bound before paying for the full evaluation.  A reject takes
    // exactly the branch the full path's prune would have taken (before
    // any RNG draw); a promote falls through to the unchanged full path.
    if (start == 0 && opts.prune_margin_c > 0 &&
        eval.screen_infeasible(cur, bench,
                               opts.threshold_c + opts.prune_margin_c)) {
      return std::nullopt;  // screened: uniform probe far too hot
    }
    Evaluator::WalkEval cur_e =
        cand_eval(cur, start == 0 && opts.prune_margin_c > 0
                           ? opts.threshold_c + opts.prune_margin_c
                           : kNoPrune);
    if (cur_e.feasible) return cur;
    if (start == 0 && opts.prune_margin_c > 0 &&
        cur_e.peak_c > opts.threshold_c + opts.prune_margin_c) {
      return std::nullopt;  // uniform probe far too hot: prune this combo
    }

    Rng walk_rng = walk_rng_for(start);
    for (int move = 0; move < opts.max_moves; ++move) {
      if (opts.cancel) opts.cancel->poll();
      // The four ±step neighbours on the manifold, in random order (the
      // paper picks neighbours randomly to avoid ordering bias).
      std::array<std::pair<long, long>, 4> nbs = {
          {{i1 + 1, i2}, {i1 - 1, i2}, {i1, i2 + 1}, {i1, i2 - 1}}};
      std::shuffle(nbs.begin(), nbs.end(), walk_rng.engine());
      bool moved = false;
      for (const auto& [n1, n2] : nbs) {
        if (n1 < 0 || n1 > grid_max || n2 < 0 || n2 > grid_max) continue;
        const Organization nb = org_at(n1, n2);
        Evaluator::WalkEval nb_e = cand_eval(nb, kNoPrune);
        if (nb_e.feasible) return nb;
        if (nb_e.peak_c < cur_e.peak_c) {
          i1 = n1;
          i2 = n2;
          cur_e = nb_e;
          moved = true;
          break;  // S_neighbor becomes S_current
        }
      }
      if (!moved) break;  // local minimum: try the next starting point
    }
  }
  return std::nullopt;
}

std::optional<Organization> find_placement_exhaustive(
    Evaluator& eval, const BenchmarkProfile& bench, const Combo& combo,
    const OptimizerOptions& opts) {
  const SystemSpec& spec = eval.config().spec;
  const double budget = spacing_budget(combo, spec);
  if (combo.n_chiplets == 4) {
    const Organization org = make_org(combo, Spacing{0, 0, budget});
    if (eval.thermal_eval(org, bench).peak_c <= opts.threshold_c) return org;
    return std::nullopt;
  }
  const double step = opts.step_mm;
  const long grid_max = spacing_grid_max(budget, step);
  std::optional<Organization> found;
  // True exhaustive semantics: evaluate every placement in the manifold
  // (this is what makes the paper's exhaustive baseline cost 180k CPU
  // hours), then report the feasible one with the lowest peak.
  double best_peak = 1e300;
  for (long i1 = 0; i1 <= grid_max; ++i1) {
    if (opts.cancel) opts.cancel->poll();
    for (long i2 = 0; i2 <= grid_max; ++i2) {
      const Organization org =
          make_org(combo, spacing16(i1 * step, i2 * step, budget));
      const double peak = eval.thermal_eval(org, bench).peak_c;
      if (peak <= opts.threshold_c && peak < best_peak) {
        best_peak = peak;
        found = org;
      }
    }
  }
  return found;
}

namespace {

template <typename PlacementFn>
OptResult optimize_impl(Evaluator& eval, const BenchmarkProfile& bench,
                        const OptimizerOptions& opts, PlacementFn&& placer) {
  const std::size_t solves_before = eval.solve_count();
  const BaselinePoint& base = eval.baseline_2d(bench, opts.threshold_c);
  const double ips_2d = ips_2d_or_fallback(eval, bench, base);
  const std::vector<Combo> combos =
      enumerate_combos(eval, bench, ips_2d, eval.cost_2d(), opts);

  OptResult res;
  for (const Combo& combo : combos) {
    if (opts.cancel) opts.cancel->poll();
    ++res.combos_tried;
    const std::optional<Organization> org = placer(combo);
    if (org) {
      res.found = true;
      res.org = *org;
      res.ips = combo.ips;
      res.cost = eval.cost(*org);
      res.objective = combo.objective;
      res.peak_c = eval.thermal_eval(*org, bench).peak_c;
      // Continuous refinement: descend off the grid from the winner with
      // exact adjoint gradients.  The combination is frozen, so objective,
      // IPS and cost stand; only spacings (and the peak) can improve.
      if (opts.refine && res.org.n_chiplets == 16) {
        const RefineResult rr = refine_spacing(
            eval, bench, res.org, spacing_budget(combo, eval.config().spec),
            opts.step_mm, opts.refine_tol_mm, opts.refine_max_steps,
            opts.cancel);
        if (rr.steps > 0) {
          res.refined = true;
          res.grid_spacing = res.org.spacing;
          res.peak_grid_c = res.peak_c;
          res.refine_steps = rr.steps;
          res.org = rr.org;
          res.peak_c = rr.peak_c;
          res.cost = eval.cost(res.org);  // area-only: unchanged by spacing
        }
      }
      break;
    }
  }
  res.thermal_solves = eval.solve_count() - solves_before;
  return res;
}

}  // namespace

OptResult optimize_greedy(Evaluator& eval, const BenchmarkProfile& bench,
                          const OptimizerOptions& opts) {
  Rng rng(opts.seed);
  return optimize_impl(eval, bench, opts, [&](const Combo& c) {
    return find_placement_greedy(eval, bench, c, opts, rng);
  });
}

namespace {

/// Exact (round-trippable) rendering for journal payloads.
std::string fmt_g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Reads one whitespace-delimited token as a double via strtod, which —
/// unlike istream extraction — accepts the "inf"/"nan" spellings that
/// %.17g emits for non-finite values.
bool read_double(std::istream& in, double* out) {
  std::string tok;
  if (!(in >> tok)) return false;
  char* end = nullptr;
  *out = std::strtod(tok.c_str(), &end);
  return end == tok.c_str() + tok.size();
}

}  // namespace

std::string batch_meta(const EvalConfig& config,
                       const std::vector<std::string>& bench_names,
                       const OptimizerOptions& opts) {
  std::ostringstream m;
  m << "grid=" << config.thermal.grid_nx << 'x' << config.thermal.grid_ny
    << " alpha=" << fmt_g17(opts.alpha) << " beta=" << fmt_g17(opts.beta)
    << " threshold=" << fmt_g17(opts.threshold_c)
    << " step=" << fmt_g17(opts.step_mm) << " starts=" << opts.starts
    << " max_moves=" << opts.max_moves << " seed=" << opts.seed
    << " prune=" << fmt_g17(opts.prune_margin_c)
    << " fidelity=" << fidelity_mode_name(config.ladder.mode)
    << " keep_frac=" << fmt_g17(config.ladder.keep_frac)
    << " min_calib=" << config.ladder.min_calibration
    << " ladder_margin=" << fmt_g17(config.ladder.safety_margin_c);
  // Refinement knobs enter the fingerprint only when the stage is on, so
  // journals of non-refined sweeps stay byte-identical to prior releases.
  if (opts.refine)
    m << " refine=1 refine_tol=" << fmt_g17(opts.refine_tol_mm)
      << " refine_max_steps=" << opts.refine_max_steps;
  m << " n=";
  for (std::size_t i = 0; i < opts.chiplet_counts.size(); ++i)
    m << (i ? "," : "") << opts.chiplet_counts[i];
  m << " benches=";
  for (std::size_t i = 0; i < bench_names.size(); ++i)
    m << (i ? "," : "") << bench_names[i];
  return m.str();
}

std::string encode_opt_result(const OptResult& result,
                              const EvalStats& stats) {
  std::ostringstream os;
  os << "found " << (result.found ? 1 : 0) << '\n'
     << "org " << result.org.n_chiplets << ' ' << fmt_g17(result.org.spacing.s1)
     << ' ' << fmt_g17(result.org.spacing.s2) << ' '
     << fmt_g17(result.org.spacing.s3) << ' ' << result.org.dvfs_idx << ' '
     << result.org.active_cores << '\n'
     << "metrics " << fmt_g17(result.ips) << ' ' << fmt_g17(result.cost) << ' '
     << fmt_g17(result.objective) << ' ' << fmt_g17(result.peak_c) << '\n'
     << "counts " << result.combos_tried << ' ' << result.thermal_solves
     << '\n'
     << "quarantined " << (result.quarantined ? 1 : 0) << '\n';
  // The pre-refinement grid winner travels with the row (emitted only when
  // refinement accepted a step: grid-only payloads stay byte-identical to
  // earlier releases, and older decoders skip the unknown key).
  if (result.refined)
    os << "refined " << fmt_g17(result.peak_grid_c) << ' '
       << fmt_g17(result.grid_spacing.s1) << ' '
       << fmt_g17(result.grid_spacing.s2) << ' '
       << fmt_g17(result.grid_spacing.s3) << ' ' << result.refine_steps
       << '\n';
  if (!result.diagnostic.empty())
    os << "diagnostic " << escape_field(result.diagnostic) << '\n';
  const RunHealth& h = stats.health;
  os << "stats " << stats.solves << ' ' << stats.evals << '\n'
     << "health " << h.cold_restarts << ' ' << h.cap_retries << ' '
     << h.gs_fallbacks << ' ' << h.solve_failures << ' ' << h.nonfinite_inputs
     << ' ' << h.leak_nonconverged << ' ' << h.quarantined << ' ' << h.timeouts
     << ' ' << h.cancelled << '\n';
  // Rung metadata travels with the row so a resumed ladder sweep replays
  // its screening counters identically.  Emitted only when the ladder ran:
  // full-mode payloads stay byte-identical to earlier releases, and older
  // decoders skip the unknown key.  Fields 5-8 held the counters of the
  // retired surrogate and coarse-solve rungs; they stay in the layout as
  // zeros so every build decodes every row.
  const LadderStats& l = stats.ladder;
  if (l.any())
    os << "ladder " << l.screened << ' ' << l.rejected << ' ' << l.promoted
       << ' ' << l.audits << " 0 0 0 0 " << l.medium_solves << ' '
       << l.medium_failures << '\n';
  const RefineStats& r = stats.refine;
  if (r.any())
    os << "refine " << r.attempted << ' ' << r.steps << ' ' << r.trials
       << ' ' << r.adjoint_solves << '\n';
  return os.str();
}

std::string encode_refine_row(const OptResult& result) {
  TACOS_CHECK(result.refined, "refine row encodes a refined result only");
  std::ostringstream os;
  os << "steps " << result.refine_steps << '\n'
     << "grid " << fmt_g17(result.grid_spacing.s1) << ' '
     << fmt_g17(result.grid_spacing.s2) << ' '
     << fmt_g17(result.grid_spacing.s3) << ' '
     << fmt_g17(result.peak_grid_c) << '\n'
     << "refined " << fmt_g17(result.org.spacing.s1) << ' '
     << fmt_g17(result.org.spacing.s2) << ' '
     << fmt_g17(result.org.spacing.s3) << ' ' << fmt_g17(result.peak_c)
     << '\n';
  return os.str();
}

bool decode_opt_result(const std::string& payload, OptResult* result,
                       EvalStats* stats) {
  *result = OptResult{};
  *stats = EvalStats{};
  bool saw_found = false, saw_health = false;
  std::istringstream in(payload);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key)) continue;
    if (key == "found") {
      int v = 0;
      if (!(ls >> v)) return false;
      result->found = v != 0;
      saw_found = true;
    } else if (key == "org") {
      if (!(ls >> result->org.n_chiplets)) return false;
      if (!read_double(ls, &result->org.spacing.s1) ||
          !read_double(ls, &result->org.spacing.s2) ||
          !read_double(ls, &result->org.spacing.s3))
        return false;
      if (!(ls >> result->org.dvfs_idx >> result->org.active_cores))
        return false;
    } else if (key == "metrics") {
      if (!read_double(ls, &result->ips) || !read_double(ls, &result->cost) ||
          !read_double(ls, &result->objective) ||
          !read_double(ls, &result->peak_c))
        return false;
    } else if (key == "counts") {
      if (!(ls >> result->combos_tried >> result->thermal_solves))
        return false;
    } else if (key == "quarantined") {
      int v = 0;
      if (!(ls >> v)) return false;
      result->quarantined = v != 0;
    } else if (key == "diagnostic") {
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      result->diagnostic = unescape_field(rest);
    } else if (key == "stats") {
      if (!(ls >> stats->solves >> stats->evals)) return false;
    } else if (key == "health") {
      RunHealth& h = stats->health;
      if (!(ls >> h.cold_restarts >> h.cap_retries >> h.gs_fallbacks >>
            h.solve_failures >> h.nonfinite_inputs >> h.leak_nonconverged >>
            h.quarantined >> h.timeouts >> h.cancelled))
        return false;
      saw_health = true;
    } else if (key == "ladder") {
      LadderStats& l = stats->ladder;
      std::size_t retired[4];  // surrogate/coarse counters: read, dropped
      if (!(ls >> l.screened >> l.rejected >> l.promoted >> l.audits >>
            retired[0] >> retired[1] >> retired[2] >> retired[3] >>
            l.medium_solves >> l.medium_failures))
        return false;
    } else if (key == "refined") {
      if (!read_double(ls, &result->peak_grid_c) ||
          !read_double(ls, &result->grid_spacing.s1) ||
          !read_double(ls, &result->grid_spacing.s2) ||
          !read_double(ls, &result->grid_spacing.s3))
        return false;
      if (!(ls >> result->refine_steps)) return false;
      result->refined = true;
    } else if (key == "refine") {
      RefineStats& r = stats->refine;
      if (!(ls >> r.attempted >> r.steps >> r.trials >> r.adjoint_solves))
        return false;
    }
    // Unknown keys are skipped: older journals stay readable (a pre-ladder
    // row simply decodes with zero LadderStats).
  }
  return saw_found && saw_health;
}

namespace {
RemoteOptimizeFn& remote_hook_slot() {
  static RemoteOptimizeFn hook;
  return hook;
}
}  // namespace

void set_remote_optimize_hook(RemoteOptimizeFn fn) {
  remote_hook_slot() = std::move(fn);
}

const RemoteOptimizeFn& remote_optimize_hook() { return remote_hook_slot(); }

TaskOutcome optimize_one_guarded(const EvalConfig& config,
                                 const std::string& name,
                                 const OptimizerOptions& opts,
                                 const RunControl* run) {
  RunJournal* const journal = run ? run->journal : nullptr;
  static obs::SpanSite task_site("opt.task", "opt");
  obs::TraceSpan task_span(task_site);
  task_span.arg("bench", name);
  TaskOutcome out;
  const std::string task_id = "optimize:" + name;
  if (journal) {
    if (const std::optional<std::string> payload = journal->find(task_id)) {
      // Checkpoint replay: the journaled row and its shard stats
      // stand in for the recomputation, so a resumed run's output —
      // including the merged counters — is byte-identical to an
      // uninterrupted one.  An undecodable payload (hand-edited
      // journal) falls through to recomputation.
      if (decode_opt_result(*payload, &out.result, &out.stats)) {
        task_span.arg("outcome", "replayed");
        return out;
      }
    }
  }
  if (run && run->cancel && run->cancel->cancelled()) {
    // Graceful shutdown: stop dispatching new tasks; in-flight ones
    // drain via their own tokens.  Not journaled → recomputed on
    // resume.
    out.result.interrupted = true;
    out.completed = false;
    ++out.stats.health.cancelled;
    task_span.arg("outcome", "interrupted");
    return out;
  }
  if (const RemoteOptimizeFn& remote = remote_optimize_hook()) {
    // Offload to the evaluation service.  The payload that comes back is
    // the exact encode_opt_result line a local execution would have
    // journaled, so the journal (and the merged stats decoded from it)
    // stays byte-identical to a local run.
    try {
      const std::string payload =
          remote(config, name, opts, run ? run->task_deadline_s : 0.0);
      TACOS_CHECK(decode_opt_result(payload, &out.result, &out.stats),
                  "remote response payload for '" << name
                                                  << "' is undecodable");
      task_span.arg("outcome", "remote");
      if (journal) {
        // Refinement rows ride ahead of their optimize row, in the order a
        // local run appends them, so the journal stays byte-identical.
        if (out.result.refined)
          journal->append("refine:" + name, encode_refine_row(out.result));
        journal->append(task_id, payload);
      }
      return out;
    } catch (const CancelledError&) {
      out = TaskOutcome{};
      out.result.interrupted = true;
      out.completed = false;
      ++out.stats.health.cancelled;
      task_span.arg("outcome", "interrupted");
      return out;
    } catch (const Error& e) {
      // Exhausted retries (or a server-side failure): quarantine this
      // task, let the sweep survive.  Deliberately NOT journaled — the
      // failure is environmental, so a resume against a healthy server
      // recomputes instead of replaying the outage.
      out = TaskOutcome{};
      out.result.quarantined = true;
      out.result.diagnostic = e.what();
      ++out.stats.health.quarantined;
      task_span.arg("outcome", "quarantined");
      return out;
    }
  }
  // Per-task token: chains the run-level cancel and carries this
  // task's wall-clock budget.
  CancelToken task_cancel(run ? run->cancel : nullptr);
  if (run && run->task_deadline_s > 0)
    task_cancel.set_deadline(run->task_deadline_s);
  EvalConfig task_config = config;
  task_config.thermal.solve.cancel = &task_cancel;
  OptimizerOptions task_opts = opts;
  task_opts.cancel = &task_cancel;

  Evaluator eval(task_config);  // per-task shard: caches never shared
  bool timed_out = false;
  try {
    out.result = optimize_greedy(eval, benchmark_by_name(name), task_opts);
  } catch (const CancelledError& c) {
    if (c.reason() == CancelledError::Reason::kDeadline) {
      // Over budget: a terminal, journalable outcome — the paper
      // workload must never hang on one pathological layout.
      out.result = OptResult{};
      out.result.quarantined = true;
      out.result.diagnostic = c.what();
      timed_out = true;
    } else {
      out.result = OptResult{};
      out.result.interrupted = true;
      out.completed = false;
    }
  } catch (const Error& e) {
    // Containment: this task failed even after the recovery ladder.
    // Quarantine it (infeasible row + diagnostic) so the rest of the
    // batch survives; the catch is inside the task body, so results
    // stay deterministic at any thread count.
    out.result = OptResult{};
    out.result.quarantined = true;
    out.result.diagnostic = e.what();
  }
  out.stats = eval.stats();
  if (timed_out)
    ++out.stats.health.timeouts;
  else if (out.result.quarantined)
    ++out.stats.health.quarantined;
  else if (out.result.interrupted)
    ++out.stats.health.cancelled;
  task_span.arg("outcome", timed_out ? "timeout"
                : out.result.quarantined
                    ? "quarantined"
                    : out.result.interrupted ? "interrupted" : "ok");
  task_span.arg("solves", static_cast<std::int64_t>(out.stats.solves));
  if (out.completed && journal) {
    // The refine: row precedes its optimize: row so a journal truncated at
    // any byte is still a clean prefix of the canonical sequence.
    if (out.result.refined)
      journal->append("refine:" + name, encode_refine_row(out.result));
    journal->append(task_id, encode_opt_result(out.result, out.stats));
  }
  return out;
}

std::vector<OptResult> optimize_greedy_batch(
    const EvalConfig& config, const std::vector<std::string>& bench_names,
    const OptimizerOptions& opts, EvalStats* merged, const RunControl* run) {
  if (run && run->journal)
    run->journal->bind_meta("optimize_greedy_batch",
                            batch_meta(config, bench_names, opts));
  const std::vector<TaskOutcome> outs = ThreadPool::global().parallel_map(
      bench_names, [&](const std::string& name) {
        return optimize_one_guarded(config, name, opts, run);
      });
  std::vector<OptResult> results;
  results.reserve(outs.size());
  for (const TaskOutcome& o : outs) {
    results.push_back(o.result);
    if (merged) *merged += o.stats;
  }
  return results;
}

OptResult optimize_exhaustive(Evaluator& eval, const BenchmarkProfile& bench,
                              const OptimizerOptions& opts) {
  return optimize_impl(eval, bench, opts, [&](const Combo& c) {
    return find_placement_exhaustive(eval, bench, c, opts);
  });
}

std::size_t design_space_size(const Evaluator& eval,
                              const OptimizerOptions& opts) {
  const SystemSpec& spec = eval.config().spec;
  std::size_t placements = 0;
  for (int n : opts.chiplet_counts) {
    for (double w = min_interposer(spec); w <= spec.max_interposer_mm + 1e-9;
         w += opts.step_mm) {
      if (n == 4) {
        placements += 1;  // Eq. (9) pins the single spacing
      } else {
        const double budget = w - min_interposer(spec);
        const long grid_max = spacing_grid_max(budget, opts.step_mm);
        placements += static_cast<std::size_t>(grid_max + 1) *
                      static_cast<std::size_t>(grid_max + 1);
      }
    }
  }
  return placements * kDvfsLevelCount * kActiveCoreChoices.size();
}

MaxIpsResult max_ips_at_interposer(Evaluator& eval,
                                   const BenchmarkProfile& bench, int n,
                                   double w_mm, const OptimizerOptions& opts,
                                   Rng& rng) {
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

  const double chiplet_edge =
      eval.config().spec.chip_edge_mm() / (n == 4 ? 2 : 4);
  MaxIpsResult out;
  for (const Cand& c : cands) {
    Combo combo;
    combo.dvfs_idx = c.f;
    combo.active_cores = c.p;
    combo.n_chiplets = n;
    combo.interposer_mm = w_mm;
    combo.ips = c.ips;
    combo.cost = system_cost_25d(n, chiplet_edge * chiplet_edge, w_mm * w_mm,
                                 eval.config().cost);
    const std::optional<Organization> org =
        find_placement_greedy(eval, bench, combo, opts, rng);
    if (org) {
      out.found = true;
      out.org = *org;
      out.ips = c.ips;
      return out;
    }
  }
  return out;
}

}  // namespace tacos
