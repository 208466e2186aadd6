/// transient_g32: ext_phase_trace at grid 32.  Per benchmark, one
/// preparation unit (build the model, run the steady pre-heat fixed point)
/// and one unit per trace phase (20 s warm-up, then the 30 s trace, 0.25 s
/// phases).  The steps are replayed here through the calls simulate_trace
/// makes (build_power_map → step_transient → tile_temperatures), so each
/// step is its own timed unit.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/leakage.hpp"
#include "core/trace_sim.hpp"
#include "materials/stack.hpp"
#include "obs/trace.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace tacos;

constexpr double kThresholdC = 85.0;  // simulate_trace's default

class TransientG32 final : public Workload {
 public:
  explicit TransientG32(const WorkloadOptions& o)
      : o_(o), layout_(make_uniform_layout(4, 6.0, SystemSpec{})) {
    thermal_.grid_nx = thermal_.grid_ny = 32;
    active_.resize(256);
    for (int i = 0; i < 256; ++i) active_[static_cast<std::size_t>(i)] = i;
  }

  const char* name() const override { return "transient_g32"; }

  void setup() override {
    // ext_phase_trace's seeds: the trace uses the seed, the warm-up seed+1.
    traces_.clear();
    units_.clear();
    for (std::size_t b = 0; b < benchmarks().size(); ++b) {
      Traces t;
      t.warmup = synthetic_trace(benchmarks()[b], 20.0, 0.25, o_.seed + 1);
      t.trace = synthetic_trace(benchmarks()[b], 30.0, 0.25, o_.seed);
      units_.push_back({b, Unit::kPrep, 0});
      for (std::size_t k = 0; k < t.warmup.size(); ++k)
        units_.push_back({b, Unit::kWarmup, k});
      for (std::size_t k = 0; k < t.trace.size(); ++k)
        units_.push_back({b, Unit::kTrace, k});
      traces_.push_back(std::move(t));
    }
    results_.assign(benchmarks().size(), BenchResult{});
    model_.reset();
  }

  void teardown() override { model_.reset(); }

  std::size_t unit_count() const override { return units_.size(); }
  bool latency_unit(std::size_t i) const override {
    return units_[i].kind != Unit::kPrep;
  }

  bool run_unit(std::size_t i) override {
    const Unit& u = units_[i];
    const BenchmarkProfile& bench = benchmarks()[u.bench];
    BenchResult& r = results_[u.bench];
    if (u.kind == Unit::kPrep) {
      static obs::SpanSite build_site("bench.thermal.build", "bench");
      {
        obs::TraceSpan span(build_site);
        model_ = std::make_unique<ThermalModel>(layout_, make_25d_stack(),
                                                thermal_);
      }
      const LeakageResult steady = run_leakage_fixed_point(
          *model_, layout_, bench, kDvfsLevels[0], active_, power_);
      r.steady_peak_c = steady.peak_c;
      r.preheat_iters = steady.iterations;
      r.preheat_converged = steady.converged;
      // As ext_phase_trace: back to ambient; the warm-up leads into the trace.
      model_->reset_to_ambient();
      tile_temps_.reset();
      return steady.converged;
    }
    const Phase& ph = u.kind == Unit::kWarmup ? traces_[u.bench].warmup[u.phase]
                                              : traces_[u.bench].trace[u.phase];
    // simulate_trace starts every call without tile temperatures.
    if (u.phase == 0) tile_temps_.reset();
    static obs::SpanSite map_site("bench.power.map", "bench");
    static obs::SpanSite step_site("bench.thermal.step", "bench");
    PowerMap pmap;
    {
      obs::TraceSpan span(map_site);
      pmap = build_power_map(layout_, bench, kDvfsLevels[0], active_,
                             tile_temps_, power_, ph.activity);
    }
    ThermalResult res;
    {
      obs::TraceSpan span(step_site);
      res = model_->step_transient(pmap, ph.duration_s);
    }
    tile_temps_ = model_->tile_temperatures();
    ++r.steps;
    r.step_iters += res.solve_info.iterations;
    if (u.kind == Unit::kTrace) {
      // simulate_trace's accumulation, operation for operation.
      TraceStats& st = r.trace;
      ++st.steps;
      st.final_peak_c = res.peak_c;
      st.max_peak_c = std::max(st.max_peak_c, res.peak_c);
      r.weighted_peak += res.peak_c * ph.duration_s;
      if (res.peak_c > kThresholdC) st.time_above_threshold_s += ph.duration_s;
      r.total_s += ph.duration_s;
      if (u.phase + 1 == traces_[u.bench].trace.size()) {
        st.mean_peak_c = r.weighted_peak / r.total_s;
        const RunHealth& h = model_->health();
        r.recoveries = h.cold_restarts + h.cap_retries + h.gs_fallbacks;
        model_.reset();
      }
    }
    return true;
  }

  PassOutput finish_pass() override {
    PassOutput out;
    Counts& c = out.counts;
    for (std::size_t b = 0; b < results_.size(); ++b) {
      const BenchResult& r = results_[b];
      out.digest += std::string(benchmarks()[b].name) +
                    " steady_peak_c=" + full(r.steady_peak_c) +
                    " preheat_iters=" + std::to_string(r.preheat_iters) +
                    " max_peak_c=" + full(r.trace.max_peak_c) +
                    " mean_peak_c=" + full(r.trace.mean_peak_c) +
                    " final_peak_c=" + full(r.trace.final_peak_c) +
                    " time_above_s=" + full(r.trace.time_above_threshold_s) +
                    " steps=" + std::to_string(r.trace.steps) + "\n";
      c.full_solves += static_cast<std::size_t>(r.preheat_iters);
      c.leak_nonconverged += r.preheat_converged ? 0 : 1;
      c.recoveries += r.recoveries;
      c.steps += r.steps;
      c.step_iters += r.step_iters;
    }
    teardown();
    return out;
  }

  std::vector<std::string> check(const PassOutput& out) override {
    std::vector<std::string> errors;
    for (std::size_t b = 0; b < results_.size(); ++b) {
      const BenchResult& r = results_[b];
      const std::string bname(benchmarks()[b].name);
      if (!r.preheat_converged)
        errors.push_back(bname + ": pre-heat fixed point did not converge");
      // The steady state at full activity bounds the phase trace.
      if (r.trace.max_peak_c > r.steady_peak_c)
        errors.push_back(bname + ": trace peak " + full(r.trace.max_peak_c) +
                         " exceeds the steady peak " + full(r.steady_peak_c));
    }
    // The step replay must equal simulate_trace bit for bit; one benchmark
    // per run (chosen by the seed) keeps the check's cost to one trace.
    const std::size_t b = o_.seed % benchmarks().size();
    const BenchmarkProfile& bench = benchmarks()[b];
    ThermalModel model(layout_, make_25d_stack(), thermal_);
    run_leakage_fixed_point(model, layout_, bench, kDvfsLevels[0], active_,
                            power_);
    model.reset_to_ambient();
    simulate_trace(model, layout_, bench, kDvfsLevels[0], active_, power_,
                   traces_[b].warmup, kThresholdC);
    const TraceStats want =
        simulate_trace(model, layout_, bench, kDvfsLevels[0], active_, power_,
                       traces_[b].trace, kThresholdC);
    const TraceStats& got = results_[b].trace;
    if (want.max_peak_c != got.max_peak_c ||
        want.mean_peak_c != got.mean_peak_c ||
        want.final_peak_c != got.final_peak_c ||
        want.time_above_threshold_s != got.time_above_threshold_s ||
        want.steps != got.steps)
      errors.push_back(std::string(bench.name) +
                       ": step replay differs from simulate_trace (max " +
                       full(got.max_peak_c) + " vs " + full(want.max_peak_c) +
                       ", mean " + full(got.mean_peak_c) + " vs " +
                       full(want.mean_peak_c) + ")");
    const std::string ref = read_reference(o_.reference_dir, name(), o_.seed);
    if (ref.empty() && o_.seed == kDefaultSeed)
      errors.push_back("reference: none stored for the default seed");
    if (!ref.empty())
      for (std::string& e : compare_digests(
               out.digest, ref,
               {"steady_peak_c", "max_peak_c", "mean_peak_c", "final_peak_c",
                "time_above_s"},
               kTolC, {"preheat_iters"}))
        errors.push_back("reference: " + e);
    return errors;
  }

 private:
  /// Agreement (°C) with the stored reference.
  static constexpr double kTolC = 1e-3;

  struct Unit {
    enum Kind { kPrep, kWarmup, kTrace };
    std::size_t bench;
    Kind kind;
    std::size_t phase;
  };
  struct Traces {
    std::vector<Phase> warmup, trace;
  };
  struct BenchResult {
    double steady_peak_c = 0.0;
    int preheat_iters = 0;
    bool preheat_converged = false;
    TraceStats trace;
    double weighted_peak = 0.0;
    double total_s = 0.0;
    std::size_t steps = 0;
    std::size_t step_iters = 0;
    std::size_t recoveries = 0;
  };

  WorkloadOptions o_;
  const ChipletLayout layout_;
  ThermalConfig thermal_;
  PowerModelParams power_;
  std::vector<int> active_;
  std::vector<Traces> traces_;
  std::vector<Unit> units_;
  std::vector<BenchResult> results_;
  std::unique_ptr<ThermalModel> model_;
  std::optional<std::vector<double>> tile_temps_;
};

}  // namespace

std::unique_ptr<Workload> make_transient_g32(const WorkloadOptions& o) {
  return std::make_unique<TransientG32>(o);
}

}  // namespace perfbench
