/// The repository benchmark.  One process runs one workload on one
/// thread, in two passes over the workload's units (four when traced), and
/// prints diagnostics ("# " lines) followed by one JSON result line.
///
///   perfbench --workload NAME [--seed N] [--trace 0|1]
///             --reference-dir DIR --scratch-dir DIR [--record-reference]
///
/// `--trace 0` prints the end-to-end metrics; `--trace 1` runs traced and
/// untraced passes interleaved and prints the per-layer metrics.  Units and
/// set-ups are timed on the host-speed clock (probe.hpp); their wall times
/// are printed as diagnostics.  The exit code is 0 only when every output
/// check passed.  README.md documents the workloads and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probe.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  bool trace = false;
  bool record = false;
  std::string reference_dir;
  std::string scratch_dir;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload sweep_g24|transient_g32"
               " [--seed N] [--trace 0|1]"
               " --reference-dir DIR --scratch-dir DIR [--record-reference]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-reference") {
      a.record = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        if (v.empty() || v[0] == '-') usage("--seed must be a non-negative integer");
        a.seed = std::stoull(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace must be 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--reference-dir") {
        a.reference_dir = v;
      } else if (flag == "--scratch-dir") {
        a.scratch_dir = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + v + "' for " + flag);
    }
  }
  if (a.workload != "sweep_g24" && a.workload != "transient_g32")
    usage(a.workload.empty() ? "--workload is required"
                             : "unknown workload " + a.workload);
  if (a.reference_dir.empty() || a.scratch_dir.empty())
    usage("--reference-dir and --scratch-dir are required");
  return a;
}

/// Passes of an untraced run.  Each unit's minimum over them discards a
/// sample the host-speed clock did not fully correct.  The count is fixed
/// because that minimum falls as passes are added (by 3 % over two passes
/// and 13 % over three on the transient's 5 ms steps, timed on the wall
/// clock), so runs with different counts would not compare.  Two passes
/// keep a sweep run near 45 s (README.md, "Budget").
constexpr std::size_t kPasses = 2;
/// Timed set-ups at the start of every pass; the last one is the pass's
/// fresh state.  `setup_s` is the median of every set-up of the run: many
/// samples, spread over the whole run, for a call of well under a
/// millisecond whose slowest samples are far off the rest.
constexpr int kSetupsPerPass = 64;
/// Traced runs alternate traced (T) and untraced (U) passes as T U U T, so
/// a drift within the run biases neither side of the overhead ratio.
const std::vector<bool> kTracedSchedule = {true, false, false, true};
/// Span self-times must add up to the units' time within this share.
constexpr double kSelfTimeTolerance = 0.02;

void print_metric(std::string& json, const std::string& name, double value,
                  const std::string& unit) {
  if (json.back() != '{') json += ", ";
  json += "\"" + name + "\": {\"value\": " + full(value) + ", \"unit\": \"" +
          unit + "\"}";
}

std::string join(const std::vector<double>& v) {
  std::string s;
  for (double x : v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", s.empty() ? "" : " ", x);
    s += buf;
  }
  return s;
}

int run(const Args& args) {
  const Clock::time_point process_start = Clock::now();
  tacos::ThreadPool::set_global_threads(1);
  std::filesystem::create_directories(args.scratch_dir);

  WorkloadOptions wo;
  wo.seed = args.seed;
  wo.reference_dir = args.reference_dir;
  wo.scratch_dir = args.scratch_dir;
  wo.full_fidelity = args.record;
  std::unique_ptr<Workload> w = args.workload == "sweep_g24"
                                    ? make_sweep_g24(wo)
                                    : make_transient_g32(wo);

  if (args.record) {
    // One pass; its digest becomes <workload>.seed<seed>.txt.
    w->setup();
    for (std::size_t i = 0; i < w->unit_count(); ++i)
      if (!w->run_unit(i)) {
        std::cerr << "unit " << i << " failed while recording\n";
        return 1;
      }
    std::cout << w->finish_pass().digest;
    return 0;
  }

  tacos::obs::MetricsRegistry& registry = tacos::obs::MetricsRegistry::global();
  static tacos::obs::SpanSite unit_site("bench.unit", "bench");
  std::vector<double> setup_times;
  std::vector<double> setup_pass_ms;  // per-pass medians, a diagnostic
  // Unit and set-up times on the host-speed clock (probe.hpp), and the
  // untraced units' wall times as a diagnostic.
  std::vector<std::vector<double>> untraced_times, traced_times, wall_times;
  std::vector<double> setup_wall_times;
  std::vector<PassOutput> outputs;
  std::vector<std::vector<Metric>> layer_passes;
  std::vector<double> coverage;
  std::vector<std::string> errors;
  std::size_t attempted = 0, failed = 0;
  const std::size_t passes = args.trace ? kTracedSchedule.size() : kPasses;
  host_clock::start();
  struct StopClock {
    ~StopClock() { host_clock::stop(); }
  } stop_clock_on_throw;
  while (outputs.size() < passes) {
    const bool traced = args.trace && kTracedSchedule[outputs.size()];
    std::vector<double> pass_setups;
    for (int k = 0; k < kSetupsPerPass; ++k) {
      if (k > 0) w->teardown();
      if (traced && k + 1 == kSetupsPerPass) {
        // A traced pass records its own set-up and units only.
        registry.reset_values();
        tacos::obs::set_metrics_enabled(true);
      }
      const Clock::time_point s0 = Clock::now();
      const double c0 = host_clock::now();
      w->setup();
      pass_setups.push_back(host_clock::now() - c0);
      setup_wall_times.push_back(seconds_since(s0));
    }
    setup_pass_ms.push_back(median(pass_setups) * 1e3);
    setup_times.insert(setup_times.end(), pass_setups.begin(),
                       pass_setups.end());
    const tacos::obs::MetricsSnapshot before = registry.snapshot();
    std::vector<double> times(w->unit_count()), walls(times.size());
    for (std::size_t i = 0; i < times.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const double c0 = host_clock::now();
      bool ok = false;
      try {
        tacos::obs::TraceSpan span(unit_site);
        ok = w->run_unit(i);
      } catch (const std::exception& e) {
        if (errors.size() < 20)
          errors.push_back("unit " + std::to_string(i) + " threw: " + e.what());
      }
      times[i] = host_clock::now() - c0;
      walls[i] = seconds_since(t0);
      ++attempted;
      if (!ok) ++failed;
    }
    const tacos::obs::MetricsSnapshot after_units = registry.snapshot();
    outputs.push_back(w->finish_pass());
    if (traced) {
      layer_passes.push_back(
          layer_metrics(registry.snapshot(), outputs.back().counts));
      // Spans time the wall clock.
      coverage.push_back(span_self_seconds(before, after_units) / sum(walls));
      tacos::obs::set_metrics_enabled(false);
      traced_times.push_back(std::move(times));
    } else {
      untraced_times.push_back(std::move(times));
      wall_times.push_back(std::move(walls));
    }
  }
  host_clock::stop();

  // Outputs and counts repeat exactly across passes, traced or not.
  for (std::size_t p = 1; p < outputs.size(); ++p) {
    if (outputs[p].digest != outputs[0].digest)
      errors.push_back("pass " + std::to_string(p) +
                       " produced different results than pass 0");
    if (!(outputs[p].counts == outputs[0].counts))
      errors.push_back("pass " + std::to_string(p) +
                       " counted different work than pass 0");
  }
  for (std::string& e : w->check(outputs.back())) errors.push_back(std::move(e));

  // Diagnostics.
  std::printf("# workload %s seed %llu passes %zu (%s) hardware_concurrency %u\n",
              w->name(), static_cast<unsigned long long>(wo.seed),
              outputs.size(), args.trace ? "traced T U U T" : "untraced",
              std::thread::hardware_concurrency());
  const auto pass_sums = [](const std::vector<std::vector<double>>& t) {
    std::vector<double> s;
    for (const auto& p : t) s.push_back(sum(p));
    return s;
  };
  std::printf("# per-pass unit time s: untraced [%s] traced [%s]\n",
              join(pass_sums(untraced_times)).c_str(),
              join(pass_sums(traced_times)).c_str());
  std::vector<double> probe_ms = host_clock::probe_times();
  for (double& p : probe_ms) p *= 1e3;
  std::printf("# host clock: %zu probes, ms p10 %.4f median %.4f p90 %.4f "
              "(reference %.4f)\n",
              probe_ms.size(), percentile(probe_ms, 10), median(probe_ms),
              percentile(probe_ms, 90), kProbeReferenceS * 1e3);
  std::printf("# wall clock: per-pass unit time s [%s], work_s %.6f, "
              "setup_s %.9f\n",
              join(pass_sums(wall_times)).c_str(),
              sum(unit_minima(wall_times)), median(setup_wall_times));
  std::printf("# per-pass median set-up ms (%d set-ups each): [%s]\n",
              kSetupsPerPass, join(setup_pass_ms).c_str());
  for (const auto& [k, v] : outputs[0].counts.named())
    if (v != 0.0) std::printf("# count %s %.0f\n", k.c_str(), v);
  std::printf("# failed_frac %zu/%zu = %.6f\n", failed, attempted,
              attempted ? static_cast<double>(failed) / attempted : 0.0);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::string json = "{";
  const std::vector<double> minima = unit_minima(
      args.trace ? traced_times : untraced_times);
  if (!args.trace) {
    // Latency percentiles are diagnostics: they swing more with the host
    // than the registered metrics do (README.md, "Noise").
    std::vector<double> latency_ms;
    for (std::size_t i = 0; i < minima.size(); ++i)
      if (w->latency_unit(i)) latency_ms.push_back(minima[i] * 1e3);
    for (const int pct : {50, 90, 99})
      std::printf("# latency_p%d_ms %.6f ms over %zu units%s\n", pct,
                  percentile(latency_ms, pct), latency_ms.size(),
                  percentile_supported(latency_ms.size(), pct)
                      ? ""
                      : " (fewer than ten units beyond it)");
    print_metric(json, "work_s", sum(minima), "s");
    print_metric(json, "setup_s", median(setup_times), "s");
    print_metric(json, "peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
                 "MB");
    print_metric(json, "full_solves",
                 static_cast<double>(outputs[0].counts.full_solves), "count");
  } else {
    for (std::size_t k = 0; k < layer_passes[0].size(); ++k) {
      const Metric& m = layer_passes[0][k];
      std::vector<double> vals;
      for (const auto& lp : layer_passes) vals.push_back(lp[k].value);
      if (m.unit != "s" && vals.back() != vals.front())
        errors.push_back(m.name + " differs between traced passes");
      print_metric(json, m.name, m.unit == "s" ? median(vals) : vals.front(),
                   m.unit);
    }
    const double traced = sum(minima);
    const double untraced = sum(unit_minima(untraced_times));
    print_metric(json, "trace.work_s", traced, "s");
    print_metric(json, "trace.untraced_work_s", untraced, "s");
    print_metric(json, "trace.overhead_frac", traced / untraced - 1.0, "ratio");
    const double cov = median(coverage);
    print_metric(json, "trace.self_coverage", cov, "ratio");
    if (cov < 1.0 - kSelfTimeTolerance || cov > 1.0 + kSelfTimeTolerance)
      errors.push_back("span self-times cover " + full(cov) +
                       " of the units' time, outside 1 ± " +
                       full(kSelfTimeTolerance));
  }
  json += "}";

  const double cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                       1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  std::printf("# process wall %.3f s, cpu %.3f s\n", seconds_since(process_start),
              cpu_s);
  for (const std::string& e : errors) std::printf("# ERROR %s\n", e.c_str());
  const bool correct = errors.empty() && failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
