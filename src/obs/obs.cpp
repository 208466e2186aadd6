#include "obs/obs.hpp"

#include <fstream>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>

#include "common/atomic_file.hpp"

namespace tacos::obs {

namespace {

std::string read_whole_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string join_dir(const std::string& dir, const char* file) {
  if (dir.empty()) return file;
  if (dir.back() == '/') return dir + file;
  return dir + "/" + file;
}

}  // namespace

void ObsOptions::finalize(const std::string& run_dir, bool resume) {
  if (!shard_suffix.empty()) {
    // A shard process writes its own per-process artifacts, full stop:
    // explicit paths (inherited via re-exec) are overridden, and the shard
    // always splices onto a predecessor incarnation's file.
    if (metrics)
      metrics_path = join_dir(run_dir, ("metrics-" + shard_suffix + ".json").c_str());
    if (trace)
      trace_path = join_dir(run_dir, ("trace-" + shard_suffix + ".json").c_str());
    resume = true;
  }
  if (metrics && metrics_path.empty())
    metrics_path = join_dir(run_dir, "metrics.json");
  if (trace && trace_path.empty()) trace_path = join_dir(run_dir, "trace.json");

  if (metrics) set_metrics_enabled(true);
  if (trace) set_trace_enabled(true);
  if (inherited_ctx.valid()) set_process_trace_context(inherited_ctx);

  if (!resume) return;
  // Preload once at startup: publish() then rewrites one continuous
  // record (old + new) per run directory, idempotently.
  if (metrics) {
    const std::string prev = read_whole_file(metrics_path);
    if (!prev.empty()) {
      const std::size_t n = MetricsRegistry::global().preload_from_json(prev);
      if (n > 0)
        std::cerr << "[obs] resuming metrics record " << metrics_path << " ("
                  << n << " metric(s))\n";
    }
  }
  if (trace) {
    const std::string prev = read_whole_file(trace_path);
    if (!prev.empty()) {
      const std::size_t n = Tracer::global().preload(prev);
      if (n > 0)
        std::cerr << "[obs] resuming trace record " << trace_path << " (" << n
                  << " event(s))\n";
    }
  }
}

bool ObsOptions::publish() const {
  bool ok = true;
  const auto write = [&ok](const std::string& path, const std::string& body,
                           const char* what) {
    try {
      write_file_atomic(path, body);
      // publish() runs at several checkpoints (after the table, after the
      // health report, at finish); note each artifact once, not per write.
      static std::mutex noted_mu;
      static std::set<std::string> noted;
      bool first = false;
      {
        std::lock_guard<std::mutex> lk(noted_mu);
        first = noted.insert(path).second;
      }
      if (first) std::cerr << "[obs] wrote " << what << " to " << path << '\n';
    } catch (const std::exception& e) {
      std::cerr << "[obs] failed to write " << what << " to " << path << ": "
                << e.what() << '\n';
      ok = false;
    }
  };
  if (metrics && !metrics_path.empty())
    write(metrics_path, MetricsRegistry::global().to_json(), "metrics");
  if (trace && !trace_path.empty())
    write(trace_path, Tracer::global().to_json(), "trace");
  return ok;
}

void record_run_health(const RunHealth& h) {
  if (!metrics_enabled()) return;
  MetricsRegistry& reg = MetricsRegistry::global();
  const auto rec = [&reg](const char* name, std::size_t v) {
    if (v > 0) reg.counter(name).add(static_cast<double>(v));
  };
  rec("health.cold_restarts", h.cold_restarts);
  rec("health.cap_retries", h.cap_retries);
  rec("health.gs_fallbacks", h.gs_fallbacks);
  rec("health.solve_failures", h.solve_failures);
  rec("health.nonfinite_inputs", h.nonfinite_inputs);
  rec("health.leak_nonconverged", h.leak_nonconverged);
  rec("health.quarantined", h.quarantined);
  rec("health.timeouts", h.timeouts);
  rec("health.cancelled", h.cancelled);
  rec("health.leases_reclaimed", h.leases_reclaimed);
  rec("health.worker_restarts", h.worker_restarts);
  rec("health.poison_tasks", h.poison_tasks);
}

}  // namespace tacos::obs
