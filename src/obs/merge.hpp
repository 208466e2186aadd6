#pragma once
/// \file merge.hpp
/// \brief Cross-process telemetry aggregation: join the per-process trace
///        and metrics shards of a run directory into single artifacts.
///
/// A multi-process run (the `--workers=N` fabric) leaves one trace/metrics
/// shard per process in the run dir, each published whole via AtomicFile:
///
///   trace.json          the supervisor (or a single-process run)
///   trace-w<k>.json     fabric worker slot k (all incarnations spliced)
///   metrics[-...].json  the matching metrics shards
///
/// `merge_trace_shards` rewrites them onto one Perfetto/chrome://tracing
/// timeline: every shard gets a *stable* pid (supervisor 0, worker k at
/// 2+k — independent of which shards exist), a `process_name`
/// metadata record, and its timestamps shifted onto a common wall-clock
/// base using each shard's `otherData.epochMs`.  Parsing is tolerant: a
/// truncated shard (crashed process, torn copy) contributes every complete
/// event line it has and is flagged `torn`, never fatal.  The output is a
/// pure function of the shard bytes — byte-deterministic across reruns.
///
/// `merge_metrics_shards` sums the metrics shards (counters and histogram
/// cells add; gauges resolve last-shard-wins in sorted file order) into one
/// registry JSON, and `merged_counters` exposes the summed counters as a
/// map — the feed for `tacos_cli status`.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tacos::obs {

/// One trace shard discovered (and parsed) in a run directory.
struct TraceShard {
  std::string file;    ///< file name within the run dir
  std::string label;   ///< process label shown in the viewer
  std::uint32_t pid = 0;  ///< stable pid in the merged timeline
  std::size_t events = 0; ///< complete event lines contributed
  bool torn = false;      ///< terminator missing (truncated shard)
};

struct TraceMergeResult {
  std::string json;           ///< merged Chrome trace document
  std::vector<TraceShard> shards;
  std::size_t events = 0;     ///< total events in the merged timeline
  std::uint64_t dropped = 0;  ///< summed droppedEvents across shards
};

/// Merge every trace shard found directly in `run_dir`.  Returns an empty
/// `shards` list (and a valid empty document) when none exist.
TraceMergeResult merge_trace_shards(const std::string& run_dir);

struct MetricsMergeResult {
  std::string json;                 ///< merged registry JSON
  std::vector<std::string> shards;  ///< shard file names, sorted
  std::size_t series = 0;           ///< metric series loaded across shards
};

/// Sum every metrics shard found directly in `run_dir`.
MetricsMergeResult merge_metrics_shards(const std::string& run_dir);

/// The summed counters of every metrics shard in `run_dir`, by name.
std::map<std::string, double> merged_counters(const std::string& run_dir);

}  // namespace tacos::obs
