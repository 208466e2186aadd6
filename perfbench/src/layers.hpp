#pragma once
/// \file layers.hpp
/// \brief Per-layer metrics of one traced pass, read from the spans and
///        counters the library exports through obs::MetricsRegistry plus
///        the benchmark's own `bench.*` spans around the public calls the
///        library does not span.

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;  ///< "s", "count", "ratio" or "bytes"
};

/// Every per-layer metric (README.md, "Per-layer metrics"), in a fixed
/// order, from the registry snapshot taken at the end of a traced pass and
/// that pass's counts.  Layers a workload bypasses read 0.
std::vector<Metric> layer_metrics(const tacos::obs::MetricsSnapshot& snap,
                                  const Counts& counts);

/// Sum of every span's self time in `after` minus that in `before`: the
/// traced time the spans account for between two snapshots.
double span_self_seconds(const tacos::obs::MetricsSnapshot& before,
                         const tacos::obs::MetricsSnapshot& after);

}  // namespace perfbench
