#pragma once
/// \file stats.hpp
/// \brief Aggregation of per-unit timings: each unit's minimum over the
///        run's passes, sums, and percentiles over units.
///
/// A run times every unit once per pass.  A host burst then costs one
/// sample of the units it overlaps instead of the whole run, and the
/// per-unit minimum over passes discards it: a burst only ever slows a
/// sample down.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `v` (mean of the two middle values for even sizes).
/// Requires a non-empty input.
double median(std::vector<double> v);

/// Per-unit minima: `samples[pass][unit]` → one minimum per unit.  Every
/// pass must time the same units.
std::vector<double> unit_minima(
    const std::vector<std::vector<double>>& samples);

double sum(const std::vector<double>& v);

/// Linear-interpolated percentile (`pct` in [0, 100]) over the values:
/// rank pct/100 · (n − 1) between the order statistics.  Requires a
/// non-empty input.
double percentile(std::vector<double> v, double pct);

/// True when at least ten of `n` units lie beyond the `pct`-th percentile,
/// i.e. n · (100 − pct) / 100 ≥ 10: p50 needs 20 units, p90 100 units and
/// p99 1000 units.  Percentiles with less support are order statistics of
/// a handful of units, not tail estimates.
bool percentile_supported(std::size_t n, int pct);

}  // namespace perfbench
