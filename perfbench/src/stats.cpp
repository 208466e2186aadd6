#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no values");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

std::vector<double> unit_minima(
    const std::vector<std::vector<double>>& samples) {
  if (samples.empty()) throw std::invalid_argument("no passes to aggregate");
  std::vector<double> out = samples.front();
  for (const std::vector<double>& pass : samples) {
    if (pass.size() != out.size())
      throw std::invalid_argument("passes timed different unit counts");
    for (std::size_t u = 0; u < out.size(); ++u)
      out[u] = std::min(out[u], pass[u]);
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double percentile(std::vector<double> v, double pct) {
  if (v.empty()) throw std::invalid_argument("percentile of no values");
  if (pct < 0.0 || pct > 100.0)
    throw std::invalid_argument("percentile outside [0, 100]");
  std::sort(v.begin(), v.end());
  const double rank = pct / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

bool percentile_supported(std::size_t n, int pct) {
  if (pct < 0 || pct > 100) return false;
  return n * static_cast<std::size_t>(100 - pct) >= 1000;
}

}  // namespace perfbench
