#ifndef HTAPBENCH_STATS_H_
#define HTAPBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace htapbench {

/// Exact quantile of raw samples (linear interpolation between closest
/// ranks, the same rule as Python's statistics.quantiles "inclusive").
/// Returns 0 for an empty sample.
inline double Quantile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) +
         frac * static_cast<double>(v[hi] - v[lo]);
}

/// True when a and b agree within a relative 1e-9 of `scale` (the sum of
/// magnitudes that produced them, so cancellation cannot inflate it).
inline bool NearlyEqual(double a, double b, double scale) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(scale));
}

}  // namespace htapbench

#endif  // HTAPBENCH_STATS_H_
