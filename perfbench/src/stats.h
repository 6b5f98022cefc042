// Order statistics and ratios used by every metric the benchmark reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile: the smallest sample such that at least q% of
/// the samples are <= it (q in (0, 100]).  Reorders `samples`; 0 when empty.
template <typename T>
[[nodiscard]] double percentile(std::vector<T>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

/// Median of per-round values: the mean of the two middle values for an
/// even count, so a run of two rounds does not report one of them.
[[nodiscard]] double median(std::vector<double> values);

/// num / den, or 0 when nothing was attempted (den == 0).
[[nodiscard]] double ratio(double num, double den);

}  // namespace perfbench
