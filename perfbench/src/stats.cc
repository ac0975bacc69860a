#include "stats.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace perfbench {

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::array<double, 3> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<int64_t>(values.size());
  const int64_t m = n + 1;
  std::array<double, 3> out{};
  for (int64_t i = 1; i <= 3; ++i) {
    // Python: j = i*m // 4 clamped to [1, n-1]; delta = i*m - j*4 (after
    // the clamp, so it may leave [0, 4] and extrapolate, as Python does).
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, n - 1);
    const int64_t delta = i * m - j * 4;
    const auto ju = static_cast<size_t>(j);
    out[static_cast<size_t>(i - 1)] =
        (values[ju - 1] * static_cast<double>(4 - delta) +
         values[ju] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

double Percentile(const std::vector<double>& sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double TailPercentile(size_t n) {
  for (const double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    const auto rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank >= 1 && n >= rank + 10) return p;
  }
  return 0.0;
}

std::vector<webdis::SimTime> PoissonArrivals(uint64_t seed, size_t count,
                                             double rate_per_s) {
  webdis::Rng rng(seed);
  std::vector<webdis::SimTime> arrivals;
  arrivals.reserve(count);
  double t_us = 0.0;
  for (size_t i = 0; i < count; ++i) {
    // Inverse-CDF exponential gap; 1 - u keeps the log argument in (0, 1].
    const double u = rng.NextDouble();
    t_us += -std::log(1.0 - u) / rate_per_s * 1e6;
    arrivals.push_back(static_cast<webdis::SimTime>(t_us));
  }
  return arrivals;
}

}  // namespace perfbench
