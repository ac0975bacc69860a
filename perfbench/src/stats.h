#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/clock.h"

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Precondition: !values.empty().
double Median(std::vector<double> values);

/// First, second and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so in-binary spreads agree with the ones a reader recomputes from the
/// printed samples. Precondition: values.size() >= 2.
std::array<double, 3> Quartiles(std::vector<double> values);

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample with
/// at least p% of the samples at or below it. Precondition: !sorted.empty().
double Percentile(const std::vector<double>& sorted, double p);

/// The highest reportable tail percentile for `n` samples: the largest of
/// 99.9, 99.5, 99, 98, 95, 90, 75 and 50 that still leaves at least ten
/// samples strictly beyond it under Percentile(). 0 when n < 20 (even the
/// median has fewer than ten samples beyond it).
double TailPercentile(size_t n);

/// Open-loop arrival schedule: `count` Poisson arrival instants (virtual
/// microseconds from the start of the drive) at `rate_per_s` arrivals per
/// virtual second, drawn from `seed`. Users are independent, so the gaps
/// are i.i.d. exponential and never depend on how the system responds.
std::vector<webdis::SimTime> PoissonArrivals(uint64_t seed, size_t count,
                                             double rate_per_s);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
