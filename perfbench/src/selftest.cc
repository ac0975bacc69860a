// Self-tests for the benchmark's own statistics and input generation.
// Prints one line per failed check and exits non-zero if any failed.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "workload.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestMedianAndQuartiles() {
  using perfbench::Median;
  using perfbench::Quartiles;
  Expect(Near(Median({3, 1, 2}), 2), "median of an odd count");
  Expect(Near(Median({4, 1, 3, 2}), 2.5), "median of an even count");
  // Reference values from Python: statistics.quantiles(data, n=4).
  const auto q1 = Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  Expect(Near(q1[0], 2.75) && Near(q1[1], 5.5) && Near(q1[2], 8.25),
         "quartiles of 1..10 match statistics.quantiles");
  const auto q2 = Quartiles({5, 1, 3});
  Expect(Near(q2[0], 1) && Near(q2[1], 3) && Near(q2[2], 5),
         "quartiles of three values match statistics.quantiles");
  const auto q3 = Quartiles({1, 2});
  Expect(Near(q3[0], 0.75) && Near(q3[1], 1.5) && Near(q3[2], 2.25),
         "quartiles of two values extrapolate like statistics.quantiles");
}

void TestPercentiles() {
  using perfbench::Percentile;
  using perfbench::TailPercentile;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Expect(Near(Percentile(v, 50), 500), "p50 of 1..1000 is 500");
  Expect(Near(Percentile(v, 99), 990), "p99 of 1..1000 is 990");
  Expect(Near(Percentile(v, 100), 1000), "p100 is the maximum");
  // The reported tail is the highest percentile with >= 10 samples beyond.
  Expect(TailPercentile(1000) == 99.0, "1000 samples report p99");
  Expect(TailPercentile(999) == 98.0, "999 samples fall back to p98");
  Expect(TailPercentile(10000) == 99.9, "10000 samples report p99.9");
  Expect(TailPercentile(100) == 90.0, "100 samples report p90");
  Expect(TailPercentile(19) == 0.0, "19 samples report no tail");
  for (size_t n : {20u, 57u, 200u, 1000u, 1999u, 20000u}) {
    std::vector<double> s;
    for (size_t i = 0; i < n; ++i) s.push_back(static_cast<double>(i));
    const double p = TailPercentile(n);
    const double value = Percentile(s, p);
    size_t beyond = 0;
    for (const double x : s) beyond += x > value ? 1 : 0;
    Expect(beyond >= 10, "at least ten samples lie beyond the tail");
  }
}

void TestArrivals() {
  const auto a = perfbench::PoissonArrivals(7, 500, 100);
  const auto b = perfbench::PoissonArrivals(7, 500, 100);
  const auto c = perfbench::PoissonArrivals(8, 500, 100);
  Expect(a == b, "the same seed gives the same arrival schedule");
  Expect(a != c, "another seed gives another arrival schedule");
  bool sorted = true;
  for (size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i - 1] <= a[i];
  Expect(sorted, "arrivals are in time order");
  // 500 arrivals at 100/s span about 5 virtual seconds.
  Expect(a.back() > 4'000'000 && a.back() < 6'000'000,
         "the arrival rate is honoured");
}

void TestInputsFollowSeed() {
  for (const std::string& name : perfbench::WorkloadNames()) {
    const auto a = perfbench::MakeInputs(name, 11);
    const auto b = perfbench::MakeInputs(name, 11);
    const auto c = perfbench::MakeInputs(name, 12);
    Expect(a.ok() && b.ok() && c.ok(), "every workload builds its inputs");
    if (!a.ok() || !b.ok() || !c.ok()) continue;
    Expect(a->starts == b->starts && a->arrivals == b->arrivals,
           "the same seed gives the same StartNodes and arrivals");
    Expect(a->arrivals != c->arrivals, "another seed gives other arrivals");
  }
  Expect(!perfbench::MakeInputs("no_such_workload", 1).ok(),
         "an unknown workload is refused");
}

}  // namespace

int main() {
  TestMedianAndQuartiles();
  TestPercentiles();
  TestArrivals();
  TestInputsFollowSeed();
  std::printf("%s (%d failed)\n", failures == 0 ? "selftest ok" : "selftest FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
