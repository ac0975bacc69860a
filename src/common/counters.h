#ifndef WEBDIS_COMMON_COUNTERS_H_
#define WEBDIS_COMMON_COUNTERS_H_

// Counter structs (server::QueryServerStats, client::QueryRunStats,
// core::TrafficSummary) are plain aggregates of uint64_t members generated
// from one X-macro list per struct. The same list generates a field table,
// and the helpers below merge and render over that table, so a counter
// added to the list cannot be left out of either. See CONTRIBUTING.md
// "Adding a counter".

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/strings.h"

namespace webdis {

/// How one server's value folds into a run total: event counts and gauges
/// sum; a high-water mark takes the max.
enum class CounterMerge { kSum, kMax };

/// One row of a counter struct's field table.
template <typename S>
struct CounterField {
  const char* name;
  uint64_t S::*member;
  CounterMerge merge = CounterMerge::kSum;
};

/// Expands one list entry, `X(name)` or `X(name, merge)`, to its member.
#define WEBDIS_COUNTER_MEMBER(name, ...) uint64_t name = 0;

/// Folds `from` into `*into`, each counter by its merge kind.
template <typename S, size_t N>
void MergeCounters(const CounterField<S> (&fields)[N], const S& from,
                   S* into) {
  for (const CounterField<S>& f : fields) {
    uint64_t& total = into->*f.member;
    const uint64_t value = from.*f.member;
    total = f.merge == CounterMerge::kMax ? std::max(total, value)
                                          : total + value;
  }
}

/// Appends `<indent>name: value` lines for the non-zero counters of `s`,
/// in list order.
template <typename S, size_t N>
void AppendCounterText(const CounterField<S> (&fields)[N], const S& s,
                       const char* indent, std::string* out) {
  for (const CounterField<S>& f : fields) {
    const uint64_t value = s.*f.member;
    if (value != 0) {
      *out += StringPrintf("%s%s: %llu\n", indent, f.name,
                           static_cast<unsigned long long>(value));
    }
  }
}

}  // namespace webdis

#endif  // WEBDIS_COMMON_COUNTERS_H_
