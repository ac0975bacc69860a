// R4 — dynamic-web churn (PROTOCOL.md §10): the university query while a
// seeded mutation plan edits pages, rewires links, spawns sites and retires
// whole hosts mid-run, at increasing mutation rates. Measures verdict
// quality — how many visited nodes the final classification calls fresh /
// stale-consistent / superseded, how many sites retire or are epoch-gated
// out, and how many runs stay exactly equal to the frozen-web answer — and
// the message overhead churn adds (site-retired NACKs, retried transfers,
// re-dispatched reports). Every run terminates with a verdict: staleness is
// classified, never silently served. Emits one JSON line per mutation rate
// to BENCH_CHURN.json for the bench_compare wall-clock gate.
#include <chrono>  // webdis-lint: allow(clock) — wall time for bench_compare
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/engine.h"
#include "html/url.h"
#include "web/mutation.h"
#include "web/university.h"

namespace webdis {
namespace {

std::set<std::string> AllRowKeys(
    const std::vector<relational::ResultSet>& results) {
  std::set<std::string> keys;
  for (const relational::ResultSet& rs : results) {
    for (const relational::Tuple& row : rs.rows) {
      std::string key = Join(rs.column_labels, ",") + ":";
      for (const relational::Value& v : row) key += v.ToString() + "|";
      keys.insert(std::move(key));
    }
  }
  return keys;
}

core::EngineOptions ChurnOptions() {
  core::EngineOptions options;
  options.server.retry.enabled = true;
  options.server.retry.initial_timeout = 100 * kMillisecond;
  options.server.retry.max_timeout = 400 * kMillisecond;
  options.server.retry.max_attempts = 4;
  options.client.retry = options.server.retry;
  options.client.entry_deadline = 10 * kSecond;
  // Retired hosts stop their HTTP servers, so there is nothing for the
  // data-shipping fallback to fetch — keep degradation named, not refetched.
  options.fallback_processing = false;
  return options;
}

struct CellSummary {
  int runs = 0;
  int exact_runs = 0;
  uint64_t mutations_applied = 0;
  uint64_t fresh = 0;
  uint64_t stale = 0;
  uint64_t superseded = 0;
  uint64_t retired_sites = 0;
  uint64_t epoch_gated = 0;
  uint64_t retired_nacks = 0;
  SimTime total_response = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  double wall_ms = 0;
};

int Main() {
  web::UniversityOptions uni_options;
  uni_options.seed = 17;
  uni_options.departments = 3;
  uni_options.labs_per_department = 3;

  constexpr int kSeedsPerCell = 10;
  const int rates[] = {0, 2, 6, 12};

  // Frozen-web reference answer (identical for every regeneration).
  std::set<std::string> reference;
  {
    const web::UniversityWeb uni = web::GenerateUniversityWeb(uni_options);
    core::Engine engine(&uni.web);
    auto outcome = engine.Run(uni.convener_disql);
    if (!outcome.ok() || !outcome->completed) {
      std::fprintf(stderr, "reference run failed\n");
      return 1;
    }
    reference = AllRowKeys(outcome->results);
  }

  std::printf(
      "R4 — Churn: university query under seeded mid-run web mutation\n"
      "(page edits, link adds/removes, site spawns and whole-site\n"
      "retirements land 10-250 ms into the run; %d seeded schedules per\n"
      "rate; every answer is classified fresh/stale/superseded per node —\n"
      "never a silent torn read)\n\n",
      kSeedsPerCell);

  bench::TablePrinter table({
      "mutations/run", "response ms", "exact", "fresh", "stale", "supersd",
      "retired", "gated", "nacks", "msgs",
  });

  bench::JsonBenchWriter json("BENCH_CHURN.json");
  for (const int rate : rates) {
    CellSummary sum;
    // webdis-lint: allow(clock) — wall time feeds the bench gate
    const auto wall_start = std::chrono::steady_clock::now();
    for (int seed = 1; seed <= kSeedsPerCell; ++seed) {
      // Mutations are destructive: every run mutates a fresh regeneration.
      web::UniversityWeb uni = web::GenerateUniversityWeb(uni_options);
      auto start = html::ParseUrl(uni.root_url);
      if (!start.ok()) return 1;

      web::MutationPlan::RandomOptions mutation_options;
      mutation_options.seed = static_cast<uint64_t>(seed) * 7919 +
                              static_cast<uint64_t>(rate);
      mutation_options.edits = (rate + 1) / 2;
      mutation_options.link_adds = rate / 4;
      mutation_options.link_removes = rate / 12;
      mutation_options.spawns = rate / 6;
      mutation_options.retires = rate / 4;
      mutation_options.window_start = 10 * kMillisecond;
      mutation_options.window_end = 250 * kMillisecond;
      mutation_options.protected_hosts = {core::Engine::kClientHost,
                                          start->host};
      web::MutationPlan plan =
          web::MutationPlan::Random(uni.web, mutation_options);

      core::Engine engine(&uni.web, ChurnOptions());
      engine.InstallMutationPlan(&uni.web, &plan);
      auto outcome = engine.Run(uni.convener_disql);
      if (!outcome.ok() || !outcome->completed) {
        std::fprintf(stderr, "failed: rate=%d seed=%d\n", rate, seed);
        return 1;
      }
      ++sum.runs;
      sum.mutations_applied +=
          plan.stats().pages_edited + plan.stats().links_added +
          plan.stats().links_removed + plan.stats().sites_spawned +
          plan.stats().sites_retired;
      const bool degraded = outcome->partial ||
                            !outcome->retired_sites.empty() ||
                            outcome->fallback_node_count > 0;
      if (!degraded && AllRowKeys(outcome->results) == reference) {
        ++sum.exact_runs;
      }
      sum.fresh += outcome->fresh_nodes;
      sum.stale += outcome->stale_consistent_nodes;
      sum.superseded += outcome->superseded_nodes;
      sum.retired_sites += outcome->retired_sites.size();
      sum.epoch_gated += outcome->epoch_gated_nodes.size();
      sum.retired_nacks += outcome->server_stats.site_retired_nacks_sent;
      sum.total_response += outcome->completion_time - outcome->submit_time;
      sum.messages += outcome->traffic.messages;
      sum.bytes += outcome->traffic.bytes;
    }
    // webdis-lint: allow(clock)
    const auto wall_end = std::chrono::steady_clock::now();
    sum.wall_ms =
        std::chrono::duration<double, std::milli>(wall_end - wall_start)
            .count();
    const auto runs = static_cast<uint64_t>(sum.runs);
    table.AddRow({
        bench::Num(static_cast<uint64_t>(rate)),
        bench::Ms(sum.total_response / runs),
        bench::Num(static_cast<uint64_t>(sum.exact_runs)),
        bench::Num(sum.fresh),
        bench::Num(sum.stale),
        bench::Num(sum.superseded),
        bench::Num(sum.retired_sites),
        bench::Num(sum.epoch_gated),
        bench::Num(sum.retired_nacks),
        bench::Num(sum.messages / runs),
    });
    json.Record("r4_churn_rate" + std::to_string(rate), sum.wall_ms,
                static_cast<double>(sum.total_response / runs) / 1000.0,
                sum.messages, sum.bytes);
  }
  table.Print();

  std::printf(
      "\nRate 0 is the frozen-web control: every run exact, every node\n"
      "fresh. As the mutation rate grows, answers stay exact for their\n"
      "stamped versions while the verdict reclassifies nodes stale /\n"
      "superseded, retirements convert to named outcomes via terminal\n"
      "SiteRetired NACKs, and the message column shows what churn costs in\n"
      "retries and re-dispatched reports.\n");
  return 0;
}

}  // namespace
}  // namespace webdis

int main() { return webdis::Main(); }
