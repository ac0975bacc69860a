// S2 — multi-query workloads through one deployment: Q concurrent queries
// submitted together vs the same queries run back-to-back. Distribution
// lets independent queries overlap across sites, so the virtual makespan of
// the batch grows far slower than the serial sum — the "client-site
// bottleneck" argument of Section 1 seen from the throughput side.
//
// A second sweep re-runs each batch with cross-query sharing enabled
// (server-side result cache + clone/report batch envelopes). Overlapping
// traversals then reuse node-query results and ride shared wire envelopes,
// so message count grows sublinearly in Q — tools/bench_compare.py gates on
// shared traffic staying at or below half the unshared count at Q=16.
#include <chrono>  // webdis-lint: allow(clock) — wall time for bench_compare
#include <cstdio>

#include "bench/bench_util.h"
#include "core/engine.h"
#include "web/synth.h"

namespace webdis {
namespace {

std::string QueryFor(int i) {
  return "select d.url from document d such that \"" +
         web::SynthUrl(i % 4, i % 7) +
         "\" (L|G)*3 d where d.title contains \"alpha\"";
}

struct BatchResult {
  double wall_ms = 0;
  SimTime makespan = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  bool all_complete = true;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

BatchResult RunBatch(const web::WebGraph& web, int q, bool shared) {
  core::EngineOptions options;
  if (shared) {
    options.server.share_results = true;
    options.server.result_cache_max_bytes = 1 << 20;
    options.server.batch_window = 5 * kMillisecond;
    options.server.batch_max_members = 16;
  }
  core::Engine engine(&web, options);
  const core::TrafficSummary before = engine.TrafficSnapshot();
  std::vector<query::QueryId> ids;
  for (int i = 0; i < q; ++i) {
    auto compiled = disql::CompileDisql(QueryFor(i));
    if (!compiled.ok()) return {};
    auto id = engine.Submit(compiled.value(), "u" + std::to_string(i));
    if (!id.ok()) return {};
    ids.push_back(id.value());
  }
  // webdis-lint: allow(clock) — wall time feeds the bench-regression gate
  const auto wall_start = std::chrono::steady_clock::now();
  engine.network().RunUntilIdle();
  // webdis-lint: allow(clock)
  const auto wall_end = std::chrono::steady_clock::now();

  BatchResult result;
  result.wall_ms =
      std::chrono::duration<double, std::milli>(wall_end - wall_start)
          .count();
  for (const query::QueryId& id : ids) {
    const client::UserSite::QueryRun* run = engine.user_site().Find(id);
    result.all_complete = result.all_complete && run->completed;
    result.makespan = std::max(result.makespan, run->completion_time);
  }
  const core::TrafficSummary after = engine.TrafficSnapshot();
  result.messages = after.messages - before.messages;
  result.bytes = after.bytes - before.bytes;
  const server::QueryServerStats stats = engine.AggregateServerStats();
  result.cache_hits = stats.result_cache_hits;
  result.cache_misses = stats.result_cache_misses;
  return result;
}

std::string HitRateJson(const BatchResult& r) {
  const uint64_t lookups = r.cache_hits + r.cache_misses;
  const double rate =
      lookups == 0 ? 0.0 : static_cast<double>(r.cache_hits) / lookups;
  char buf[64];
  std::snprintf(buf, sizeof(buf), ", \"cache_hit_rate\": %.3f", rate);
  return buf;
}

int Main() {
  std::printf(
      "S2 — Concurrent query batches vs serial execution (8 sites)\n\n");
  web::SynthWebOptions web_options;
  web_options.seed = 3;
  web_options.num_sites = 8;
  web_options.docs_per_site = 8;
  const web::WebGraph web = web::GenerateSynthWeb(web_options);

  bench::JsonBenchWriter json("BENCH_MULTIQUERY.json");
  bench::TablePrinter table({
      "queries", "batch makespan ms", "serial sum ms", "speedup",
      "batch msgs", "shared msgs", "msg ratio", "cache hit%", "all complete",
  });
  for (int q : {1, 2, 4, 8, 16}) {
    const BatchResult plain = RunBatch(web, q, /*shared=*/false);
    const BatchResult shared = RunBatch(web, q, /*shared=*/true);

    // Serial reference: fresh engine per query, times summed.
    SimTime serial_sum = 0;
    for (int i = 0; i < q; ++i) {
      core::Engine solo(&web);
      auto outcome = solo.Run(QueryFor(i));
      if (!outcome.ok() || !outcome->completed) return 1;
      serial_sum += outcome->completion_time - outcome->submit_time;
    }

    const uint64_t lookups = shared.cache_hits + shared.cache_misses;
    char hit_pct[32];
    std::snprintf(hit_pct, sizeof(hit_pct), "%.0f%%",
                  lookups == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(shared.cache_hits) /
                            static_cast<double>(lookups));
    table.AddRow({
        bench::Num(static_cast<uint64_t>(q)),
        bench::Ms(plain.makespan),
        bench::Ms(serial_sum),
        bench::Ratio(static_cast<double>(serial_sum),
                     static_cast<double>(plain.makespan)),
        bench::Num(plain.messages),
        bench::Num(shared.messages),
        bench::Ratio(static_cast<double>(shared.messages),
                     static_cast<double>(plain.messages)),
        hit_pct,
        plain.all_complete && shared.all_complete ? "yes" : "NO",
    });
    json.Record("s2_multiquery_q" + std::to_string(q), plain.wall_ms,
                static_cast<double>(plain.makespan) / 1000.0, plain.messages,
                plain.bytes);
    json.Record("s2_multiquery_shared_q" + std::to_string(q), shared.wall_ms,
                static_cast<double>(shared.makespan) / 1000.0,
                shared.messages, shared.bytes, HitRateJson(shared));
  }
  table.Print();
  std::printf(
      "\nQueries overlap freely across sites; the batch makespan approaches\n"
      "the longest single query while the serial sum grows linearly. With\n"
      "sharing on, overlapping traversals collapse onto cached node-query\n"
      "results and batched envelopes, so message count grows sublinearly.\n");
  return 0;
}

}  // namespace
}  // namespace webdis

int main() { return webdis::Main(); }
