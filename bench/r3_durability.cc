// R3 — durability under crash-restart (PROTOCOL.md §8): the university
// query while each server independently crashes with probability 1% / 5%
// per run, crashing mid-flight and restarting only after every
// retransmission timer has given up. Compares three recovery modes over
// identical crash schedules:
//   volatile      — no storage; crashed queues are gone, deadline GC
//                   degrades the answer to an explicit partial.
//   snapshot      — periodic checkpoints only (persist.wal_enabled=false):
//                   state between checkpoints is still lost.
//   snapshot+wal  — checkpoints plus the write-ahead log with the
//                   ack-after-append rule: every acked clone survives.
// Measures response time (recovery latency), how many runs stay bit-exact
// (completed-query delta), and what the log costs in appended records.
// Emits one JSON line per (mode, crash rate) cell to BENCH_DURABILITY.json
// for the bench_compare wall-clock gate.
#include <chrono>  // webdis-lint: allow(clock) — wall time for bench_compare
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/engine.h"
#include "server/query_server.h"
#include "web/university.h"

namespace webdis {
namespace {

enum class Mode { kVolatile, kSnapshotOnly, kSnapshotWal };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kVolatile: return "volatile";
    case Mode::kSnapshotOnly: return "snapshot";
    case Mode::kSnapshotWal: return "snapshot+wal";
  }
  return "?";
}

core::EngineOptions ModeOptions(Mode mode) {
  core::EngineOptions options;
  options.server.retry.enabled = true;
  options.server.retry.initial_timeout = 100 * kMillisecond;
  options.server.retry.max_timeout = 400 * kMillisecond;
  options.server.retry.max_attempts = 4;
  options.client.retry = options.server.retry;
  options.client.entry_deadline = 10 * kSecond;
  // Admission control gives every server a real pending queue — the state
  // the §8 machinery exists to protect.
  options.server.admission.max_pending = 16;
  options.server.admission.service_time = 25 * kMillisecond;
  switch (mode) {
    case Mode::kVolatile:
      break;
    case Mode::kSnapshotOnly:
      options.server.persist.enabled = true;
      options.server.persist.wal_enabled = false;
      options.server.persist.snapshot_every_clones = 1;
      break;
    case Mode::kSnapshotWal:
      options.server.persist.enabled = true;
      options.server.persist.wal_enabled = true;
      options.server.persist.snapshot_every_clones = 2;
      options.server.persist.wal_compact_bytes = 4096;
      break;
  }
  return options;
}

struct CellSummary {
  int runs = 0;
  int exact_runs = 0;
  int partial_runs = 0;
  int crashes = 0;
  SimTime total_response = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t wal_appends = 0;
  uint64_t snapshots = 0;
  uint64_t recovered_clones = 0;
  uint64_t replayed = 0;
  double wall_ms = 0;
};

int Main() {
  web::UniversityOptions uni_options;
  uni_options.seed = 17;
  uni_options.departments = 3;
  uni_options.labs_per_department = 3;
  const web::UniversityWeb uni = web::GenerateUniversityWeb(uni_options);
  const std::vector<std::string> hosts = uni.web.Hosts();

  constexpr int kSeedsPerCell = 12;
  const int crash_rates[] = {1, 5};

  std::printf(
      "R3 — Durability: university query under random server crashes\n"
      "(each server crashes with the given probability per run, downtime\n"
      "850-1400 ms > the whole 700 ms retransmission window; %d seeded\n"
      "schedules per cell, identical across modes)\n\n",
      kSeedsPerCell);

  bench::TablePrinter table({
      "mode", "crash %", "response ms", "exact", "partial", "crashes",
      "recovered", "replayed", "snaps", "wal recs", "msgs",
  });

  bench::JsonBenchWriter json("BENCH_DURABILITY.json");
  for (const Mode mode :
       {Mode::kVolatile, Mode::kSnapshotOnly, Mode::kSnapshotWal}) {
    for (const int pct : crash_rates) {
      CellSummary sum;
      // webdis-lint: allow(clock) — wall time feeds the bench gate
      const auto wall_start = std::chrono::steady_clock::now();
      for (int seed = 1; seed <= kSeedsPerCell; ++seed) {
        core::Engine engine(&uni.web, ModeOptions(mode));
        // The crash schedule depends only on (seed, pct): all three modes
        // see byte-identical failures.
        Rng schedule(static_cast<uint64_t>(seed) * 6151 +
                     static_cast<uint64_t>(pct));
        for (const std::string& host : hosts) {
          if (!schedule.Bernoulli(pct / 100.0)) continue;
          server::QueryServer* qs = engine.server_for(host);
          if (qs == nullptr) continue;
          ++sum.crashes;
          const SimDuration down =
              schedule.UniformRange(40, 200) * kMillisecond;
          const SimDuration up =
              down + schedule.UniformRange(850, 1400) * kMillisecond;
          engine.network().ScheduleAfter(down, [qs] { qs->Crash(); });
          engine.network().ScheduleAfter(up, [qs] { (void)qs->Restart(); });
        }
        auto outcome = engine.Run(uni.convener_disql);
        if (!outcome.ok() || !outcome->completed) {
          std::fprintf(stderr, "failed: mode=%s pct=%d seed=%d\n",
                       ModeName(mode), pct, seed);
          return 1;
        }
        ++sum.runs;
        const bool degraded = outcome->partial || outcome->budget_exhausted ||
                              outcome->fallback_node_count > 0;
        sum.exact_runs += degraded ? 0 : 1;
        sum.partial_runs += outcome->partial ? 1 : 0;
        sum.total_response += outcome->completion_time - outcome->submit_time;
        sum.messages += outcome->traffic.messages;
        sum.bytes += outcome->traffic.bytes;
        sum.wal_appends += outcome->server_stats.wal_records_appended;
        sum.snapshots += outcome->server_stats.snapshots_written;
        sum.recovered_clones += outcome->server_stats.recovered_clones;
        sum.replayed += outcome->server_stats.replayed_wal_records;
      }
      // webdis-lint: allow(clock)
      const auto wall_end = std::chrono::steady_clock::now();
      sum.wall_ms =
          std::chrono::duration<double, std::milli>(wall_end - wall_start)
              .count();
      const auto runs = static_cast<uint64_t>(sum.runs);
      table.AddRow({
          ModeName(mode),
          bench::Num(static_cast<uint64_t>(pct)),
          bench::Ms(sum.total_response / runs),
          bench::Num(static_cast<uint64_t>(sum.exact_runs)),
          bench::Num(static_cast<uint64_t>(sum.partial_runs)),
          bench::Num(static_cast<uint64_t>(sum.crashes)),
          bench::Num(sum.recovered_clones),
          bench::Num(sum.replayed),
          bench::Num(sum.snapshots),
          bench::Num(sum.wal_appends),
          bench::Num(sum.messages / runs),
      });
      json.Record(std::string("r3_") + ModeName(mode) + "_crash" +
                      std::to_string(pct),
                  sum.wall_ms,
                  static_cast<double>(sum.total_response / runs) / 1000.0,
                  sum.messages, sum.bytes);
    }
  }
  table.Print();

  std::printf(
      "\nThe volatile column pays for every crash with deadline-GC partials;\n"
      "snapshots recover whatever a checkpoint happened to cover; the WAL's\n"
      "ack-after-append rule recovers every acked clone, so crash rate\n"
      "mostly stops costing answers and starts costing only response time\n"
      "(the downtime itself) and log appends.\n");
  return 0;
}

}  // namespace
}  // namespace webdis

int main() { return webdis::Main(); }
