// The WEBDIS benchmark: runs one workload from a seed for a fixed
// measuring time and prints every metric by name with its unit, ending with
// one JSON line {"correct", "attempted", "failed", "metrics"}.
//
//   webdis_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--trace-out <file>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
// breakdown from a traced drive replayed through each layer's public
// functions. Exit status: 0 on success, 1 on a wrong answer, a replay-count
// mismatch or a nondeterministic drive, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "stats.h"
#include "tracer.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Written by the calibration kernel so the compiler keeps its work.
std::atomic<uint64_t> calibration_sink{0};

/// Effective parallelism: a fixed integer kernel timed on one thread, then
/// on `threads` threads at once. On a machine whose cores are real this is
/// close to `threads`; on an oversubscribed virtual machine it can be near 1.
double EffectiveCores(unsigned threads) {
  const auto kernel = [](uint64_t seed) {
    uint64_t x = seed;
    for (int i = 0; i < 40'000'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      x ^= x >> 29;
    }
    calibration_sink.store(x, std::memory_order_relaxed);
  };
  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    double t = Now();
    kernel(rep);
    const double one = Now() - t;
    t = Now();
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i) pool.emplace_back(kernel, i);
    for (std::thread& th : pool) th.join();
    const double many = Now() - t;
    ratios.push_back(static_cast<double>(threads) * one / many);
  }
  return Median(ratios);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Metrics in print order: name -> (value, unit).
class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("  %-34s %16.6f %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Host timings of one round; the first round of each kind also keeps its
/// full drive result.
struct Round {
  double setup_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double run_wall_s = 0;
};

int Run(const Args& args) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  auto made = MakeInputs(args.workload, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 2;
  }
  const Inputs& inputs = made.value();
  const size_t queries = inputs.starts.size();

  const double effective = EffectiveCores(nproc);
  std::printf("machine: nproc=%u build_type=%s effective_cores=%.2f\n", nproc,
              PERFBENCH_BUILD_TYPE, effective);
  std::printf(
      "workload %s seed %" PRIu64 ": %zu queries, Poisson arrivals at %.0f/s "
      "(virtual), trace=%d\n",
      inputs.name.c_str(), args.seed, queries, inputs.arrival_rate,
      args.trace ? 1 : 0);
  std::fflush(stdout);

  std::vector<Round> plain, traced;
  std::unique_ptr<DriveResult> first_plain, first_traced;
  std::unique_ptr<Tracer> tracer;
  std::string failure;
  const double start = Now();
  while (failure.empty()) {
    const double elapsed = Now() - start;
    const bool enough = args.trace ? plain.size() >= 2 && !traced.empty()
                                   : plain.size() >= 3;
    if (enough && elapsed >= args.seconds) break;
    // Traced runs alternate plain and traced rounds, so the tracing
    // overhead compares drives made under the same machine conditions.
    const bool trace_round = args.trace && traced.size() < plain.size();
    std::unique_ptr<Tracer> round_tracer =
        trace_round ? std::make_unique<Tracer>() : nullptr;
    Round round;
    std::unique_ptr<DriveResult> drive;
    {
      const double t = Now();
      auto deployment = SetUp(inputs, round_tracer.get());
      round.setup_s = Now() - t;
      if (!deployment.ok()) {
        failure = "set-up failed: " + deployment.status().ToString();
        break;
      }
      drive = std::make_unique<DriveResult>(
          Drive(inputs, &deployment.value(), round_tracer.get()));
    }  // the deployment is torn down before the next set-up
    round.wall_s = drive->wall_s;
    round.cpu_s = drive->cpu_s;
    round.run_wall_s = drive->run_wall_s;
    const DriveResult* reference =
        first_plain != nullptr ? first_plain.get() : first_traced.get();
    if (reference != nullptr && reference->signature != drive->signature) {
      failure = "nondeterministic drive: round " +
                std::to_string(plain.size() + traced.size()) +
                " differs from round 0 in latencies, traffic or rows";
    }
    std::printf("  round %zu%s: set-up %.3f s, drive %.3f s wall, %.3f s cpu\n",
                plain.size() + traced.size(), trace_round ? " (traced)" : "",
                round.setup_s, round.wall_s, round.cpu_s);
    std::fflush(stdout);
    if (trace_round) {
      traced.push_back(round);
      if (first_traced == nullptr) {
        first_traced = std::move(drive);
        tracer = std::move(round_tracer);
      }
    } else {
      plain.push_back(round);
      if (first_plain == nullptr) first_plain = std::move(drive);
    }
  }
  const double peak_rss_mb = PeakRssMb();
  const size_t rounds = plain.size() + traced.size();

  const DriveResult empty;
  const DriveResult& result = first_plain != nullptr ? *first_plain : empty;
  size_t completed = 0, clean = 0;
  std::vector<double> latencies;
  for (const QueryResult& q : result.queries) {
    if (!q.completed) continue;
    ++completed;
    if (!q.degraded) ++clean;
    latencies.push_back(q.latency_ms);
  }
  std::sort(latencies.begin(), latencies.end());

  // Answer oracle, outside every timed region.
  if (failure.empty()) {
    const webdis::Status oracle =
        CheckAnswers(inputs, result, args.seed, /*max_checks=*/48);
    if (!oracle.ok()) failure = "wrong answer: " + oracle.ToString();
  }
  if (failure.empty() && completed < 1000) {
    failure = "only " + std::to_string(completed) +
              " completed queries: p99 needs at least 1000";
  }

  Metrics metrics;
  const auto median_of = [](const std::vector<Round>& rs, double Round::*f) {
    std::vector<double> v;
    for (const Round& r : rs) v.push_back(r.*f);
    return Median(v);
  };
  // Host cost of the plain (untraced) drives, medians over rounds. On a
  // shared host these drift by tens of percent between runs, so they are
  // reported with the per-layer metrics, which carry no regression bound.
  std::vector<double> qps, cpu;
  for (const Round& r : plain) {
    qps.push_back(static_cast<double>(completed) / r.wall_s);
    cpu.push_back(r.cpu_s * 1000.0 / static_cast<double>(completed));
  }
  const double queries_per_s = qps.empty() ? 0.0 : Median(qps);
  const double cpu_ms_per_query = cpu.empty() ? 0.0 : Median(cpu);
  if (failure.empty() && !args.trace) {
    const auto n = static_cast<double>(queries);
    metrics.Add("setup_s", median_of(plain, &Round::setup_s), "s");
    metrics.Add("latency_p50_ms", Percentile(latencies, 50), "ms");
    metrics.Add("latency_p99_ms", Percentile(latencies, 99), "ms");
    metrics.Add("messages_per_query", static_cast<double>(result.messages) / n,
                "count");
    metrics.Add("bytes_per_query", static_cast<double>(result.bytes) / n,
                "bytes");
    metrics.Add("completed_fraction", static_cast<double>(completed) / n,
                "ratio");
    metrics.Add("clean_fraction", static_cast<double>(clean) / n, "ratio");
    metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
    const double tail = TailPercentile(latencies.size());
    std::printf(
        "\nend to end (%zu rounds, medians of host timings):\n"
        "  host cost (unbounded; see --trace 1): %.3f queries/s, %.4f cpu "
        "ms/query\n"
        "  latency samples %zu; highest tail with >= 10 samples beyond: "
        "p%g = %.3f ms\n"
        "  failed_fraction %.6f, degraded_fraction %.6f (queries degraded by "
        "budget/shed %llu, retired site %llu, stale %llu, superseded %llu)\n",
        plain.size(), queries_per_s, cpu_ms_per_query, latencies.size(), tail,
        Percentile(latencies, tail),
        1.0 - static_cast<double>(completed) / n,
        static_cast<double>(completed - clean) / n,
        static_cast<unsigned long long>(result.degraded_by_cause[0]),
        static_cast<unsigned long long>(result.degraded_by_cause[1]),
        static_cast<unsigned long long>(result.degraded_by_cause[2]),
        static_cast<unsigned long long>(result.degraded_by_cause[3]));
  }

  if (failure.empty() && args.trace) {
    auto replayed = Replay(inputs, *tracer, *first_traced);
    if (!replayed.ok()) {
      failure = replayed.status().ToString();
    } else {
      const LayerReplay& l = replayed.value();
      const DriveResult& d = *first_traced;
      const auto delta = [&d](uint64_t webdis::server::QueryServerStats::*f) {
        return static_cast<double>(d.server.*f - d.server_before.*f);
      };
      using S = webdis::server::QueryServerStats;
      const double ms = 1000.0;
      const double drive_ms = d.run_wall_s * ms;
      const double layer_ms =
          (l.materialize_s + l.parse_edited_s + l.db_build_s + l.eval_s +
           l.derive_s + l.codec_s + tracer->Seconds(Tracer::kCompile) +
           tracer->Seconds(Tracer::kSubmit) +
           // Churn collects each outcome inside the drive (at completion).
           (inputs.churn ? tracer->Seconds(Tracer::kCollect) : 0.0)) *
          ms;
      const double overhead_ms = (median_of(traced, &Round::run_wall_s) -
                                  median_of(plain, &Round::run_wall_s)) *
                                 ms;
      const double db_hits = delta(&S::db_cache_hits);
      const double rc_hits = delta(&S::result_cache_hits);
      const double envelopes =
          delta(&S::clone_batches_sent) + delta(&S::report_batches_sent);
      metrics.Add("web.materialize_ms", l.materialize_s * ms, "ms");
      metrics.Add("web.materializations", l.materializations, "count");
      metrics.Add("web.materialize_ratio", Ratio(l.materializations, l.visits),
                  "ratio");
      metrics.Add("web.mutations_applied", d.mutations_applied, "count");
      metrics.Add("html.parse_ms", l.parse_s * ms, "ms");
      metrics.Add("html.parses", l.parses, "count");
      metrics.Add("html.parse_bytes", l.parse_bytes, "bytes");
      metrics.Add("server.db_build_ms", l.db_build_s * ms, "ms");
      metrics.Add("server.db_builds", l.db_builds, "count");
      metrics.Add("server.db_cache_hit_ratio",
                  Ratio(db_hits, db_hits + delta(&S::db_constructions)),
                  "ratio");
      metrics.Add("server.visits", l.visits, "count");
      metrics.Add("server.dup_ratio",
                  Ratio(delta(&S::duplicates_dropped),
                        delta(&S::clones_received)),
                  "ratio");
      metrics.Add("server.answer_ratio",
                  Ratio(delta(&S::answers_found),
                        delta(&S::node_queries_evaluated)),
                  "ratio");
      metrics.Add("server.result_cache_hit_ratio",
                  Ratio(rc_hits, rc_hits + delta(&S::result_cache_misses)),
                  "ratio");
      metrics.Add("server.batch_members_per_envelope",
                  Ratio(delta(&S::clone_batch_members_sent) +
                            delta(&S::report_batch_members_sent),
                        envelopes),
                  "count");
      metrics.Add("server.clones_shed", delta(&S::clones_shed), "count");
      metrics.Add("server.queue_peak", static_cast<double>(d.server.queue_peak),
                  "count");
      metrics.Add("server.retries", delta(&S::retries), "count");
      metrics.Add("relational.eval_ms", l.eval_s * ms, "ms");
      metrics.Add("relational.evals", l.evals, "count");
      metrics.Add("relational.rows", l.rows, "count");
      metrics.Add("pre.derive_ms", l.derive_s * ms, "ms");
      metrics.Add("pre.derives", l.derives, "count");
      metrics.Add("serialize.codec_ms", l.codec_s * ms, "ms");
      metrics.Add("serialize.codec_bytes", l.codec_bytes, "bytes");
      metrics.Add("disql.compile_ms", tracer->Seconds(Tracer::kCompile) * ms,
                  "ms");
      metrics.Add("core.submit_ms", tracer->Seconds(Tracer::kSubmit) * ms,
                  "ms");
      metrics.Add("core.collect_ms", tracer->Seconds(Tracer::kCollect) * ms,
                  "ms");
      metrics.Add("net.drive_ms", drive_ms, "ms");
      metrics.Add("net.residual_ms", drive_ms - layer_ms, "ms");
      metrics.Add("net.delivered", d.delivered, "count");
      metrics.Add("net.bytes_per_message", Ratio(d.bytes, d.messages),
                  "bytes");
      metrics.Add("client.cht_max_active", d.cht_max_active, "count");
      metrics.Add("client.duplicate_rows_filtered", d.duplicate_rows_filtered,
                  "count");
      metrics.Add("client.degraded_reports", d.degraded_reports, "count");
      metrics.Add("core.queries_per_s", queries_per_s, "1/s");
      metrics.Add("core.cpu_ms_per_query", cpu_ms_per_query, "ms");
      metrics.Add("trace.overhead_ms", overhead_ms, "ms");
      metrics.Add("machine.effective_cores", effective, "cores");
      std::printf(
          "\nper layer (one traced drive of %zu visits, replayed; drive "
          "%.1f ms, replayed layers %.1f ms, tracing overhead %.1f ms over "
          "%zu traced / %zu plain rounds):\n",
          tracer->visits().size(), drive_ms, layer_ms, overhead_ms,
          traced.size(), plain.size());
      for (const auto& [name, s] :
           std::vector<std::pair<std::string, double>>{
               {"materialize", l.materialize_s},
               {"parse", l.parse_s},
               {"db_build", l.db_build_s},
               {"eval", l.eval_s},
               {"derive", l.derive_s},
               {"codec", l.codec_s}}) {
        tracer->AddReplaySpan(name, s);
      }
      if (!args.trace_out.empty()) {
        const webdis::Status written = tracer->WriteChromeTrace(args.trace_out);
        if (!written.ok()) failure = written.ToString();
      }
    }
  }

  if (!failure.empty()) {
    std::printf("\nFAIL: %s\n", failure.c_str());
  } else {
    metrics.Print();
  }
  const size_t failed_queries = queries - completed;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      failure.empty() ? "true" : "false", queries * rounds,
      failed_queries * rounds, metrics.Json().c_str());
  return failure.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // The drive's own warnings (shed clones, retired sites) are expected
  // under churn; keep stdout for the report.
  webdis::SetLogLevel(webdis::LogLevel::kError);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
