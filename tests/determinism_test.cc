// Determinism proof for the simulated network's event loop: a workload run
// twice with the same seed must give byte-identical outcomes — results, run
// stats, traffic meters and the named degradation sets — including
// schedules composed with fault injection and overload protection. The
// comparison is a full textual signature of everything an outcome exposes,
// so any divergence in any counter fails loudly with the two signatures
// side by side.
//
// Each suite also pins the FNV-1a digest of its signatures across seeds.
// The digests were recorded from the event loop before the time-stepped
// stepper beside it was deleted, so they prove the loop that remains gives
// the virtual results it always gave. A deliberate change to virtual
// behaviour or to FormatRunStats re-records them.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/engine.h"
#include "disql/compiler.h"
#include "net/fault.h"
#include "net/sim.h"
#include "web/synth.h"

namespace webdis {
namespace {

struct Workload {
  std::string name;
  uint64_t seed = 1;
  bool faults = false;    // drop/dup/delay schedule + at-least-once retry
  bool overload = false;  // admission queue + budgets + a hot-host override
  int queries = 1;        // concurrent submissions sharing the network
  // With zero jitter, same-hop messages to different hosts arrive in one
  // wavefront and many events share a timestamp, so ties are broken by
  // sequence number alone; with jitter, arrivals scatter.
  bool jitter = true;
};

std::string SummarizeTraffic(const core::TrafficSummary& t) {
  return StringPrintf(
      "msgs=%llu bytes=%llu inter=%llu/%llu q=%llu/%llu r=%llu/%llu "
      "f=%llu/%llu term=%llu refused=%llu",
      (unsigned long long)t.messages, (unsigned long long)t.bytes,
      (unsigned long long)t.inter_host_messages,
      (unsigned long long)t.inter_host_bytes,
      (unsigned long long)t.query_messages, (unsigned long long)t.query_bytes,
      (unsigned long long)t.report_messages,
      (unsigned long long)t.report_bytes, (unsigned long long)t.fetch_messages,
      (unsigned long long)t.fetch_bytes,
      (unsigned long long)t.terminate_messages,
      (unsigned long long)t.connection_refused);
}

/// Everything observable about an outcome.
std::string SummarizeOutcome(const core::RunOutcome& outcome) {
  std::string out;
  out += StringPrintf(
      "completed=%d partial=%d budget_exhausted=%d rows=%zu "
      "submit=%llu done=%llu last=%llu cht=%zu/%zu/%llu/%llu fallback=%zu\n",
      outcome.completed ? 1 : 0, outcome.partial ? 1 : 0,
      outcome.budget_exhausted ? 1 : 0, outcome.TotalRows(),
      (unsigned long long)outcome.submit_time,
      (unsigned long long)outcome.completion_time,
      (unsigned long long)outcome.last_report_time,
      outcome.cht_total_entries, outcome.cht_max_active,
      (unsigned long long)outcome.cht_suppressed,
      (unsigned long long)outcome.cht_unmatched_deletes,
      outcome.fallback_node_count);
  out += "unreachable:";
  for (const std::string& host : outcome.unreachable_hosts) out += " " + host;
  out += "\nbudget_nodes:";
  for (const std::string& n : outcome.budget_exceeded_nodes) out += " " + n;
  out += "\n";
  out += core::FormatResults(outcome.results);
  out += core::FormatRunStats(outcome);
  out += "traffic: " + SummarizeTraffic(outcome.traffic) + "\n";
  return out;
}

std::string QueryFor(int index) {
  // Vary start node and pattern a little per concurrent query so the batch
  // is not N copies of one schedule.
  const std::string start = web::SynthUrl(index % 3, index % 2);
  const std::string pattern =
      (index % 2 == 0) ? "(L|G)*2" : "G.(L|G)*1";
  return "select d1.url, d1.title\n"
         "from document d1 such that \"" +
         start + "\" " + pattern +
         " d1,\n"
         "where d1.title contains \"alpha\"\n";
}

/// Runs the workload on a fresh web and engine and returns the signature
/// of every query's outcome, in submission order.
std::string RunWorkload(const Workload& w) {
  web::SynthWebOptions web_options;
  web_options.seed = w.seed;
  web_options.num_sites = 5;
  web_options.docs_per_site = 6;
  web_options.filler_paragraphs = 1;
  web_options.words_per_paragraph = 12;
  const web::WebGraph web = web::GenerateSynthWeb(web_options);

  core::EngineOptions options;
  options.network.latency_jitter = w.jitter ? 2 * kMillisecond : 0;
  options.network.jitter_seed = w.seed * 31 + 7;
  if (w.faults) {
    options.server.retry.enabled = true;
    options.client.retry.enabled = true;
  }
  if (w.overload) {
    options.client.budget_max_hops = 6;
    options.client.budget_max_clones = 64;
    options.client.budget_max_rows_per_visit = 8;
    options.server.admission.max_pending = 4;
    options.server.admission.service_time = 2 * kMillisecond;
    // One deliberately hot host with a tiny queue exercises shedding and
    // eviction.
    server::QueryServerOptions hot = options.server;
    hot.admission.max_pending = 1;
    options.server_overrides[web::SynthHost(1)] = hot;
  }
  core::Engine engine(&web, options);

  net::FaultPlan plan(w.seed * 97 + 13);
  if (w.faults) {
    Rng rng(w.seed * 7919);
    for (net::MessageType type :
         {net::MessageType::kWebQuery, net::MessageType::kReport,
          net::MessageType::kDeliveryAck}) {
      net::FaultPlan::Rule rule;
      rule.type = type;
      rule.drop_prob = 0.02 + 0.10 * rng.NextDouble();
      rule.duplicate_prob = 0.08 * rng.NextDouble();
      plan.AddRule(rule);
    }
    net::FaultPlan::Rule delay_rule;
    delay_rule.type = net::MessageType::kReport;
    delay_rule.delay_prob = 0.25;
    delay_rule.delay = rng.UniformRange(1, 8) * kMillisecond;
    plan.AddRule(delay_rule);
    engine.network().SetFaultPlan(&plan);
  }

  const core::TrafficSummary before = engine.TrafficSnapshot();
  std::vector<query::QueryId> ids;
  for (int i = 0; i < w.queries; ++i) {
    auto compiled = disql::CompileDisql(QueryFor(i));
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    if (!compiled.ok()) return "compile error";
    auto id = engine.Submit(compiled.value(), "user" + std::to_string(i));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    if (!id.ok()) return "submit error";
    ids.push_back(id.value());
  }
  engine.network().RunUntilIdle();

  std::string signature;
  for (const query::QueryId& id : ids) {
    signature += SummarizeOutcome(engine.CollectOutcome(id, before));
    signature += "----\n";
  }
  return signature;
}

/// Runs `w` on seeds 1..`seeds`, twice each; the two runs of a seed must
/// agree byte for byte. Returns the FNV-1a digest of the first runs'
/// signatures, in seed order.
uint64_t ExpectDeterministic(Workload w, uint64_t seeds) {
  uint64_t digest = 0xCBF29CE484222325ULL;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    w.seed = seed;
    SCOPED_TRACE(w.name + " seed=" + std::to_string(seed));
    const std::string first = RunWorkload(w);
    EXPECT_EQ(first, RunWorkload(w));
    for (const char c : first) {
      digest = (digest ^ static_cast<uint8_t>(c)) * 0x100000001B3ULL;
    }
  }
  return digest;
}

TEST(EventLoopDeterminismTest, PlainWorkloadAcrossSeeds) {
  EXPECT_EQ(ExpectDeterministic({.name = "plain"}, 16),
            0xCBE52CD3D3FA95AEULL);
}

TEST(EventLoopDeterminismTest, WavefrontWorkloadAcrossSeeds) {
  EXPECT_EQ(ExpectDeterministic(
                {.name = "wavefront", .queries = 4, .jitter = false}, 16),
            0xD8AF25CE5E4B6DB1ULL);
}

TEST(EventLoopDeterminismTest, MultiQueryAcrossSeeds) {
  EXPECT_EQ(ExpectDeterministic({.name = "multiquery", .queries = 4}, 16),
            0xF01955FD64C8B361ULL);
}

TEST(EventLoopDeterminismTest, ComposedWithFaultSchedules) {
  EXPECT_EQ(ExpectDeterministic(
                {.name = "faults", .faults = true, .queries = 2}, 16),
            0x961F0CA4BA77B0CCULL);
  EXPECT_EQ(ExpectDeterministic({.name = "faults-wavefront",
                                 .faults = true,
                                 .queries = 2,
                                 .jitter = false},
                                16),
            0x3428F20A571B2C7DULL);
}

TEST(EventLoopDeterminismTest, ComposedWithOverloadSchedules) {
  EXPECT_EQ(ExpectDeterministic({.name = "overload",
                                 .overload = true,
                                 .queries = 3,
                                 .jitter = false},
                                16),
            0xAB0727EA52CC63DAULL);
}

TEST(EventLoopDeterminismTest, ComposedWithFaultsAndOverload) {
  EXPECT_EQ(ExpectDeterministic({.name = "both",
                                 .faults = true,
                                 .overload = true,
                                 .queries = 2},
                                8),
            0x6C7854B8F4B6ACE8ULL);
  EXPECT_EQ(ExpectDeterministic({.name = "both-wavefront",
                                 .faults = true,
                                 .overload = true,
                                 .queries = 2,
                                 .jitter = false},
                                16),
            0x2E6023718623F963ULL);
}

}  // namespace
}  // namespace webdis
