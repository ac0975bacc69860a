#include <gtest/gtest.h>

#include "client/cht.h"
#include "serialize/encoder.h"
#include "client/user_site.h"
#include "common/strings.h"
#include "core/engine.h"
#include "net/fault.h"
#include "web/topologies.h"

namespace webdis::client {
namespace {

using query::CloneState;

pre::Pre P(const std::string& s) { return pre::Pre::Parse(s).value(); }
CloneState S(uint32_t n, const std::string& p) { return CloneState{n, P(p)}; }

// -- CurrentHostsTable, paper mode ---------------------------------------------

TEST(ChtPaperModeTest, AddMarkDeleteComplete) {
  CurrentHostsTable cht(/*dedup=*/true, /*robust=*/false);
  EXPECT_FALSE(cht.AllDeleted());  // empty table is not complete
  EXPECT_TRUE(cht.Add("http://a/x", S(2, "L")));
  EXPECT_TRUE(cht.Add("http://a/y", S(2, "L")));
  EXPECT_FALSE(cht.AllDeleted());
  EXPECT_TRUE(cht.MarkDeleted("http://a/x", S(2, "L")));
  EXPECT_FALSE(cht.AllDeleted());
  EXPECT_TRUE(cht.MarkDeleted("http://a/y", S(2, "L")));
  EXPECT_TRUE(cht.AllDeleted());
  EXPECT_EQ(cht.max_active(), 2u);
}

TEST(ChtPaperModeTest, DeleteRequiresMatchingState) {
  CurrentHostsTable cht(true, false);
  cht.Add("http://a/x", S(2, "L"));
  EXPECT_FALSE(cht.MarkDeleted("http://a/x", S(1, "L")));
  EXPECT_FALSE(cht.MarkDeleted("http://a/x", S(2, "G")));
  EXPECT_EQ(cht.unmatched_deletes(), 2u);
  EXPECT_TRUE(cht.MarkDeleted("http://a/x", S(2, "L")));
}

TEST(ChtPaperModeTest, DedupSuppressesEquivalentAdds) {
  CurrentHostsTable cht(true, false);
  EXPECT_TRUE(cht.Add("n", S(1, "L*2.G")));
  // Identical: suppressed.
  EXPECT_FALSE(cht.Add("n", S(1, "L*2.G")));
  // Subset: suppressed ("should not be entered into the CHT", §3.1.1).
  EXPECT_FALSE(cht.Add("n", S(1, "L*1.G")));
  // Superset: kept (the target will process the difference).
  EXPECT_TRUE(cht.Add("n", S(1, "L*4.G")));
  EXPECT_EQ(cht.suppressed_count(), 2u);
  EXPECT_EQ(cht.total_count(), 2u);
}

TEST(ChtPaperModeTest, DedupOffKeepsEverything) {
  CurrentHostsTable cht(/*dedup=*/false, false);
  EXPECT_TRUE(cht.Add("n", S(1, "L")));
  EXPECT_TRUE(cht.Add("n", S(1, "L")));
  EXPECT_EQ(cht.total_count(), 2u);
  // Two identical entries need two deletes.
  EXPECT_TRUE(cht.MarkDeleted("n", S(1, "L")));
  EXPECT_FALSE(cht.AllDeleted());
  EXPECT_TRUE(cht.MarkDeleted("n", S(1, "L")));
  EXPECT_TRUE(cht.AllDeleted());
}

// -- CurrentHostsTable, robust mode ---------------------------------------------

TEST(ChtRobustModeTest, BalancesAddsAndDeletes) {
  CurrentHostsTable cht(true, /*robust=*/true);
  cht.Add("n", S(1, "L"));
  cht.Add("n", S(1, "L"));  // suppressed but still counted
  EXPECT_FALSE(cht.AllDeleted());
  cht.MarkDeleted("n", S(1, "L"));
  EXPECT_FALSE(cht.AllDeleted());  // balance is +1
  cht.MarkDeleted("n", S(1, "L"));
  EXPECT_TRUE(cht.AllDeleted());
}

TEST(ChtRobustModeTest, ToleratesDeleteBeforeAdd) {
  // The overtaking case: a small drop-report arrives before the (large)
  // report that creates its entry.
  CurrentHostsTable cht(true, true);
  cht.Add("start", S(1, "L"));
  cht.MarkDeleted("start", S(1, "L"));
  cht.MarkDeleted("n", S(1, "G"));  // delete first...
  EXPECT_FALSE(cht.AllDeleted());   // balance for n is -1: still in flight
  cht.Add("n", S(1, "G"));          // ...then its add
  EXPECT_TRUE(cht.AllDeleted());
}

TEST(ChtRobustModeTest, EmptyIsNotComplete) {
  CurrentHostsTable cht(true, true);
  EXPECT_FALSE(cht.AllDeleted());
}

TEST(ChtRobustModeTest, StateCanonicalizationInBalanceKeys) {
  CurrentHostsTable cht(false, true);
  cht.Add("n", S(1, "G | L"));
  cht.MarkDeleted("n", S(1, "L | G"));  // same language, same key
  EXPECT_TRUE(cht.AllDeleted());
}

TEST(ChtReleaseTest, ReleaseFreesTablesAndKeepsCounters) {
  for (const bool robust : {false, true}) {
    CurrentHostsTable cht(/*dedup=*/true, robust);
    cht.Add("http://a/x", S(1, "L*2.G"));
    cht.Add("http://a/x", S(1, "L*1.G"));  // suppressed
    cht.Add("http://a/y", S(1, "G"));
    cht.MarkDeleted("http://a/x", S(1, "L*2.G"));
    cht.MarkDeleted("http://a/y", S(2, "G"));  // unmatched
    cht.MarkDeleted("http://a/y", S(1, "G"));
    const size_t total = cht.total_count();
    const size_t max_active = cht.max_active();
    const uint64_t suppressed = cht.suppressed_count();
    const uint64_t unmatched = cht.unmatched_deletes();
    EXPECT_EQ(total, 2u);
    cht.Release();
    EXPECT_TRUE(cht.entries().empty()) << robust;
    EXPECT_EQ(cht.total_count(), total) << robust;
    EXPECT_EQ(cht.max_active(), max_active) << robust;
    EXPECT_EQ(cht.suppressed_count(), suppressed) << robust;
    EXPECT_EQ(cht.unmatched_deletes(), unmatched) << robust;
    EXPECT_EQ(cht.active_count(), 0u) << robust;
  }
}

// -- UserSite ---------------------------------------------------------------------

class UserSiteTest : public ::testing::Test {
 protected:
  core::Engine MakeEngine(core::EngineOptions options = {}) {
    return core::Engine(&scenario_.web, options);
  }
  web::CampusScenario scenario_ = web::BuildCampusScenario();
};

TEST_F(UserSiteTest, SubmitAssignsDistinctIdsAndPorts) {
  core::Engine engine = MakeEngine();
  auto compiled = disql::CompileDisql(scenario_.disql);
  ASSERT_TRUE(compiled.ok());
  auto id1 = engine.Submit(compiled.value(), "maya");
  auto id2 = engine.Submit(compiled.value(), "maya");
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());
  EXPECT_NE(id1->query_number, id2->query_number);
  EXPECT_NE(id1->reply_port, id2->reply_port);
  EXPECT_EQ(id1->user, "maya");
  engine.network().RunUntilIdle();
  EXPECT_TRUE(engine.user_site().IsComplete(id1.value()));
  EXPECT_TRUE(engine.user_site().IsComplete(id2.value()));
}

TEST_F(UserSiteTest, UnknownStartSiteFallsBack) {
  core::Engine engine = MakeEngine();
  auto compiled = disql::CompileDisql(
      "select d.url from document d such that \"http://nonexistent.example/\""
      " L d");
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  engine.network().RunUntilIdle();
  const UserSite::QueryRun* run = engine.user_site().Find(id.value());
  ASSERT_NE(run, nullptr);
  EXPECT_TRUE(run->completed);  // nothing outstanding
  ASSERT_EQ(run->fallback_nodes.size(), 1u);
  EXPECT_EQ(run->fallback_nodes[0].node_url, "http://nonexistent.example/");
}

TEST_F(UserSiteTest, PassiveCancelStopsProcessing) {
  core::EngineOptions options;
  // Slow the network so we can cancel mid-flight.
  options.network.inter_host_latency = 100 * kMillisecond;
  core::Engine engine = MakeEngine(options);
  auto compiled = disql::CompileDisql(scenario_.disql);
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  // Let the first hop happen, then cancel.
  engine.network().RunOne();
  engine.user_site().Cancel(id.value());
  engine.network().RunUntilIdle();
  const UserSite::QueryRun* run = engine.user_site().Find(id.value());
  EXPECT_TRUE(run->cancelled);
  EXPECT_FALSE(run->completed);
  // Passive termination: at least one server hit a refused report.
  EXPECT_GT(engine.AggregateServerStats().passive_terminations, 0u);
  // And no terminate messages were needed.
  EXPECT_EQ(engine.TrafficSnapshot().terminate_messages, 0u);
}

TEST_F(UserSiteTest, ActiveCancelSendsTerminates) {
  core::EngineOptions options;
  options.client.active_termination = true;
  options.network.inter_host_latency = 100 * kMillisecond;
  core::Engine engine = MakeEngine(options);
  auto compiled = disql::CompileDisql(scenario_.disql);
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  engine.network().RunOne();
  engine.user_site().Cancel(id.value());
  engine.network().RunUntilIdle();
  EXPECT_GT(engine.TrafficSnapshot().terminate_messages, 0u);
  const UserSite::QueryRun* run = engine.user_site().Find(id.value());
  EXPECT_GT(run->stats.termination_messages_sent, 0u);
}

TEST_F(UserSiteTest, TimeoutCompletionModeWaitsFullTimeout) {
  core::EngineOptions options;
  options.client.use_cht = false;
  options.completion_timeout = 10 * kSecond;
  core::Engine engine = MakeEngine(options);
  auto outcome = engine.Run(scenario_.disql);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->completed);
  // The timeout strawman declares completion a full timeout after the last
  // arrival — CHT mode would have known at last_report_time.
  EXPECT_EQ(outcome->completion_time,
            outcome->last_report_time + 10 * kSecond);
}

TEST_F(UserSiteTest, SubmitRejectsEmptyStartNodes) {
  core::Engine engine = MakeEngine();
  disql::CompiledQuery empty;
  auto id = engine.Submit(empty);
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(UserSiteTest, ReportForUnknownQueryIgnored) {
  core::Engine engine = MakeEngine();
  auto compiled = disql::CompileDisql(scenario_.disql);
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  // Forge a report with a mismatched query id straight to the result port.
  query::QueryReport forged;
  forged.id = id.value();
  forged.id.query_number += 99;  // wrong query
  query::NodeReport nr;
  nr.node_url = "http://bogus/";
  nr.received_state =
      query::CloneState{1, pre::Pre::Parse("L").value()};
  forged.node_reports.push_back(std::move(nr));
  serialize::Encoder enc;
  forged.EncodeTo(&enc);
  ASSERT_TRUE(engine.network()
                  .Send(net::Endpoint{"attacker", 1},
                        net::Endpoint{core::Engine::kClientHost,
                                      id->reply_port},
                        net::MessageType::kReport, enc.Release())
                  .ok());
  engine.network().RunUntilIdle();
  // The real query still completed correctly despite the forgery.
  const client::UserSite::QueryRun* run = engine.user_site().Find(id.value());
  EXPECT_TRUE(run->completed);
  EXPECT_EQ(run->results.size(), 2u);
}

TEST_F(UserSiteTest, ResultsDedupAcrossReports) {
  // With server dedup off, duplicate rows arrive; the client filters them.
  core::EngineOptions options;
  options.server.dedup_enabled = false;
  web::Scenario fig5 = web::BuildFig5Scenario();
  core::Engine engine(&fig5.web, options);
  auto outcome = engine.Run(fig5.disql);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->client_stats.duplicate_rows_filtered, 0u);
  // Unique rows only in the final result sets.
  for (const relational::ResultSet& rs : outcome->results) {
    std::set<std::string> seen;
    for (const relational::Tuple& row : rs.rows) {
      std::string key;
      for (const relational::Value& v : row) key += v.ToString() + "|";
      EXPECT_TRUE(seen.insert(key).second) << "duplicate row " << key;
    }
  }
}

// -- Failure handling: CHT deadline GC and report receipt dedup ---------------

TEST(ChtDeadlineTest, DrainExpiredCollectsIdleNonzeroKeys) {
  CurrentHostsTable cht(/*dedup=*/true, /*robust=*/true);
  cht.Add("http://a/x", S(1, "L"), /*now=*/0);
  cht.Add("http://b/y", S(1, "G"), 0);
  cht.MarkDeleted("http://b/y", S(1, "G"), 5 * kMillisecond);
  // Fresh activity just before the sweep keeps a key alive.
  cht.Add("http://c/z", S(2, "L"), 9 * kMillisecond);

  auto expired = cht.DrainExpired(11 * kMillisecond, 10 * kMillisecond);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].node_url, "http://a/x");
  EXPECT_FALSE(cht.AllDeleted());  // c/z is still outstanding

  cht.MarkDeleted("http://c/z", S(2, "L"), 12 * kMillisecond);
  EXPECT_TRUE(cht.AllDeleted());

  // Negative balances (a delete whose matching add was lost) expire too.
  cht.MarkDeleted("http://d/w", S(1, "L"), 20 * kMillisecond);
  EXPECT_FALSE(cht.AllDeleted());
  auto expired2 = cht.DrainExpired(31 * kMillisecond, 10 * kMillisecond);
  ASSERT_EQ(expired2.size(), 1u);
  EXPECT_EQ(expired2[0].node_url, "http://d/w");
  EXPECT_TRUE(cht.AllDeleted());
}

core::EngineOptions FailureHandlingOptions() {
  core::EngineOptions options;
  options.server.retry.enabled = true;
  options.server.retry.initial_timeout = 100 * kMillisecond;
  options.server.retry.max_timeout = 400 * kMillisecond;
  options.server.retry.max_attempts = 4;
  options.client.retry = options.server.retry;
  options.client.entry_deadline = 10 * kSecond;
  return options;
}

TEST(DeadlineGcTest, UnreachableHostYieldsExplicitPartialCompletion) {
  web::CampusScenario scenario = web::BuildCampusScenario();
  core::Engine engine(&scenario.web, FailureHandlingOptions());
  // Every report from the DSL site is lost after accept, retransmissions
  // included: its CHT entries go idle and only the deadline GC can finish
  // the query.
  net::FaultPlan plan;
  net::FaultPlan::Rule rule;
  rule.type = net::MessageType::kReport;
  rule.from_host = "dsl.serc.iisc.ernet.in";
  rule.drop_prob = 1.0;
  plan.AddRule(rule);
  engine.network().SetFaultPlan(&plan);

  auto outcome = engine.Run(scenario.disql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->completed);
  EXPECT_TRUE(outcome->partial);
  EXPECT_GT(outcome->client_stats.entries_gc, 0u);
  bool dsl_named = false;
  for (const std::string& host : outcome->unreachable_hosts) {
    if (host.find("dsl.serc") != std::string::npos) dsl_named = true;
  }
  EXPECT_TRUE(dsl_named);
  // The sender side really did give up on those reports.
  EXPECT_GT(engine.AggregateServerStats().retry_exhausted, 0u);
}

TEST(ReportDedupTest, DuplicatedReportTransfersAreAbsorbed) {
  web::CampusScenario scenario = web::BuildCampusScenario();

  size_t reference_rows = 0;
  {
    core::Engine engine(&scenario.web);
    auto outcome = engine.Run(scenario.disql);
    ASSERT_TRUE(outcome.ok());
    reference_rows = outcome->TotalRows();
  }

  core::Engine engine(&scenario.web, FailureHandlingOptions());
  // Every report arrives twice; receipt dedup must absorb the replays
  // before they reach the CHT (a replayed delete would unbalance it).
  net::FaultPlan plan;
  net::FaultPlan::Rule rule;
  rule.type = net::MessageType::kReport;
  rule.duplicate_prob = 1.0;
  plan.AddRule(rule);
  engine.network().SetFaultPlan(&plan);

  auto outcome = engine.Run(scenario.disql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->completed);
  EXPECT_FALSE(outcome->partial);
  EXPECT_GT(outcome->client_stats.redeliveries_suppressed, 0u);
  EXPECT_EQ(outcome->TotalRows(), reference_rows);
  // Unique rows only in the final result sets.
  for (const relational::ResultSet& rs : outcome->results) {
    std::set<std::string> seen;
    for (const relational::Tuple& row : rs.rows) {
      std::string key;
      for (const relational::Value& v : row) key += v.ToString() + "|";
      EXPECT_TRUE(seen.insert(key).second) << "duplicate row " << key;
    }
  }
}


// -- Settling a run ---------------------------------------------------------------

std::string RowDump(const std::vector<relational::ResultSet>& results) {
  std::string out;
  for (const relational::ResultSet& rs : results) {
    out += Join(rs.column_labels, ",") + ":";
    for (const relational::Tuple& row : rs.rows) {
      for (const relational::Value& v : row) out += v.ToString() + "|";
      out += ";";
    }
    out += "\n";
  }
  return out;
}

// A run that settles with its socket closed frees the CHT tables and the row
// filter; every counter the outcome reports equals its value at the moment
// of settling, read from the same run with its socket (and so its tables)
// kept open, stepped event by event up to completion.
TEST(SettleTest, SettledRunFreesTablesAndKeepsCounters) {
  const web::Scenario fig5 = web::BuildFig5Scenario();
  auto compiled = disql::CompileDisql(fig5.disql);
  ASSERT_TRUE(compiled.ok());
  for (const bool robust : {false, true}) {
    core::EngineOptions options;
    options.client.robust_completion = robust;
    options.server.dedup_enabled = false;  // duplicate rows reach the filter
    core::Engine settled(&fig5.web, options);
    auto a = settled.Run(fig5.disql);
    ASSERT_TRUE(a.ok());
    const UserSite::QueryRun* freed = settled.user_site().Find(a->id);

    options.client.close_socket_on_completion = false;
    core::Engine kept(&fig5.web, options);
    auto id = kept.Submit(compiled.value());
    ASSERT_TRUE(id.ok());
    const UserSite::QueryRun* open = kept.user_site().Find(id.value());
    while (!open->completed && kept.network().RunOne()) {
    }
    ASSERT_TRUE(open->completed);

    EXPECT_TRUE(freed->socket_closed);
    EXPECT_TRUE(freed->cht.entries().empty()) << robust;
    EXPECT_TRUE(freed->seen_rows.empty()) << robust;
    EXPECT_FALSE(open->cht.entries().empty()) << robust;
    EXPECT_FALSE(open->seen_rows.empty()) << robust;
    EXPECT_EQ(a->cht_total_entries, open->cht.entries().size()) << robust;
    EXPECT_EQ(a->cht_total_entries, open->cht.total_count()) << robust;
    EXPECT_EQ(a->cht_max_active, open->cht.max_active()) << robust;
    EXPECT_EQ(a->cht_suppressed, open->cht.suppressed_count()) << robust;
    EXPECT_EQ(a->cht_unmatched_deletes, open->cht.unmatched_deletes())
        << robust;
    EXPECT_EQ(a->completion_time, open->completion_time) << robust;
    EXPECT_EQ(a->client_stats.ToText(), open->stats.ToText()) << robust;
    EXPECT_EQ(RowDump(a->results), RowDump(open->results)) << robust;
  }
}

// -- Settle edge paths: behaviour pinned at the pre-release client ------------


// The T6 harness path: with close_socket_on_completion=false a completed
// run keeps its socket, so a late report still merges its rows (and the row
// filter still drops repeats) and still touches the CHT.
TEST_F(UserSiteTest, OpenSocketAfterCompletionMergesLateReports) {
  core::EngineOptions options;
  options.client.close_socket_on_completion = false;
  core::Engine engine = MakeEngine(options);
  auto compiled = disql::CompileDisql(scenario_.disql);
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  engine.network().RunUntilIdle();
  const UserSite::QueryRun* run = engine.user_site().Find(id.value());
  ASSERT_TRUE(run->completed);
  EXPECT_FALSE(run->socket_closed);
  const size_t entries_at_completion = run->cht.entries().size();
  EXPECT_EQ(entries_at_completion, run->cht.total_count());
  EXPECT_GT(entries_at_completion, 0u);

  query::QueryReport late;
  late.id = id.value();
  query::NodeReport nr;
  nr.node_url = "http://late.example/";
  nr.received_state = S(1, "L");
  relational::ResultSet rs;
  rs.column_labels = {"d0.url"};
  rs.rows.push_back({relational::Value(std::string("http://late.example/"))});
  rs.rows.push_back(
      {relational::Value(std::string("http://www.csa.iisc.ernet.in/Labs"))});
  nr.result_sets.push_back(std::move(rs));
  late.node_reports.push_back(std::move(nr));
  serialize::Encoder enc;
  late.EncodeTo(&enc);
  ASSERT_TRUE(engine.network()
                  .Send(net::Endpoint{"late.example", 1},
                        net::Endpoint{core::Engine::kClientHost,
                                      id->reply_port},
                        net::MessageType::kReport, enc.Release())
                  .ok());
  engine.network().RunUntilIdle();
  EXPECT_EQ(RowDump(run->results),
            "d0.url:http://www.csa.iisc.ernet.in/Labs|;http://late.example/|;\n"
            "d1.url,r.text:"
            "http://www2.csa.iisc.ernet.in/~gang/lab|"
            "Convener : Prof. D. K. Subramanian|;"
            "http://www-compiler.csa.iisc.ernet.in/people|"
            "Convener Prof. Y.N. Srikant|;"
            "http://dsl.serc.iisc.ernet.in/people|CONVENER Jayant Haritsa|;\n");
  EXPECT_EQ(run->stats.ToText(),
            "reports_received: 11\nnode_reports: 15\n"
            "result_rows_received: 6\nduplicate_rows_filtered: 1\n");
  EXPECT_EQ(run->cht.unmatched_deletes(), 1u);
  EXPECT_EQ(run->cht.entries().size(), entries_at_completion);
  EXPECT_EQ(run->seen_rows.size(), 5u);  // 4 rows + the late one
}

// Cancel closes the socket but settles nothing: AbandonStalled afterwards
// still drains the outstanding CHT entries into the fallback list.
TEST_F(UserSiteTest, CancelThenAbandonReturnsOutstandingEntries) {
  core::EngineOptions options;
  options.network.inter_host_latency = 100 * kMillisecond;
  core::Engine engine = MakeEngine(options);
  auto compiled = disql::CompileDisql(scenario_.disql);
  ASSERT_TRUE(compiled.ok());
  auto id = engine.Submit(compiled.value());
  ASSERT_TRUE(id.ok());
  engine.network().RunOne();
  engine.network().RunOne();
  engine.user_site().Cancel(id.value());
  engine.network().RunUntilIdle();
  const UserSite::QueryRun* run = engine.user_site().Find(id.value());
  ASSERT_TRUE(run->cancelled);
  ASSERT_FALSE(run->completed);
  EXPECT_FALSE(run->cht.entries().empty());  // Cancel releases nothing
  const size_t abandoned = engine.user_site().AbandonStalled(id.value());
  EXPECT_EQ(abandoned, 1u);
  EXPECT_TRUE(run->completed);
  std::string fallback;
  for (const query::ChtEntry& entry : run->fallback_nodes) {
    fallback += entry.node_url + " " + std::to_string(entry.state.num_q) +
                " " + entry.state.rem_pre.ToString() + "\n";
  }
  EXPECT_EQ(fallback, "http://www.csa.iisc.ernet.in/ 2 L\n");
  EXPECT_EQ(run->completion_time, 201116);
  EXPECT_TRUE(run->cht.entries().empty());
  EXPECT_EQ(engine.user_site().AbandonStalled(id.value()), 0u);
}

// Row-limit truncation settles the run mid-traversal; the answer, the
// completion time and the counters are those of the pre-release client.
TEST_F(UserSiteTest, RowLimitTruncationSettlesRun) {
  core::EngineOptions options;
  options.client.row_limit = 2;
  core::Engine engine = MakeEngine(options);
  auto outcome = engine.Run(scenario_.disql);
  ASSERT_TRUE(outcome.ok());
  const UserSite::QueryRun* run = engine.user_site().Find(outcome->id);
  EXPECT_TRUE(run->completed);
  EXPECT_TRUE(run->truncated);
  EXPECT_TRUE(run->socket_closed);
  EXPECT_EQ(RowDump(run->results),
            "d0.url:http://www.csa.iisc.ernet.in/Labs|;\n"
            "d1.url,r.text:http://www2.csa.iisc.ernet.in/~gang/lab|"
            "Convener : Prof. D. K. Subramanian|;\n");
  EXPECT_EQ(run->completion_time, 61045);
  EXPECT_EQ(run->stats.ToText(),
            "reports_received: 6\nnode_reports: 9\nresult_rows_received: 2\n");
  EXPECT_EQ(outcome->cht_total_entries, 14u);
  EXPECT_EQ(outcome->cht_max_active, 7u);
  EXPECT_TRUE(run->cht.entries().empty());
  EXPECT_TRUE(run->seen_rows.empty());
}

}  // namespace
}  // namespace webdis::client
