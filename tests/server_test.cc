#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "core/engine.h"
#include "disql/compiler.h"
#include "net/reliable.h"
#include "net/sim.h"
#include "query/report.h"
#include "serialize/encoder.h"
#include "server/db_constructor.h"
#include "server/http_server.h"
#include "server/log_table.h"
#include "server/persist.h"
#include "server/query_server.h"
#include "web/pagegen.h"

namespace webdis::server {
namespace {

using query::CloneState;

pre::Pre P(const std::string& s) { return pre::Pre::Parse(s).value(); }

// -- DatabaseConstructor ----------------------------------------------------------

TEST(DbConstructorTest, BuildsAllThreeVirtualRelations) {
  const html::Url url = html::ParseUrl("http://h/p").value();
  const html::ParsedDocument doc = html::ParseDocument(
      url,
      "<title>T</title><p>body text</p>"
      "<a href=\"/q\">local</a><a href=\"http://g/\">global</a>"
      "block<hr>");
  const relational::Database db = BuildNodeDatabase(doc);

  const relational::Table* document = db.Find("document");
  ASSERT_NE(document, nullptr);
  ASSERT_EQ(document->num_rows(), 1u);
  EXPECT_EQ(document->row(0)[0].AsString(), "http://h/p");
  EXPECT_EQ(document->row(0)[1].AsString(), "T");
  EXPECT_EQ(document->row(0)[3].AsInt(),
            static_cast<int64_t>(doc.length));

  const relational::Table* anchor = db.Find("anchor");
  ASSERT_NE(anchor, nullptr);
  ASSERT_EQ(anchor->num_rows(), 2u);
  EXPECT_EQ(anchor->row(0)[3].AsString(), "L");
  EXPECT_EQ(anchor->row(1)[3].AsString(), "G");
  EXPECT_EQ(anchor->row(0)[1].AsString(), "http://h/p");  // base

  const relational::Table* relinfon = db.Find("relinfon");
  ASSERT_NE(relinfon, nullptr);
  ASSERT_GE(relinfon->num_rows(), 1u);
}

// -- LogTable --------------------------------------------------------------------

TEST(LogTableTest, FirstArrivalIsNew) {
  LogTable table;
  const auto d = table.Check("http://a/x", "q1", CloneState{2, P("L*2.G")});
  EXPECT_EQ(d.comparison, pre::LogComparison::kUnrelated);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.stats().new_entries, 1u);
}

TEST(LogTableTest, IdenticalSecondArrivalIsDuplicate) {
  LogTable table;
  table.Check("http://a/x", "q1", CloneState{2, P("L*2.G")});
  const auto d = table.Check("http://a/x", "q1", CloneState{2, P("L*2.G")});
  EXPECT_EQ(d.comparison, pre::LogComparison::kDuplicate);
  EXPECT_EQ(table.stats().duplicates, 1u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(LogTableTest, KeyIncludesNodeQueryAndNumQ) {
  LogTable table;
  table.Check("http://a/x", "q1", CloneState{2, P("L")});
  // Different node: not a duplicate.
  EXPECT_EQ(table.Check("http://a/y", "q1", CloneState{2, P("L")}).comparison,
            pre::LogComparison::kUnrelated);
  // Different query: not a duplicate.
  EXPECT_EQ(table.Check("http://a/x", "q2", CloneState{2, P("L")}).comparison,
            pre::LogComparison::kUnrelated);
  // Different num_q: not a duplicate (Figure 5's visits b vs c).
  EXPECT_EQ(table.Check("http://a/x", "q1", CloneState{1, P("L")}).comparison,
            pre::LogComparison::kUnrelated);
}

TEST(LogTableTest, SubsetDropsSupersetRewrites) {
  LogTable table;
  table.Check("n", "q", CloneState{1, P("L*2.G")});
  EXPECT_EQ(table.Check("n", "q", CloneState{1, P("L*1.G")}).comparison,
            pre::LogComparison::kDuplicate);
  const auto d = table.Check("n", "q", CloneState{1, P("L*4.G")});
  EXPECT_EQ(d.comparison, pre::LogComparison::kSupersetRewrite);
  EXPECT_TRUE(d.rewritten->Equals(P("L.L*3.G")));
  // The entry was replaced by the wider bound: L*3 is now a duplicate.
  EXPECT_EQ(table.Check("n", "q", CloneState{1, P("L*3.G")}).comparison,
            pre::LogComparison::kDuplicate);
}

TEST(LogTableTest, UnrelatedPresCoexistUnderOneKey) {
  LogTable table;
  table.Check("n", "q", CloneState{1, P("L*2.G")});
  EXPECT_EQ(table.Check("n", "q", CloneState{1, P("G*2.L")}).comparison,
            pre::LogComparison::kUnrelated);
  EXPECT_EQ(table.size(), 2u);
  // Each maintains its own duplicate detection.
  EXPECT_EQ(table.Check("n", "q", CloneState{1, P("G*2.L")}).comparison,
            pre::LogComparison::kDuplicate);
}

TEST(LogTableTest, PurgeForgetsEverything) {
  LogTable table;
  table.Check("n", "q", CloneState{1, P("L")});
  table.Purge();
  EXPECT_EQ(table.size(), 0u);
  // Recomputation, not error.
  EXPECT_EQ(table.Check("n", "q", CloneState{1, P("L")}).comparison,
            pre::LogComparison::kUnrelated);
}

TEST(LogTableTest, PurgeQueryIsSelective) {
  LogTable table;
  table.Check("n", "q1", CloneState{1, P("L")});
  table.Check("n", "q2", CloneState{1, P("L")});
  table.PurgeQuery("q1");
  EXPECT_EQ(table.Check("n", "q1", CloneState{1, P("L")}).comparison,
            pre::LogComparison::kUnrelated);
  EXPECT_EQ(table.Check("n", "q2", CloneState{1, P("L")}).comparison,
            pre::LogComparison::kDuplicate);
}

// -- HttpServer --------------------------------------------------------------------

class HttpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(web_.AddDocument("http://h/p", "<title>T</title>").ok());
    ASSERT_TRUE(web_.AddDocument("http://other/x", "elsewhere").ok());
    server_ = std::make_unique<HttpServer>("h", &web_, &net_);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(net_.Listen({"c", 1},
                            [this](const net::Endpoint&, net::MessageType,
                                   const std::vector<uint8_t>& payload) {
                              HttpServer::FetchResponse resp;
                              ASSERT_TRUE(HttpServer::DecodeFetchResponse(
                                              payload, &resp)
                                              .ok());
                              responses_.push_back(resp);
                            })
                    .ok());
  }

  void Fetch(const std::string& url) {
    ASSERT_TRUE(net_.Send({"c", 1}, {"h", kHttpPort},
                          net::MessageType::kFetchRequest,
                          HttpServer::EncodeFetchRequest(url))
                    .ok());
    net_.RunUntilIdle();
  }

  web::WebGraph web_;
  net::SimNetwork net_;
  std::unique_ptr<HttpServer> server_;
  std::vector<HttpServer::FetchResponse> responses_;
};

TEST_F(HttpServerTest, ServesLocalDocument) {
  Fetch("http://h/p");
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_TRUE(responses_[0].found);
  EXPECT_EQ(responses_[0].html, "<title>T</title>");
  EXPECT_EQ(server_->fetches_served(), 1u);
}

TEST_F(HttpServerTest, NotFoundForMissing) {
  Fetch("http://h/absent");
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_FALSE(responses_[0].found);
  EXPECT_EQ(server_->not_found_count(), 1u);
}

TEST_F(HttpServerTest, RefusesToProxyOtherHosts) {
  Fetch("http://other/x");  // exists in the graph but hosted elsewhere
  ASSERT_EQ(responses_.size(), 1u);
  EXPECT_FALSE(responses_[0].found);
}

TEST_F(HttpServerTest, StopClosesPort) {
  server_->Stop();
  EXPECT_EQ(net_.Send({"c", 1}, {"h", kHttpPort},
                      net::MessageType::kFetchRequest,
                      HttpServer::EncodeFetchRequest("http://h/p"))
                .code(),
            StatusCode::kConnectionRefused);
}

// -- QueryServer (driven directly over a SimNetwork) ------------------------------

class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two pages on host "h": /a links locally to /b; /b has the answer.
    web::PageSpec a;
    a.title = "start alpha";
    a.links = {{"/b", "to b"}};
    ASSERT_TRUE(web_.AddDocument("http://h/a", web::RenderHtml(a)).ok());
    web::PageSpec b;
    b.title = "target alpha";
    b.paragraphs = {"the beta answer"};
    ASSERT_TRUE(web_.AddDocument("http://h/b", web::RenderHtml(b)).ok());

    server_ = std::make_unique<QueryServer>("h", &web_, &net_);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(net_.Listen({"user.site", 9000},
                            [this](const net::Endpoint&, net::MessageType type,
                                   const std::vector<uint8_t>& payload) {
                              ASSERT_EQ(type, net::MessageType::kReport);
                              serialize::Decoder dec(payload);
                              query::QueryReport qr;
                              ASSERT_TRUE(query::QueryReport::DecodeFrom(
                                              &dec, &qr)
                                              .ok());
                              reports_.push_back(std::move(qr));
                            })
                    .ok());
  }

  query::WebQuery MakeClone(const std::string& pre_text,
                            const std::string& where_keyword,
                            std::vector<std::string> dests) {
    auto compiled = disql::CompileDisql(
        "select d.url from document d such that \"http://h/a\" " + pre_text +
        " d where d.text contains \"" + where_keyword + "\"");
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    query::WebQuery clone = compiled->web_query.Clone();
    clone.id.user = "t";
    clone.id.reply_host = "user.site";
    clone.id.reply_port = 9000;
    clone.id.query_number = 1;
    clone.dest_urls = std::move(dests);
    return clone;
  }

  void Deliver(const query::WebQuery& clone) {
    serialize::Encoder enc;
    clone.EncodeTo(&enc);
    ASSERT_TRUE(net_.Send({"user.site", 9000}, {"h", kQueryServerPort},
                          net::MessageType::kWebQuery, enc.Release())
                    .ok());
    net_.RunUntilIdle();
  }

  web::WebGraph web_;
  net::SimNetwork net_;
  std::unique_ptr<QueryServer> server_;
  std::vector<query::QueryReport> reports_;
};

TEST_F(QueryServerTest, EvaluatesAndReports) {
  Deliver(MakeClone("L*1", "beta", {"http://h/a"}));
  // Clone chain: /a evaluated (no beta) + forwarded to /b; /b evaluated.
  ASSERT_EQ(reports_.size(), 2u);
  EXPECT_EQ(reports_[0].node_reports[0].node_url, "http://h/a");
  ASSERT_EQ(reports_[0].node_reports[0].next_entries.size(), 1u);
  EXPECT_EQ(reports_[0].node_reports[0].next_entries[0].node_url,
            "http://h/b");
  ASSERT_EQ(reports_[1].node_reports.size(), 1u);
  ASSERT_EQ(reports_[1].node_reports[0].result_sets.size(), 1u);
  EXPECT_EQ(
      reports_[1].node_reports[0].result_sets[0].rows[0][0].AsString(),
      "http://h/b");
  EXPECT_EQ(server_->stats().node_queries_evaluated, 2u);
  EXPECT_EQ(server_->stats().answers_found, 1u);
  EXPECT_EQ(server_->stats().dead_ends, 1u);
}

TEST_F(QueryServerTest, DuplicateCloneDroppedAndReported) {
  const query::WebQuery clone = MakeClone("L*1", "beta", {"http://h/a"});
  Deliver(clone);
  reports_.clear();
  Deliver(clone.Clone());
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_TRUE(reports_[0].node_reports[0].duplicate_drop);
  EXPECT_EQ(server_->stats().duplicates_dropped, 1u);
}

TEST_F(QueryServerTest, DedupDisabledRecomputes) {
  QueryServerOptions options;
  options.dedup_enabled = false;
  auto server2 = std::make_unique<QueryServer>("h2", &web_, &net_, options);
  // Reuse the same web but a different host name: documents are on "h", so
  // use the original server with a fresh option set instead.
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());
  const query::WebQuery clone = MakeClone("N", "alpha", {"http://h/a"});
  Deliver(clone);
  Deliver(clone.Clone());
  EXPECT_EQ(server_->stats().node_queries_evaluated, 2u);
  EXPECT_EQ(server_->stats().duplicates_dropped, 0u);
}

TEST_F(QueryServerTest, MissingDocumentReportedNotCrashed) {
  Deliver(MakeClone("N", "alpha", {"http://h/ghost"}));
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_TRUE(reports_[0].node_reports[0].result_sets.empty());
  EXPECT_EQ(server_->stats().missing_documents, 1u);
}

TEST_F(QueryServerTest, PassiveTerminationOnRefusedReport) {
  net_.CloseListener({"user.site", 9000});
  serialize::Encoder enc;
  MakeClone("L*1", "beta", {"http://h/a"}).EncodeTo(&enc);
  ASSERT_TRUE(net_.Send({"x", 1}, {"h", kQueryServerPort},
                        net::MessageType::kWebQuery, enc.Release())
                  .ok());
  net_.RunUntilIdle();
  EXPECT_EQ(server_->stats().passive_terminations, 1u);
  // No forwarding happened after the refusal.
  EXPECT_EQ(server_->stats().clones_forwarded, 0u);
}

TEST_F(QueryServerTest, ActiveTerminationDropsFutureClones) {
  serialize::Encoder id_enc;
  query::WebQuery clone = MakeClone("L*1", "beta", {"http://h/a"});
  clone.id.EncodeTo(&id_enc);
  ASSERT_TRUE(net_.Send({"user.site", 9000}, {"h", kQueryServerPort},
                        net::MessageType::kTerminate, id_enc.Release())
                  .ok());
  net_.RunUntilIdle();
  EXPECT_EQ(server_->stats().active_terminations, 1u);
  Deliver(clone);
  EXPECT_EQ(server_->stats().node_queries_evaluated, 0u);
  EXPECT_TRUE(reports_.empty());
}

TEST_F(QueryServerTest, MalformedCloneCountedNotCrashed) {
  ASSERT_TRUE(net_.Send({"x", 1}, {"h", kQueryServerPort},
                        net::MessageType::kWebQuery,
                        std::vector<uint8_t>{1, 2, 3})
                  .ok());
  net_.RunUntilIdle();
  EXPECT_EQ(server_->stats().decode_errors, 1u);
}

TEST_F(QueryServerTest, DatabaseCachingCountsHits) {
  QueryServerOptions options;
  options.cache_databases = true;
  options.dedup_enabled = false;  // force recomputation
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());
  const query::WebQuery clone = MakeClone("N", "alpha", {"http://h/a"});
  Deliver(clone);
  Deliver(clone.Clone());
  EXPECT_EQ(server_->stats().db_constructions, 1u);
  EXPECT_EQ(server_->stats().db_cache_hits, 1u);
}

TEST_F(QueryServerTest, DbCacheEvictsLeastRecentlyUsed) {
  // A third, deliberately tiny page so A+C fits where A+B+C does not.
  web::PageSpec c;
  c.title = "c alpha";
  ASSERT_TRUE(web_.AddDocument("http://h/c", web::RenderHtml(c)).ok());

  QueryServerOptions options;
  options.cache_databases = true;
  options.dedup_enabled = false;

  // Measurement pass with an unbounded cache: learn each node DB's cost.
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));
  const uint64_t bytes_a = server_->stats().db_cache_bytes;
  Deliver(MakeClone("N", "alpha", {"http://h/b"}));
  const uint64_t bytes_ab = server_->stats().db_cache_bytes;
  Deliver(MakeClone("N", "alpha", {"http://h/c"}));
  const uint64_t bytes_abc = server_->stats().db_cache_bytes;
  ASSERT_GT(bytes_a, 0u);
  ASSERT_GT(bytes_ab, bytes_a);
  ASSERT_GT(bytes_abc, bytes_ab);
  // C strictly smaller than B, so evicting B alone brings A+B+C under A+B.
  ASSERT_LT(bytes_abc - bytes_ab, bytes_ab - bytes_a);
  EXPECT_EQ(server_->stats().db_cache_evictions, 0u);  // unbounded: never

  // Bounded pass: budget holds exactly {A, B}.
  options.db_cache_max_bytes = bytes_ab;
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));
  Deliver(MakeClone("N", "alpha", {"http://h/b"}));
  EXPECT_EQ(server_->stats().db_cache_evictions, 0u);
  // Re-touching A moves it to the front: B is now least recently used.
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));
  EXPECT_EQ(server_->stats().db_cache_hits, 1u);
  // Inserting C exceeds the budget and must evict B — not A (recently
  // touched) and not C (just inserted).
  Deliver(MakeClone("N", "alpha", {"http://h/c"}));
  EXPECT_EQ(server_->stats().db_cache_evictions, 1u);
  EXPECT_EQ(server_->stats().db_cache_bytes, bytes_a + (bytes_abc - bytes_ab));
  EXPECT_EQ(server_->stats().db_constructions, 3u);
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));  // hit: A survived
  EXPECT_EQ(server_->stats().db_cache_hits, 2u);
  EXPECT_EQ(server_->stats().db_constructions, 3u);
  Deliver(MakeClone("N", "alpha", {"http://h/b"}));  // miss: B was the victim
  EXPECT_EQ(server_->stats().db_constructions, 4u);
}

// -- Cross-query result sharing (PROTOCOL.md §9.1) ---------------------------

TEST_F(QueryServerTest, ResultCacheVersionBumpNeverServesStaleRows) {
  QueryServerOptions options;
  options.share_results = true;
  options.dedup_enabled = false;  // force re-evaluation so the cache is hit
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());

  const query::WebQuery clone = MakeClone("N", "alpha", {"http://h/a"});
  Deliver(clone);
  EXPECT_EQ(server_->stats().result_cache_misses, 1u);
  EXPECT_EQ(server_->stats().result_cache_hits, 0u);
  ASSERT_EQ(reports_.size(), 1u);

  // Same (document, version, node-query form) again: served from the cache,
  // and the hit-path report is byte-identical to the miss-path one — the
  // cache is a wall-clock optimization, never an observable behavior change.
  Deliver(clone.Clone());
  EXPECT_EQ(server_->stats().result_cache_hits, 1u);
  EXPECT_EQ(server_->stats().result_cache_misses, 1u);
  ASSERT_EQ(reports_.size(), 2u);
  serialize::Encoder miss_enc;
  serialize::Encoder hit_enc;
  reports_[0].EncodeTo(&miss_enc);
  reports_[1].EncodeTo(&hit_enc);
  EXPECT_EQ(miss_enc.data(), hit_enc.data());
  ASSERT_FALSE(reports_[1].node_reports[0].result_sets.empty());
  EXPECT_FALSE(reports_[1].node_reports[0].result_sets[0].rows.empty());

  // Editing /a bumps its version, so the cached entry's key no longer
  // matches. The keyword is gone from the edited page: a stale hit would be
  // visible as a phantom row.
  web::PageSpec edited;
  edited.title = "start gamma";
  edited.links = {{"/b", "to b"}};
  ASSERT_TRUE(
      web_.UpdateDocument("http://h/a", web::RenderHtml(edited)).ok());
  Deliver(clone.Clone());
  EXPECT_EQ(server_->stats().result_cache_misses, 2u);
  EXPECT_EQ(server_->stats().result_cache_hits, 1u);
  ASSERT_EQ(reports_.size(), 3u);
  for (const auto& rs : reports_[2].node_reports[0].result_sets) {
    EXPECT_TRUE(rs.rows.empty());
  }
}

TEST_F(QueryServerTest, ResultCacheEvictsLeastRecentlyUsed) {
  // A third page so three distinct (document, node query) entries exist.
  web::PageSpec c;
  c.title = "c alpha";
  ASSERT_TRUE(web_.AddDocument("http://h/c", web::RenderHtml(c)).ok());

  QueryServerOptions options;
  options.share_results = true;
  options.dedup_enabled = false;

  // Measurement pass with an unbounded cache: learn each entry's cost.
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));
  const uint64_t bytes_a = server_->stats().result_cache_bytes;
  Deliver(MakeClone("N", "alpha", {"http://h/b"}));
  const uint64_t bytes_ab = server_->stats().result_cache_bytes;
  Deliver(MakeClone("N", "alpha", {"http://h/c"}));
  const uint64_t bytes_abc = server_->stats().result_cache_bytes;
  ASSERT_GT(bytes_a, 0u);
  ASSERT_GT(bytes_ab, bytes_a);
  ASSERT_GT(bytes_abc, bytes_ab);
  // Evicting B alone must bring A+B+C back under the A+B budget.
  ASSERT_LE(bytes_abc - bytes_ab, bytes_ab - bytes_a);
  EXPECT_EQ(server_->stats().result_cache_evictions, 0u);  // unbounded: never

  // Bounded pass: budget holds exactly {A, B}.
  options.result_cache_max_bytes = bytes_ab;
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));
  Deliver(MakeClone("N", "alpha", {"http://h/b"}));
  EXPECT_EQ(server_->stats().result_cache_evictions, 0u);
  // Re-touching A moves it to the front: B is now least recently used.
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));
  EXPECT_EQ(server_->stats().result_cache_hits, 1u);
  // Inserting C exceeds the budget and must evict B — not A (recently
  // touched) and not C (just inserted).
  Deliver(MakeClone("N", "alpha", {"http://h/c"}));
  EXPECT_EQ(server_->stats().result_cache_evictions, 1u);
  EXPECT_EQ(server_->stats().result_cache_bytes,
            bytes_a + (bytes_abc - bytes_ab));
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));  // hit: A survived
  EXPECT_EQ(server_->stats().result_cache_hits, 2u);
  Deliver(MakeClone("N", "alpha", {"http://h/b"}));  // miss: B was the victim
  EXPECT_EQ(server_->stats().result_cache_misses, 4u);
  EXPECT_EQ(server_->stats().result_cache_hits, 2u);
}

TEST_F(QueryServerTest, ResultCacheColdAfterRestartWhileBatchMembersSurvive) {
  server_->Stop();
  MemoryPersistBackend backend{PersistFaultRules{}};
  QueryServerOptions options;
  options.share_results = true;
  options.dedup_enabled = false;
  options.persist.enabled = true;
  options.persist.snapshot_every_clones = 0;
  options.persist.wal_compact_bytes = 0;
  options.admission.max_pending = 4;
  // Queued clones drain one per second — slow enough that a crash at 500ms
  // catches the batch members still in the admission queue, WAL-admitted
  // but not yet evaluated.
  options.admission.service_time = 1 * kSecond;
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  server_->SetPersistence(&backend);
  ASSERT_TRUE(server_->Start().ok());

  // Warm the cache: one miss, then one hit proves the entry is live.
  const query::WebQuery warm = MakeClone("N", "alpha", {"http://h/a"});
  Deliver(warm);
  Deliver(warm.Clone());
  EXPECT_EQ(server_->stats().result_cache_misses, 1u);
  EXPECT_EQ(server_->stats().result_cache_hits, 1u);
  ASSERT_EQ(reports_.size(), 2u);

  // A two-member batch envelope: admitted as one kBatchAdmitted WAL record
  // on arrival, then crashed out of the admission queue before the drain
  // timer fires. Note the members re-use the warm clone's node query — if
  // the cache survived the crash they would hit after recovery.
  query::CloneBatch batch;
  batch.clones.push_back(MakeClone("N", "alpha", {"http://h/a"}));
  batch.clones.back().id.query_number = 2;
  batch.clones.push_back(MakeClone("N", "alpha", {"http://h/b"}));
  batch.clones.back().id.query_number = 3;
  serialize::Encoder enc;
  batch.EncodeTo(&enc);
  net_.ScheduleAfter(500 * kMillisecond, [this] { server_->Crash(); });
  ASSERT_TRUE(net_.Send({"user.site", 9000}, {"h", kQueryServerPort},
                        net::MessageType::kCloneBatch, enc.Release())
                  .ok());
  net_.RunUntilIdle();
  EXPECT_EQ(server_->stats().clone_batches_received, 1u);
  EXPECT_EQ(server_->stats().clone_batch_members_received, 2u);
  ASSERT_EQ(reports_.size(), 2u);  // nothing evaluated before the crash
  EXPECT_EQ(server_->stats().result_cache_bytes, 0u);  // cache died with it

  // Restart: both WAL-admitted members are recovered and reprocessed, but
  // the result cache is rebuilt cold — the snapshot/WAL never carry it
  // (DurableServerState has no cache fields), so the warm entry is gone and
  // member 2's identical node query MISSES instead of hitting.
  ASSERT_TRUE(server_->Restart().ok());
  EXPECT_EQ(server_->stats().recovered_clones, 2u);
  net_.RunUntilIdle();
  ASSERT_EQ(reports_.size(), 4u);
  std::multiset<uint32_t> recovered_queries = {reports_[2].id.query_number,
                                               reports_[3].id.query_number};
  EXPECT_EQ(recovered_queries, (std::multiset<uint32_t>{2, 3}));
  EXPECT_EQ(server_->stats().result_cache_misses, 3u);  // both members cold
  EXPECT_EQ(server_->stats().result_cache_hits, 1u);    // no post-crash hit
  EXPECT_GT(server_->stats().result_cache_bytes, 0u);   // rebuilt, not lost
}

TEST_F(QueryServerTest, LogPurgePeriodCausesRecomputationOnly) {
  QueryServerOptions options;
  options.log_purge_every = 1;  // purge after every clone
  server_->Stop();
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  ASSERT_TRUE(server_->Start().ok());
  const query::WebQuery clone = MakeClone("N", "alpha", {"http://h/a"});
  Deliver(clone);
  Deliver(clone.Clone());
  // Both processed (no dedup across the purge), results identical.
  EXPECT_EQ(server_->stats().node_queries_evaluated, 2u);
  ASSERT_EQ(reports_.size(), 2u);
  ASSERT_FALSE(reports_[0].node_reports[0].result_sets.empty());
  ASSERT_FALSE(reports_[1].node_reports[0].result_sets.empty());
}

// -- Durability: recovery stats (PROTOCOL.md §8) -----------------------------

TEST_F(QueryServerTest, RecoveryStatsDistinguishThreeRestartPaths) {
  server_->Stop();
  MemoryPersistBackend backend{PersistFaultRules{}};
  QueryServerOptions options;
  options.persist.enabled = true;
  options.persist.snapshot_every_clones = 0;  // no cadence snapshots yet
  options.persist.wal_compact_bytes = 0;      // no size-triggered snapshots
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, options);
  server_->SetPersistence(&backend);
  ASSERT_TRUE(server_->Start().ok());

  // Path 1: cold start — storage is empty, the restart recovers nothing.
  server_->Crash();
  ASSERT_TRUE(server_->Restart().ok());
  EXPECT_EQ(server_->stats().cold_starts, 1u);
  EXPECT_EQ(server_->stats().recovered_from_snapshot, 0u);
  EXPECT_EQ(server_->stats().replayed_wal_records, 0u);

  // Path 2: WAL replay — one processed clone leaves an admitted/completed
  // record pair in the log, and no snapshot exists. Replaying a log is NOT
  // a cold start: the cold_starts counter must not move.
  Deliver(MakeClone("N", "alpha", {"http://h/a"}));
  EXPECT_EQ(server_->stats().wal_records_appended, 2u);
  server_->Crash();
  ASSERT_TRUE(server_->Restart().ok());
  EXPECT_EQ(server_->stats().cold_starts, 1u);  // unchanged
  EXPECT_EQ(server_->stats().recovered_from_snapshot, 0u);
  EXPECT_EQ(server_->stats().replayed_wal_records, 2u);
  EXPECT_EQ(server_->stats().recovered_clones, 0u);  // it had completed

  // Path 3: snapshot recovery — a cadence-1 server over the same storage
  // boots by replaying the old log (counted), snapshots after its first
  // clone (truncating the log), and its next restart loads the snapshot
  // with nothing left to replay.
  server_->Stop();
  QueryServerOptions snap_options;
  snap_options.persist.enabled = true;
  snap_options.persist.snapshot_every_clones = 1;
  server_ = std::make_unique<QueryServer>("h", &web_, &net_, snap_options);
  server_->SetPersistence(&backend);
  ASSERT_TRUE(server_->Restart().ok());
  EXPECT_EQ(server_->stats().replayed_wal_records, 2u);
  Deliver(MakeClone("N", "beta", {"http://h/b"}));
  EXPECT_EQ(server_->stats().snapshots_written, 1u);
  EXPECT_EQ(backend.WalBytes(), 0u);  // compaction truncated the log
  server_->Crash();
  ASSERT_TRUE(server_->Restart().ok());
  EXPECT_EQ(server_->stats().recovered_from_snapshot, 1u);
  EXPECT_EQ(server_->stats().replayed_wal_records, 2u);  // unchanged
  EXPECT_EQ(server_->stats().cold_starts, 0u);
}

TEST(RecoveryStatsFormatTest, FormatRunStatsEmitsRecoveryCounters) {
  core::RunOutcome outcome;
  outcome.server_stats.recovered_from_snapshot = 1;
  outcome.server_stats.replayed_wal_records = 2;
  outcome.server_stats.cold_starts = 3;
  outcome.server_stats.snapshots_written = 4;
  const std::string text = core::FormatRunStats(outcome);
  EXPECT_NE(text.find("recovered_from_snapshot: 1"), std::string::npos);
  EXPECT_NE(text.find("replayed_wal_records: 2"), std::string::npos);
  EXPECT_NE(text.find("cold_starts: 3"), std::string::npos);
  EXPECT_NE(text.find("snapshots_written: 4"), std::string::npos);
}

// Every counter in each struct's list takes part in its merge, difference
// and text: distinct values per field make a skipped or cross-wired field
// show up as a wrong number.
TEST(RecoveryStatsFormatTest, EveryCounterMergesAndPrints) {
  QueryServerStats a;
  QueryServerStats b;
  uint64_t i = 0;
  for (const CounterField<QueryServerStats>& f : kQueryServerCounters) {
    ++i;
    a.*f.member = i;
    b.*f.member = 1000 * i;
  }
  QueryServerStats total = a;
  MergeCounters(kQueryServerCounters, b, &total);
  for (const CounterField<QueryServerStats>& f : kQueryServerCounters) {
    const uint64_t expected = f.merge == CounterMerge::kMax
                                  ? std::max(a.*f.member, b.*f.member)
                                  : a.*f.member + b.*f.member;
    EXPECT_EQ(total.*f.member, expected) << f.name;
  }
  EXPECT_EQ(total.queue_peak, b.queue_peak);  // a high-water mark, not a sum
  EXPECT_EQ(total.clones_received, a.clones_received + b.clones_received);

  core::RunOutcome outcome;
  outcome.server_stats = total;
  const std::string text = core::FormatRunStats(outcome);
  for (const CounterField<QueryServerStats>& f : kQueryServerCounters) {
    EXPECT_NE(text.find(StringPrintf(
                  "  %s: %llu\n", f.name,
                  static_cast<unsigned long long>(total.*f.member))),
              std::string::npos)
        << f.name;
  }
  // The counters the hand-written text used to leave out.
  const size_t servers = text.find("servers:\n");
  ASSERT_NE(servers, std::string::npos);
  for (const std::string name :
       {"nodes_processed", "node_queries_evaluated", "answers_found",
        "db_constructions", "db_cache_hits", "duplicates_dropped",
        "superset_rewrites", "dead_ends", "missing_documents",
        "passive_terminations", "active_terminations", "decode_errors",
        "acks_sent", "acks_received", "ack_send_failures",
        "redeliveries_suppressed"}) {
    EXPECT_NE(text.find("  " + name + ": ", servers), std::string::npos)
        << name;
  }

  client::QueryRunStats run;
  i = 0;
  for (const CounterField<client::QueryRunStats>& f :
       client::kQueryRunCounters) {
    run.*f.member = ++i;
  }
  const std::string run_text = run.ToText();
  for (const CounterField<client::QueryRunStats>& f :
       client::kQueryRunCounters) {
    EXPECT_NE(run_text.find(StringPrintf(
                  "%s: %llu\n", f.name,
                  static_cast<unsigned long long>(run.*f.member))),
              std::string::npos)
        << f.name;
  }

  core::TrafficSummary later;
  core::TrafficSummary earlier;
  i = 0;
  for (const CounterField<core::TrafficSummary>& f : core::kTrafficCounters) {
    ++i;
    later.*f.member = 100 * i + i;
    earlier.*f.member = 100 * i;
  }
  const core::TrafficSummary delta = core::Subtract(later, earlier);
  i = 0;
  for (const CounterField<core::TrafficSummary>& f : core::kTrafficCounters) {
    EXPECT_EQ(delta.*f.member, ++i) << f.name;
  }
}

// -- Clone intake transcripts (PROTOCOL.md §6.5) ----------------------------
//
// One transfer is driven into a lone server over a bare SimNetwork, with
// catch-all listeners for the sender ("peer", which is also where the clone
// forwards to) and the user site. Each case pins the server's ordered sends
// as (virtual time, type, destination host, payload size), the WAL record
// types it appended and every counter that moved. The expected transcripts
// live in server_intake_golden.inc; a mismatch prints the actual row.

enum class IntakeWire { kWebQuery, kBatch1, kBatch2 };
enum class IntakeMode { kInline, kAdmissionEmpty, kAdmissionFull, kRetired };
enum class IntakeInput { kFresh, kReplay, kMalformedEnvelope, kUndecodable };
using IntakeCase =
    std::tuple<IntakeWire, IntakeMode, bool /*retry*/, bool /*wal*/,
               IntakeInput>;

void PrintTo(IntakeWire wire, std::ostream* os) {
  static const char* kNames[] = {"WebQuery", "Batch1", "Batch2"};
  *os << kNames[static_cast<int>(wire)];
}
void PrintTo(IntakeMode mode, std::ostream* os) {
  static const char* kNames[] = {"Inline", "AdmissionEmpty", "AdmissionFull",
                                 "Retired"};
  *os << kNames[static_cast<int>(mode)];
}
void PrintTo(IntakeInput input, std::ostream* os) {
  static const char* kNames[] = {"Fresh", "Replay", "MalformedEnvelope",
                                 "Undecodable"};
  *os << kNames[static_cast<int>(input)];
}

std::string IntakeCaseName(const ::testing::TestParamInfo<IntakeCase>& info) {
  const auto& [wire, mode, retry, wal, input] = info.param;
  return ::testing::PrintToString(wire) + "_" +
         ::testing::PrintToString(mode) +
         (retry ? "_RetryOn" : "_RetryOff") + (wal ? "_WalOn" : "_WalOff") +
         "_" + ::testing::PrintToString(input);
}

// Forwards to the SimNetwork and logs every send of the server it serves.
class RecordingTransport : public net::Transport {
 public:
  explicit RecordingTransport(net::SimNetwork* net) : net_(net) {}
  Status Listen(const net::Endpoint& endpoint,
                net::MessageHandler handler) override {
    return net_->Listen(endpoint, std::move(handler));
  }
  void CloseListener(const net::Endpoint& endpoint) override {
    net_->CloseListener(endpoint);
  }
  Status Send(const net::Endpoint& from, const net::Endpoint& to,
              net::MessageType type, std::vector<uint8_t> payload) override {
    log_ += StringPrintf(
        "%llu %s>%s %zu", static_cast<unsigned long long>(net_->now()),
        std::string(net::MessageTypeToString(type)).c_str(), to.host.c_str(),
        payload.size());
    const Status status = net_->Send(from, to, type, std::move(payload));
    if (!status.ok()) log_ += " refused";
    log_ += "; ";
    return status;
  }
  uint64_t ScheduleAfter(SimDuration delay, std::function<void()> fn) override {
    return net_->ScheduleAfter(delay, std::move(fn));
  }
  bool CancelTimer(uint64_t id) override { return net_->CancelTimer(id); }
  bool SupportsTimers() const override { return true; }

  const std::string& log() const { return log_; }

 private:
  net::SimNetwork* net_;
  std::string log_;
};

class IntakeHarness {
 public:
  IntakeHarness(bool retry, bool wal, size_t max_pending,
                SimDuration batch_window = 0)
      : recorder_(&net_), retry_(retry) {
    web::PageSpec a;
    a.title = "alpha";
    a.links = {{"http://peer/b", "to peer"}};
    EXPECT_TRUE(web_.AddDocument("http://srv/a", web::RenderHtml(a)).ok());
    QueryServerOptions options;
    options.retry.enabled = retry;
    options.admission.max_pending = max_pending;
    options.admission.service_time = 100 * kMillisecond;
    options.batch_window = batch_window;
    options.persist.enabled = wal;
    options.persist.snapshot_every_clones = 0;
    options.persist.wal_compact_bytes = 0;
    server_ = std::make_unique<QueryServer>("srv", &web_, &recorder_, options);
    server_->SetClock([this] { return net_.now(); });
    if (wal) server_->SetPersistence(&backend_);
    EXPECT_TRUE(server_->Start().ok());
    // Catch-alls: with retry on they ack every tracked transfer, so the
    // server's own sends settle instead of retransmitting to exhaustion.
    for (const net::Endpoint& endpoint : {kPeer, kUser}) {
      EXPECT_TRUE(net_.Listen(endpoint,
                              [this, endpoint](const net::Endpoint& from,
                                               net::MessageType type,
                                               const std::vector<uint8_t>&
                                                   payload) {
                                if (!retry_ || !Tracked(type)) return;
                                uint64_t seq = 0;
                                ASSERT_TRUE(net::ReliableReceiver::PeekSeq(
                                    payload, &seq));
                                serialize::Encoder ack;
                                ack.PutU64(seq);
                                ASSERT_TRUE(
                                    net_.Send(endpoint, from,
                                              net::MessageType::kDeliveryAck,
                                              ack.Release())
                                        .ok());
                              })
                      .ok());
    }
  }

  static bool Tracked(net::MessageType type) {
    return type == net::MessageType::kWebQuery ||
           type == net::MessageType::kCloneBatch ||
           type == net::MessageType::kReport ||
           type == net::MessageType::kReportBatch;
  }

  static query::WebQuery Clone(uint32_t query_number) {
    auto compiled = disql::CompileDisql(
        "select d.url from document d such that \"http://srv/a\" G*1 d "
        "where d.title contains \"alpha\"");
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    query::WebQuery clone = compiled->web_query.Clone();
    clone.id.user = "t";
    clone.id.reply_host = kUser.host;
    clone.id.reply_port = kUser.port;
    clone.id.query_number = query_number;
    clone.dest_urls = {"http://srv/a"};
    return clone;
  }

  /// The wire bytes of one transfer: the delivery envelope (with retry on)
  /// around `body`.
  std::vector<uint8_t> Wrap(uint64_t seq,
                            const std::vector<uint8_t>& body) const {
    if (!retry_) return body;
    serialize::Encoder enc;
    enc.PutU64(seq);
    std::vector<uint8_t> wire = enc.Release();
    wire.insert(wire.end(), body.begin(), body.end());
    return wire;
  }

  void Deliver(net::MessageType type, std::vector<uint8_t> wire) {
    ASSERT_TRUE(net_.Send(kPeer, {"srv", kQueryServerPort}, type,
                          std::move(wire))
                    .ok());
    net_.RunUntilIdle();
  }

  /// Queues one kWebQuery with a deadline, which the case's clones lack,
  /// and returns before the 100 ms service slot drains it: a kWebQuery
  /// newcomer evicts it, a batch newcomer is shed.
  void QueueFiller() {
    query::WebQuery filler = Clone(9);
    filler.budget.has_deadline = true;
    filler.budget.deadline = 10 * kSecond;
    serialize::Encoder enc;
    filler.EncodeTo(&enc);
    ASSERT_TRUE(net_.Send(kPeer, {"srv", kQueryServerPort},
                          net::MessageType::kWebQuery,
                          Wrap(100, enc.Release()))
                    .ok());
    ASSERT_TRUE(net_.RunOne());
    ASSERT_EQ(server_->pending_clones(), 1u);
  }

  std::string Transcript() {
    std::string out = "sent: " + recorder_.log() + "| wal:";
    auto wal = backend_.ReadWal();
    if (wal.ok()) {
      for (const WalRecord& record : DecodeWal(*wal).records) {
        out += " ";
        out += WalRecordTypeToString(record.type);
      }
    }
    out += " | moved:";
    const QueryServerStats& stats = server_->stats();
    for (const CounterField<QueryServerStats>& f : kQueryServerCounters) {
      if (stats.*f.member == 0) continue;
      out += StringPrintf(" %s=%llu", f.name,
                          static_cast<unsigned long long>(stats.*f.member));
    }
    return out;
  }

  static inline const net::Endpoint kPeer{"peer", kQueryServerPort};
  static inline const net::Endpoint kUser{"user", 9000};

  web::WebGraph web_;
  net::SimNetwork net_;
  RecordingTransport recorder_;
  MemoryPersistBackend backend_{PersistFaultRules{}};
  std::unique_ptr<QueryServer> server_;
  bool retry_;
};

// One golden row as it appears in server_intake_golden.inc: the transcript
// split into string literals at spaces, each line within 80 columns.
std::string GoldenRow(const std::string& name, const std::string& actual) {
  std::string row = "{\"" + name + "\",\n";
  size_t begin = 0;
  while (begin < actual.size()) {
    size_t end = actual.size();
    if (end - begin > 74) {
      end = actual.rfind(' ', begin + 74);
      end = end == std::string::npos || end <= begin ? begin + 74 : end + 1;
    }
    row += " \"" + actual.substr(begin, end - begin) + "\"";
    row += end == actual.size() ? "},\n" : "\n";
    begin = end;
  }
  return row;
}

const std::map<std::string, std::string>& IntakeGoldens() {
  static const auto* goldens = new std::map<std::string, std::string>{
#include "server_intake_golden.inc"
  };
  return *goldens;
}

class IntakeTranscriptTest : public ::testing::TestWithParam<IntakeCase> {};

TEST_P(IntakeTranscriptTest, MatchesGolden) {
  const auto& [wire, mode, retry, wal, input] = GetParam();
  IntakeHarness h(retry, wal,
                  mode == IntakeMode::kAdmissionEmpty ||
                          mode == IntakeMode::kAdmissionFull
                      ? 1
                      : 0);
  const net::MessageType type = wire == IntakeWire::kWebQuery
                                    ? net::MessageType::kWebQuery
                                    : net::MessageType::kCloneBatch;
  serialize::Encoder body;
  if (wire == IntakeWire::kWebQuery) {
    IntakeHarness::Clone(1).EncodeTo(&body);
  } else {
    query::CloneBatch batch;
    batch.clones.push_back(IntakeHarness::Clone(2));
    if (wire == IntakeWire::kBatch2) {
      batch.clones.push_back(IntakeHarness::Clone(3));
    }
    batch.EncodeTo(&body);
  }
  std::vector<uint8_t> payload;
  switch (input) {
    case IntakeInput::kFresh:
    case IntakeInput::kReplay:
      payload = h.Wrap(7, body.data());
      break;
    case IntakeInput::kMalformedEnvelope:
      payload = {1, 2, 3};
      break;
    case IntakeInput::kUndecodable:
      payload = h.Wrap(7, {0xde, 0xad});
      break;
  }
  if (mode == IntakeMode::kAdmissionFull) h.QueueFiller();
  if (mode == IntakeMode::kRetired) h.server_->Retire();
  h.Deliver(type, payload);
  if (input == IntakeInput::kReplay) h.Deliver(type, payload);

  const std::string actual = h.Transcript();
  const std::string name = IntakeCaseName(
      ::testing::TestParamInfo<IntakeCase>(GetParam(), 0));
  auto it = IntakeGoldens().find(name);
  ASSERT_NE(it, IntakeGoldens().end())
      << "no golden row; actual:\n" << GoldenRow(name, actual);
  EXPECT_EQ(actual, it->second) << "actual row:\n" << GoldenRow(name, actual);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, IntakeTranscriptTest,
    ::testing::Combine(
        ::testing::Values(IntakeWire::kWebQuery, IntakeWire::kBatch1,
                          IntakeWire::kBatch2),
        ::testing::Values(IntakeMode::kInline, IntakeMode::kAdmissionEmpty,
                          IntakeMode::kAdmissionFull, IntakeMode::kRetired),
        ::testing::Bool(), ::testing::Bool(),
        ::testing::Values(IntakeInput::kFresh, IntakeInput::kReplay,
                          IntakeInput::kMalformedEnvelope,
                          IntakeInput::kUndecodable)),
    IntakeCaseName);

// PROTOCOL.md §6.1: every replay of a committed transfer is acked and
// counted, whichever path committed it.
TEST(IntakeFixTest, ReplayOfCommittedTransferCountedInEveryMode) {
  struct Mode {
    const char* name;
    bool wal;
    size_t max_pending;
  };
  for (const Mode& mode : {Mode{"inline", false, 0}, Mode{"admission", false, 1},
                           Mode{"wal", true, 0}}) {
    IntakeHarness h(/*retry=*/true, mode.wal, mode.max_pending);
    serialize::Encoder body;
    IntakeHarness::Clone(1).EncodeTo(&body);
    const std::vector<uint8_t> wire = h.Wrap(7, body.data());
    h.Deliver(net::MessageType::kWebQuery, wire);
    h.Deliver(net::MessageType::kWebQuery, wire);
    EXPECT_EQ(h.server_->stats().redeliveries_suppressed, 1u) << mode.name;
    EXPECT_EQ(h.server_->stats().nodes_processed, 1u) << mode.name;
  }
}

// PROTOCOL.md §10.2: recovery never resurrects work for a retired site. The
// clone is processed at ~20 ms, but its completion record waits for the
// 50 ms flush; the site retires at 30 ms and crashes at 40 ms, so the WAL
// still holds the clone as admitted-but-unfinished when it restarts.
TEST(IntakeFixTest, RecoveryAtRetiredSiteEvaluatesNothing) {
  IntakeHarness h(/*retry=*/false, /*wal=*/true, /*max_pending=*/0,
                  /*batch_window=*/50 * kMillisecond);
  h.net_.ScheduleAfter(30 * kMillisecond, [&h] { h.server_->Retire(); });
  h.net_.ScheduleAfter(40 * kMillisecond, [&h] { h.server_->Crash(); });
  serialize::Encoder body;
  IntakeHarness::Clone(1).EncodeTo(&body);
  h.Deliver(net::MessageType::kWebQuery, body.data());
  ASSERT_EQ(h.server_->stats().nodes_processed, 1u);

  ASSERT_TRUE(h.server_->Restart().ok());
  h.net_.RunUntilIdle();
  const QueryServerStats& stats = h.server_->stats();
  EXPECT_EQ(stats.recovered_clones, 1u);
  EXPECT_EQ(stats.nodes_processed, 1u);  // not evaluated again
  EXPECT_EQ(stats.retired_reports_sent, 1u);
  EXPECT_EQ(stats.clones_forwarded, 0u);
  // The terminal answer closes the recovered record, so a second restart
  // has nothing left to replay.
  const WalReadResult wal = DecodeWal(h.backend_.ReadWal().value());
  ASSERT_FALSE(wal.records.empty());
  EXPECT_EQ(wal.records.back().type, WalRecordType::kCloneCompleted);
}

}  // namespace
}  // namespace webdis::server
