#include "workload.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <functional>
#include <iterator>
#include <map>
#include <optional>

#include "common/rng.h"
#include "common/strings.h"
#include "disql/compiler.h"
#include "html/url.h"
#include "stats.h"
#include "tracer.h"

namespace perfbench {
namespace {

using webdis::Rng;
using webdis::SimTime;
using webdis::kMillisecond;
using webdis::kSecond;

constexpr webdis::SimDuration kCollectPoll = 5 * kMillisecond;
// Links a churn query traverses from its StartNode: L, then G.(L*1).
constexpr int kChurnPathLinks = 3;

// Sub-seeds: every generated input draws from its own stream of the run
// seed, so resizing one input never reshuffles another.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x100000001B3ULL + stream).Next();
}

constexpr char kCrawlSuffix[] =
    "\" (L|G)*2 d where d.title contains \"alpha\"";
constexpr char kSharedSuffix[] =
    "\" (L|G)*3 d where d.title contains \"alpha\"";
constexpr char kSynthPrefix[] =
    "select d.url, d.title from document d such that \"";

// cold_crawl: a lazy 10^5-document web, one query per
// StartNode, StartNodes spread over every site.
Inputs CrawlInputs(uint64_t seed) {
  Inputs in;
  in.synth.seed = SubSeed(seed, 1);
  in.synth.num_sites = 400;
  in.synth.docs_per_site = 250;
  in.synth.filler_paragraphs = 6;
  in.synth.words_per_paragraph = 60;
  in.synth.lazy_pages = true;
  in.query_prefix = kSynthPrefix;
  in.query_suffix = kCrawlSuffix;
  constexpr size_t kQueries = 1000;
  Rng rng(SubSeed(seed, 2));
  std::vector<int> sites(static_cast<size_t>(in.synth.num_sites));
  for (size_t i = 0; i < sites.size(); ++i) sites[i] = static_cast<int>(i);
  rng.Shuffle(&sites);
  for (size_t i = 0; i < kQueries; ++i) {
    const int site = sites[i % sites.size()];
    const int doc = static_cast<int>(
        rng.Uniform(static_cast<uint64_t>(in.synth.docs_per_site)));
    in.starts.push_back(webdis::web::SynthUrl(site, doc));
  }
  in.arrival_rate = 100;
  in.arrivals = PoissonArrivals(SubSeed(seed, 3), kQueries, in.arrival_rate);
  return in;
}

// shared_hot: a small eager web, warm caches, many queries overlapping on a
// few StartNodes with batch envelopes and the result cache on.
Inputs SharedInputs(uint64_t seed) {
  Inputs in;
  in.synth.seed = SubSeed(seed, 1);
  in.synth.num_sites = 12;
  in.synth.docs_per_site = 16;
  in.query_prefix = kSynthPrefix;
  in.query_suffix = kSharedSuffix;
  constexpr size_t kQueries = 2000;
  constexpr size_t kHotStarts = 8;
  Rng rng(SubSeed(seed, 2));
  std::vector<std::string> hot;
  while (hot.size() < kHotStarts) {
    const std::string url = webdis::web::SynthUrl(
        static_cast<int>(rng.Uniform(12)), static_cast<int>(rng.Uniform(16)));
    if (std::find(hot.begin(), hot.end(), url) == hot.end()) {
      hot.push_back(url);
    }
  }
  for (size_t i = 0; i < kQueries; ++i) in.starts.push_back(rng.Pick(hot));
  in.warm_starts = hot;
  in.arrival_rate = 400;
  in.arrivals = PoissonArrivals(SubSeed(seed, 3), kQueries, in.arrival_rate);
  in.options.server.cache_databases = true;
  in.options.server.share_results = true;
  in.options.server.batch_window = 5 * kMillisecond;
  in.options.server.batch_max_members = 16;
  return in;
}

// churn_overload: the university web under a seeded mutation plan while an
// admission-limited department site takes half the StartNodes.
Inputs ChurnInputs(uint64_t seed) {
  Inputs in;
  in.university = true;
  in.uni.seed = SubSeed(seed, 1);
  in.uni.departments = 6;
  in.uni.labs_per_department = 3;
  in.query_prefix = "select d0.url, d1.url, r.text\nfrom document d0 such that \"";
  in.query_suffix =
      "\" L d0,\n"
      "where d0.title contains \"laborator\"\n"
      "     document d1 such that d0 G.(L*1) d1,\n"
      "     relinfon r such that r.delimiter = \"hr\",\n"
      "where r.text contains \"convener\"\n";
  constexpr size_t kQueries = 2000;
  Rng rng(SubSeed(seed, 2));
  std::vector<std::string> depts;
  for (int d = 0; d < in.uni.departments; ++d) {
    depts.push_back(webdis::StringPrintf("http://dept%d.uni.example/", d));
  }
  for (size_t i = 0; i < kQueries; ++i) {
    in.starts.push_back(rng.Bernoulli(0.5) ? depts[0] : rng.Pick(depts));
  }
  in.arrival_rate = 150;
  in.arrivals = PoissonArrivals(SubSeed(seed, 3), kQueries, in.arrival_rate);

  auto& server = in.options.server;
  server.cache_databases = true;
  server.retry.enabled = true;
  server.retry.initial_timeout = 100 * kMillisecond;
  server.retry.max_timeout = 400 * kMillisecond;
  server.retry.max_attempts = 8;
  server.retry.overload_initial_timeout = 100 * kMillisecond;
  server.retry.overload_max_timeout = 1 * kSecond;
  in.options.client.retry = server.retry;
  in.options.client.entry_deadline = 30 * kSecond;
  // Retired hosts stop their HTTP servers: keep degradation named rather
  // than refetched centrally.
  in.options.fallback_processing = false;
  webdis::server::QueryServerOptions hot = server;
  hot.admission.max_pending = 4;
  hot.admission.service_time = 4 * kMillisecond;
  in.options.server_overrides["dept0.uni.example"] = hot;

  in.churn = true;
  in.mutation.seed = SubSeed(seed, 4);
  in.mutation.edits = 12;
  in.mutation.link_adds = 4;
  in.mutation.link_removes = 3;
  in.mutation.spawns = 2;
  in.mutation.retires = 1;
  in.mutation.window_start = 0;
  in.mutation.window_end = in.arrivals.back();
  in.mutation.protected_hosts = {webdis::core::Engine::kClientHost,
                                 "www.uni.example"};
  // Department sites hold the StartNodes; the hot department's labs stay
  // up too, so retirements hit the other departments' traffic and the hot
  // site's overload stays separable from churn.
  for (int d = 0; d < in.uni.departments; ++d) {
    in.mutation.protected_hosts.push_back(
        webdis::StringPrintf("dept%d.uni.example", d));
  }
  for (int l = 0; l < in.uni.labs_per_department; ++l) {
    in.mutation.protected_hosts.push_back(
        webdis::StringPrintf("lab0-%d.uni.example", l));
  }
  return in;
}

std::string RowKey(const std::vector<std::string>& labels,
                   const webdis::relational::Tuple& row) {
  std::string key;
  for (size_t i = 0; i < row.size(); ++i) {
    key += i < labels.size() ? labels[i] : "?";
    key += '=';
    key += row[i].ToString();
    key += '\x1f';
  }
  return key;
}

std::set<std::string> RowKeys(
    const std::vector<webdis::relational::ResultSet>& results) {
  std::set<std::string> keys;
  for (const webdis::relational::ResultSet& rs : results) {
    for (const webdis::relational::Tuple& row : rs.rows) {
      keys.insert(RowKey(rs.column_labels, row));
    }
  }
  return keys;
}

// FNV-1a over the drive's virtual outputs.
void Mix(uint64_t* h, std::string_view bytes) {
  for (const char c : bytes) {
    *h ^= static_cast<uint8_t>(c);
    *h *= 0x100000001B3ULL;
  }
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string HostOf(const std::string& url) {
  auto parsed = webdis::html::ParseUrl(url);
  return parsed.ok() ? parsed->host : std::string();
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "cold_crawl", "shared_hot", "churn_overload"};
  return names;
}

webdis::Result<Inputs> MakeInputs(const std::string& workload,
                                  uint64_t seed) {
  Inputs in;
  if (workload == "cold_crawl") {
    in = CrawlInputs(seed);
  } else if (workload == "shared_hot") {
    in = SharedInputs(seed);
  } else if (workload == "churn_overload") {
    in = ChurnInputs(seed);
  } else {
    return webdis::Status::InvalidArgument("unknown workload: " + workload);
  }
  in.name = workload;
  // A little seeded jitter on every hop, as on a real network: response
  // times then depend on the seed rather than only on the path length.
  in.options.network.latency_jitter = 2 * kMillisecond;
  in.options.network.jitter_seed = SubSeed(seed, 6);
  return in;
}

std::unique_ptr<webdis::web::WebGraph> BuildWeb(const Inputs& inputs) {
  if (inputs.university) {
    return std::make_unique<webdis::web::WebGraph>(
        webdis::web::GenerateUniversityWeb(inputs.uni).web);
  }
  return std::make_unique<webdis::web::WebGraph>(
      webdis::web::GenerateSynthWeb(inputs.synth));
}

std::unique_ptr<webdis::web::MutationPlan> BuildPlan(
    const Inputs& inputs, const webdis::web::WebGraph& web) {
  return std::make_unique<webdis::web::MutationPlan>(
      webdis::web::MutationPlan::Random(web, inputs.mutation));
}

webdis::Result<Deployment> SetUp(const Inputs& inputs, Tracer* tracer) {
  Deployment d;
  d.web = BuildWeb(inputs);
  d.engine = std::make_unique<webdis::core::Engine>(d.web.get(),
                                                    inputs.options);
  if (inputs.churn) {
    d.plan = BuildPlan(inputs, *d.web);
    d.engine->InstallMutationPlan(d.web.get(), d.plan.get());
  }
  if (tracer != nullptr) tracer->Attach(&d);
  for (const std::string& start : inputs.warm_starts) {
    auto outcome = d.engine->Run(inputs.QueryText(start), "warm");
    if (!outcome.ok()) return outcome.status();
    if (!outcome->completed) {
      return webdis::Status::Internal("warm-up query did not complete: " +
                                      start);
    }
  }
  return d;
}

DriveResult Drive(const Inputs& inputs, Deployment* deployment,
                  Tracer* tracer) {
  webdis::core::Engine& engine = *deployment->engine;
  webdis::net::SimNetwork& network = engine.network();
  if (tracer != nullptr) tracer->StartDrive();

  DriveResult r;
  const size_t n = inputs.starts.size();
  std::vector<std::optional<webdis::query::QueryId>> ids(n);
  const webdis::core::TrafficSummary traffic0 = engine.TrafficSnapshot();
  const webdis::server::QueryServerStats server0 =
      engine.AggregateServerStats();
  const uint64_t delivered0 = network.delivered_count();
  const size_t materialized0 = deployment->web->num_materialized();
  const size_t documents0 = deployment->web->num_documents();

  r.queries.resize(n);
  for (size_t i = 0; i < n; ++i) r.queries[i].start = inputs.starts[i];
  std::set<size_t> pending;  // submitted, not yet collected
  const auto collect = [&](size_t i) {
    const webdis::core::RunOutcome o = Timed(tracer, Tracer::kCollect, i, [&] {
      return engine.CollectOutcome(*ids[i], traffic0);
    });
    pending.erase(i);
    QueryResult& q = r.queries[i];
    q.collected = true;
    q.completed = o.completed && !o.partial;
    q.latency_ms =
        static_cast<double>(o.completion_time - o.submit_time) / 1000.0;
    q.rows = RowKeys(o.results);
    for (const auto* list : {&o.budget_exceeded_nodes, &o.stale_node_urls,
                             &o.superseded_node_urls, &o.epoch_gated_nodes}) {
      q.named_nodes.insert(list->begin(), list->end());
    }
    for (const auto& [url, version] : o.node_versions) {
      // A version stamp other than the frozen web's names an edited page.
      if (version != 1) q.named_nodes.insert(url);
    }
    q.named_hosts.insert(o.retired_sites.begin(), o.retired_sites.end());
    q.named_hosts.insert(o.unreachable_hosts.begin(),
                         o.unreachable_hosts.end());
    const bool causes[] = {o.budget_exhausted, !o.retired_sites.empty(),
                           o.stale_consistent_nodes > 0,
                           o.superseded_nodes > 0};
    for (size_t c = 0; c < std::size(causes); ++c) {
      q.degraded = q.degraded || causes[c];
      r.degraded_by_cause[c] += causes[c] ? 1 : 0;
    }
    r.cht_max_active = std::max<uint64_t>(r.cht_max_active, o.cht_max_active);
    r.duplicate_rows_filtered += o.client_stats.duplicate_rows_filtered;
    r.degraded_reports += o.client_stats.budget_exceeded_reports +
                          o.client_stats.site_retired_reports +
                          o.client_stats.epoch_gated_reports;
  };
  std::function<void()> poll;
  if (inputs.churn) {
    // A churn verdict (fresh / stale / superseded) compares each report's
    // version stamp with the web at collection time, so collect every query
    // the moment it completes, as its user would, not after the whole drive.
    const webdis::SimTime last_arrival = network.now() + inputs.arrivals.back();
    const webdis::SimTime give_up =
        last_arrival + 2 * inputs.options.client.entry_deadline;
    poll = [&, last_arrival, give_up] {
      for (auto it = pending.begin(); it != pending.end();) {
        const size_t i = *it++;
        if (engine.user_site().Find(*ids[i])->completed) collect(i);
      }
      const webdis::SimTime now = network.now();
      if (now < give_up && (now <= last_arrival || !pending.empty())) {
        network.ScheduleAfter(kCollectPoll, poll);
      }
    };
    network.ScheduleAfter(kCollectPoll, poll);
  }

  const auto wall0 = std::chrono::steady_clock::now();
  const double cpu0 = CpuSeconds();
  for (size_t i = 0; i < n; ++i) {
    network.ScheduleAfter(inputs.arrivals[i], [&, i] {
      const std::string text = inputs.QueryText(inputs.starts[i]);
      auto compiled = Timed(tracer, Tracer::kCompile, i, [&] {
        return webdis::disql::CompileDisql(text);
      });
      if (!compiled.ok()) return;
      const std::string user = "u" + std::to_string(i);
      auto id = Timed(tracer, Tracer::kSubmit, i, [&] {
        return engine.Submit(compiled.value(), user);
      });
      if (!id.ok()) return;
      ids[i] = id.value();
      pending.insert(i);
    });
  }
  const auto run0 = std::chrono::steady_clock::now();
  Timed(tracer, Tracer::kRunUntilIdle, 0, [&] {
    network.RunUntilIdle();
    return 0;
  });
  const auto run1 = std::chrono::steady_clock::now();

  for (size_t i = 0; i < n; ++i) {
    if (ids[i].has_value() && !r.queries[i].collected) collect(i);
  }
  const auto wall1 = std::chrono::steady_clock::now();
  r.cpu_s = CpuSeconds() - cpu0;
  r.wall_s = std::chrono::duration<double>(wall1 - wall0).count();
  r.run_wall_s = std::chrono::duration<double>(run1 - run0).count();

  const webdis::core::TrafficSummary traffic1 = engine.TrafficSnapshot();
  r.messages = traffic1.messages - traffic0.messages;
  r.bytes = traffic1.bytes - traffic0.bytes;
  r.delivered = network.delivered_count() - delivered0;
  r.fetch_materializations =
      (static_cast<int64_t>(deployment->web->num_materialized()) -
       static_cast<int64_t>(materialized0)) -
      (static_cast<int64_t>(deployment->web->num_documents()) -
       static_cast<int64_t>(documents0));
  if (deployment->plan != nullptr) {
    const webdis::web::MutationStats& m = deployment->plan->stats();
    r.mutations_applied = m.pages_edited + m.links_added + m.links_removed +
                          m.sites_spawned + m.sites_retired;
  }
  r.server = engine.AggregateServerStats();
  r.server_before = server0;

  uint64_t h = 0xCBF29CE484222325ULL;
  Mix(&h, std::to_string(r.messages) + "/" + std::to_string(r.bytes));
  for (const QueryResult& q : r.queries) {
    Mix(&h, std::to_string(q.completed) + std::to_string(q.degraded) + ":" +
                std::to_string(q.latency_ms));
    for (const std::string& row : q.rows) Mix(&h, row);
  }
  r.signature = std::to_string(h);
  return r;
}

webdis::Status CheckAnswers(const Inputs& inputs, const DriveResult& drive,
                            uint64_t seed, size_t max_checks) {
  std::vector<std::string> starts;
  for (const QueryResult& q : drive.queries) {
    if (q.completed) starts.push_back(q.start);
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  if (starts.size() > max_checks) {
    Rng rng(SubSeed(seed, 5));
    rng.Shuffle(&starts);
    starts.resize(max_checks);
  }
  // References: the data-shipping baseline (every page downloaded and
  // queried centrally) on an identical, never-driven, never-mutated web.
  const std::unique_ptr<webdis::web::WebGraph> web = BuildWeb(inputs);
  std::map<std::string, std::set<std::string>> reference;
  for (const std::string& start : starts) {
    auto compiled = webdis::disql::CompileDisql(inputs.QueryText(start));
    if (!compiled.ok()) return compiled.status();
    auto base = webdis::core::RunDataShippingBaseline(
        *web, compiled.value(), inputs.options.network);
    if (!base.ok() || !base->outcome.completed) {
      return webdis::Status::Internal("data-shipping baseline failed: " +
                                      start);
    }
    reference[start] = RowKeys(base->outcome.results);
  }

  // Churn: every link that existed at any point of the drive, from the
  // frozen web plus each page as the mutation plan leaves it step by step
  // (a link may be added and removed again mid-drive).
  std::map<std::string, std::set<std::string>> links;
  const auto add_links = [&links](const webdis::web::WebGraph& g,
                                  const std::string& url) {
    if (const webdis::web::WebGraph::Document* doc = g.Find(url)) {
      for (const auto& anchor : doc->parsed.anchors) {
        links[url].insert(anchor.resolved.ResourceKey());
      }
    }
  };
  if (inputs.churn) {
    for (const std::string& url : web->AllUrls()) add_links(*web, url);
    const std::unique_ptr<webdis::web::WebGraph> mutated = BuildWeb(inputs);
    const std::unique_ptr<webdis::web::MutationPlan> plan =
        BuildPlan(inputs, *mutated);
    for (const SimTime t : plan->PendingTimes()) {
      for (const webdis::web::Mutation& m : plan->ApplyDue(mutated.get(), t)) {
        add_links(*mutated, m.url);
      }
    }
  }

  size_t checked = 0;
  for (size_t i = 0; i < drive.queries.size(); ++i) {
    const QueryResult& q = drive.queries[i];
    auto ref = reference.find(q.start);
    if (!q.completed || ref == reference.end()) continue;
    ++checked;
    if (q.rows == ref->second) continue;
    if (!inputs.churn) {
      return webdis::Status::Internal(webdis::StringPrintf(
          "query %zu from %s: %zu rows, data-shipping baseline has %zu", i,
          q.start.c_str(), q.rows.size(), ref->second.size()));
    }
    // Churn: every differing row's node must be named by the outcome
    // (degraded, stale, superseded, gated or edited), lie on a named host
    // (retired or unreachable), or lie downstream of a named node within the
    // template's path length: an edited page changes what its links reach.
    std::vector<std::string> diff;
    std::set_symmetric_difference(q.rows.begin(), q.rows.end(),
                                  ref->second.begin(), ref->second.end(),
                                  std::back_inserter(diff));
    std::set<std::string> tainted = q.named_nodes;
    std::vector<std::string> frontier(tainted.begin(), tainted.end());
    for (int hop = 0; hop < kChurnPathLinks && !frontier.empty(); ++hop) {
      std::vector<std::string> next;
      for (const std::string& url : frontier) {
        auto out = links.find(url);
        if (out == links.end()) continue;
        for (const std::string& to : out->second) {
          if (tainted.insert(to).second) next.push_back(to);
        }
      }
      frontier = std::move(next);
    }
    for (const std::string& row : diff) {
      bool explained = false;
      for (const std::string& cell : webdis::Split(row, '\x1f')) {
        const size_t eq = cell.find('=');
        if (eq == std::string::npos) continue;
        const std::string value = cell.substr(eq + 1);
        if (value.rfind("http://", 0) != 0) continue;
        explained = explained || tainted.count(value) > 0 ||
                    q.named_hosts.count(HostOf(value)) > 0;
      }
      if (!explained) {
        return webdis::Status::Internal(webdis::StringPrintf(
            "query %zu from %s: row differs from the frozen web and no named "
            "node or host explains it: %s",
            i, q.start.c_str(), row.c_str()));
      }
    }
  }
  if (checked == 0) return webdis::Status::Internal("oracle checked nothing");
  return webdis::Status::OK();
}

}  // namespace perfbench
