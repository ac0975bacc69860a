#include "tracer.h"

#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <tuple>

#include "common/strings.h"
#include "disql/compiler.h"
#include "html/parser.h"
#include "html/url.h"
#include "query/web_query.h"
#include "relational/eval.h"
#include "serialize/encoder.h"
#include "server/db_constructor.h"

namespace perfbench {
namespace {

const char* const kSpanNames[] = {"disql::CompileDisql", "Engine::Submit",
                                  "SimNetwork::RunUntilIdle",
                                  "Engine::CollectOutcome"};

double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

void Tracer::Record(SpanKind kind, size_t query,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  const double start_us =
      std::chrono::duration<double, std::micro>(start - origin_).count();
  const double dur_us =
      std::chrono::duration<double, std::micro>(end - start).count();
  spans_.push_back(Span{kSpanNames[kind], query, start_us, dur_us});
  seconds_[kind] += dur_us * 1e-6;
}

void Tracer::AddReplaySpan(const std::string& name, double seconds) {
  const double start_us = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - origin_)
                              .count();
  spans_.push_back(Span{"replay " + name, 0, start_us, seconds * 1e6});
}

void Tracer::Attach(Deployment* deployment) {
  const webdis::web::WebGraph* web = deployment->web.get();
  webdis::server::QueryServer::VisitObserver observer =
      [this, web](const webdis::server::VisitEvent& event) {
        Visit v;
        v.url = event.node_url;
        v.num_q = event.received_state.num_q;
        v.rem = event.received_state.rem_pre;
        v.duplicate = event.duplicate;
        v.rewritten = event.rewritten;
        v.evaluated = event.evaluated;
        v.warm = warming_;
        // Duplicates never reach the document lookup, so neither may we (a
        // Find here could materialize a page the program never fetched).
        const webdis::web::WebGraph::Document* doc =
            event.duplicate ? nullptr : web->Find(event.node_url);
        if (doc != nullptr) {
          v.version = doc->version;
          v.processed = true;
          if (doc->born_epoch > 1) {
            // Spawned mid-drive: the event does not carry the query's epoch
            // pin, so infer the gate from what the server did. A processed
            // visit evaluates a nullable PRE and forwards on matching
            // anchors; an epoch-gated one does neither.
            const bool would_eval = !event.rewritten && v.rem.ContainsNull();
            size_t would_forward = 0;
            if (!event.rewritten) {
              for (const webdis::html::LinkType type : v.rem.FirstLinks()) {
                for (const auto& anchor : doc->parsed.anchors) {
                  if (anchor.ltype == type) ++would_forward;
                }
              }
            }
            v.processed = !((would_eval && !event.evaluated) ||
                            (would_forward > 0 && event.forward_count == 0));
          }
          if (doc->version != 1 || doc->born_epoch != 1) {
            bodies_.try_emplace({v.url, doc->version}, doc->raw_html);
          }
        }
        visits_.push_back(std::move(v));
      };
  webdis::core::Engine* engine = deployment->engine.get();
  engine->ObserveVisits(observer);
  if (deployment->plan != nullptr) {
    // Runs after the engine's own mutation timer for the same instant
    // (scheduled later, so sequenced later): a site spawned by that batch
    // already has its query server.
    webdis::net::SimNetwork& network = engine->network();
    for (const webdis::SimTime t : deployment->plan->PendingTimes()) {
      network.ScheduleAfter(t > network.now() ? t - network.now() : 0,
                            [engine, observer] {
                              engine->ObserveVisits(observer);
                            });
    }
  }
}

webdis::Status Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return webdis::Status::IoError("cannot write " + path);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"query\": %zu}}%s\n",
                 s.name.c_str(), s.start_us, s.dur_us, s.query,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0 ? webdis::Status::OK()
                             : webdis::Status::IoError("cannot write " + path);
}

webdis::Result<LayerReplay> Replay(const Inputs& inputs, const Tracer& tracer,
                                   const DriveResult& drive) {
  using Clock = std::chrono::steady_clock;
  using Key = std::pair<std::string, uint64_t>;
  LayerReplay r;
  const std::unique_ptr<webdis::web::WebGraph> twin = BuildWeb(inputs);
  size_t materialized0 = twin->num_materialized();
  auto compiled =
      webdis::disql::CompileDisql(inputs.QueryText(inputs.starts.front()));
  if (!compiled.ok()) return compiled.status();
  const webdis::query::WebQuery& plan = compiled->web_query;
  const size_t total = plan.remaining_queries.size();

  // One clone per num_q, carrying that many trailing stages of the plan;
  // each visit re-stamps its recorded PRE and destination before the codec.
  std::map<uint32_t, webdis::query::WebQuery> clones;
  for (size_t num_q = 1; num_q <= total; ++num_q) {
    webdis::query::WebQuery c = plan.Clone();
    const auto consumed = static_cast<std::ptrdiff_t>(total - num_q);
    c.remaining_queries.erase(c.remaining_queries.begin(),
                              c.remaining_queries.begin() + consumed);
    c.future_pres.erase(c.future_pres.begin(),
                        c.future_pres.begin() + consumed);
    clones.emplace(static_cast<uint32_t>(num_q), std::move(c));
  }

  const bool cache_dbs = inputs.options.server.cache_databases;
  const bool share = inputs.options.server.share_results;
  std::set<Key> parsed_keys;
  std::set<Key> warm_parsed_keys;
  LayerReplay warm;  // set-up visits only fill the caches; their work is dropped
  std::map<Key, webdis::html::ParsedDocument> drive_created;
  std::map<Key, webdis::relational::Database> db_cache;
  std::map<std::tuple<std::string, uint64_t, size_t>, bool> result_cache;

  for (const Visit& v : tracer.visits()) {
    if (!v.processed) continue;
    LayerReplay& acc = v.warm ? warm : r;
    ++acc.visits;
    auto t0 = Clock::now();
    const webdis::web::WebGraph::Document* doc = twin->Find(v.url);
    acc.materialize_s += Since(t0);

    // The body the visit saw: recorded if the drive created that version
    // (edits, spawns), else the frozen twin's.
    const Key key{v.url, v.version};
    auto body = tracer.bodies().find(key);
    if (body == tracer.bodies().end() && doc == nullptr) {
      return webdis::Status::Internal("replay: no body for " + v.url);
    }
    if ((v.warm ? warm_parsed_keys : parsed_keys).insert(key).second) {
      auto url = webdis::html::ParseUrl(v.url);
      if (!url.ok()) return url.status();
      const std::string& html =
          body != tracer.bodies().end() ? body->second : doc->raw_html;
      t0 = Clock::now();
      webdis::html::ParsedDocument parsed =
          webdis::html::ParseDocument(url.value(), html);
      const double dt = Since(t0);
      acc.parse_s += dt;
      ++acc.parses;
      acc.parse_bytes += html.size();
      if (body != tracer.bodies().end()) {
        acc.parse_edited_s += dt;
        drive_created.emplace(key, std::move(parsed));
      }
    }
    const webdis::html::ParsedDocument& parsed =
        body != tracer.bodies().end() ? drive_created.at(key) : doc->parsed;

    webdis::relational::Database scratch;
    const webdis::relational::Database* db = nullptr;
    auto cached = cache_dbs ? db_cache.find(key) : db_cache.end();
    if (cached != db_cache.end()) {
      db = &cached->second;
    } else {
      t0 = Clock::now();
      scratch = webdis::server::BuildNodeDatabase(parsed);
      acc.db_build_s += Since(t0);
      ++acc.db_builds;
      db = cache_dbs ? &db_cache.emplace(key, std::move(scratch)).first->second
                     : &scratch;
    }

    // QueryServer::ProcessStage's control flow, on the stage num_q names.
    std::function<void(size_t, const webdis::pre::Pre&, bool)> stage =
        [&](size_t index, const webdis::pre::Pre& rem, bool may_eval) {
          if (may_eval && rem.ContainsNull()) {
            ++acc.evals;
            const auto rkey = std::make_tuple(v.url, v.version, index);
            auto hit = share ? result_cache.find(rkey) : result_cache.end();
            bool answered = false;
            if (hit != result_cache.end()) {
              answered = hit->second;
            } else {
              const auto e0 = Clock::now();
              auto rows = webdis::relational::Execute(
                  plan.remaining_queries[index].select, *db);
              acc.eval_s += Since(e0);
              if (rows.ok()) {
                acc.rows += rows->rows.size();
                answered = !rows->rows.empty();
              }
              if (share) result_cache.emplace(rkey, answered);
            }
            if (answered && index + 1 < total) {
              stage(index + 1, plan.future_pres[index], true);
            }
          }
          const auto d0 = Clock::now();
          for (const webdis::html::LinkType type : rem.FirstLinks()) {
            [[maybe_unused]] const webdis::pre::Pre derived = rem.Derive(type);
            ++acc.derives;
          }
          acc.derive_s += Since(d0);
        };
    // A superset rewrite leaves a PRE that is never nullable: the program
    // evaluates nothing at the first stage of such a visit.
    stage(total - v.num_q, v.rem, !v.rewritten);

    webdis::query::WebQuery& clone = clones.at(v.num_q);
    clone.rem_pre = v.rem;
    clone.dest_urls.assign(1, v.url);
    t0 = Clock::now();
    webdis::serialize::Encoder enc;
    clone.EncodeTo(&enc);
    webdis::serialize::Decoder dec(enc.data());
    webdis::query::WebQuery decoded;
    const webdis::Status decoded_ok =
        webdis::query::WebQuery::DecodeFrom(&dec, &decoded);
    acc.codec_s += Since(t0);
    if (!decoded_ok.ok()) return decoded_ok;
    acc.codec_bytes += enc.size();
    if (v.warm) materialized0 = twin->num_materialized();
  }
  r.materializations = twin->num_materialized() - materialized0;

  // Replay fidelity: the replayed call counts must equal the program's own
  // counters from the same drive, layer by layer.
  const auto delta = [&drive](uint64_t webdis::server::QueryServerStats::*f) {
    return drive.server.*f - drive.server_before.*f;
  };
  const struct {
    const char* layer;
    uint64_t replayed;
    uint64_t program;
  } checks[] = {
      {"web.materializations (WebGraph::num_materialized)",
       r.materializations,
       static_cast<uint64_t>(drive.fetch_materializations)},
      {"server.db_builds (db_constructions)", r.db_builds,
       delta(&webdis::server::QueryServerStats::db_constructions)},
      {"relational.evals (node_queries_evaluated)", r.evals,
       delta(&webdis::server::QueryServerStats::node_queries_evaluated)},
      {"server.visits (nodes_processed)", r.visits,
       delta(&webdis::server::QueryServerStats::nodes_processed)},
  };
  for (const auto& c : checks) {
    if (c.replayed != c.program) {
      return webdis::Status::Internal(webdis::StringPrintf(
          "replay fidelity: %s replayed %llu, program counted %llu", c.layer,
          static_cast<unsigned long long>(c.replayed),
          static_cast<unsigned long long>(c.program)));
    }
  }
  return r;
}

}  // namespace perfbench
