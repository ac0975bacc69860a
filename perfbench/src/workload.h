#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/engine.h"
#include "web/graph.h"
#include "web/mutation.h"
#include "web/synth.h"
#include "web/university.h"

namespace perfbench {

class Tracer;

/// Everything one workload run derives from its seed. The program under
/// test receives only these generated inputs: the web's generator options,
/// the per-query StartNodes and arrival instants, the engine configuration
/// and (for churn) the mutation-plan options.
struct Inputs {
  std::string name;
  bool university = false;         // false: synthetic web
  webdis::web::SynthWebOptions synth;
  webdis::web::UniversityOptions uni;
  /// Every query is query_prefix + StartNode + query_suffix: one DISQL
  /// template per workload, so a clone's (num_q, rem_pre) state identifies
  /// the node-query a visit ran.
  std::string query_prefix;
  std::string query_suffix;
  std::vector<std::string> starts;           // one per query
  std::vector<webdis::SimTime> arrivals;     // virtual, from drive start
  double arrival_rate = 0;                   // queries per virtual second
  /// StartNodes run once during set-up so pages, DB caches and the result
  /// cache are warm before the drive (empty: cold start).
  std::vector<std::string> warm_starts;
  webdis::core::EngineOptions options;
  bool churn = false;
  webdis::web::MutationPlan::RandomOptions mutation;

  std::string QueryText(const std::string& start) const {
    return query_prefix + start + query_suffix;
  }
};

/// Names of every workload, in the order `--workload all` runs them.
const std::vector<std::string>& WorkloadNames();

/// Builds the inputs of `workload` from `seed`.
webdis::Result<Inputs> MakeInputs(const std::string& workload, uint64_t seed);

/// A built deployment: the web, its mutation plan (churn only) and the
/// engine over them, warmed as the inputs ask.
struct Deployment {
  std::unique_ptr<webdis::web::WebGraph> web;
  std::unique_ptr<webdis::web::MutationPlan> plan;
  std::unique_ptr<webdis::core::Engine> engine;
};

/// Builds the web named by `inputs` (a fresh, unmutated copy each call).
std::unique_ptr<webdis::web::WebGraph> BuildWeb(const Inputs& inputs);

/// The seeded mutation plan over `web` (churn only).
std::unique_ptr<webdis::web::MutationPlan> BuildPlan(
    const Inputs& inputs, const webdis::web::WebGraph& web);

/// Set-up: web, plan and engine, then the warm-up queries. `tracer`
/// (nullable) observes visits from before the warm-up on.
webdis::Result<Deployment> SetUp(const Inputs& inputs, Tracer* tracer);

/// One query's outcome, reduced to what the metrics and the oracle need.
struct QueryResult {
  std::string start;
  bool collected = false;
  bool completed = false;  // CHT-settled, not partial by deadline GC
  bool degraded = false;
  double latency_ms = 0;
  std::set<std::string> rows;  // "label=value|..." per row
  /// Nodes and hosts the outcome names as degraded (churn oracle).
  std::set<std::string> named_nodes;
  std::set<std::string> named_hosts;
};

/// What one drive of all the inputs' queries produced.
struct DriveResult {
  std::vector<QueryResult> queries;
  double wall_s = 0;       // arrivals + RunUntilIdle + CollectOutcome
  double cpu_s = 0;        // process CPU over the same interval
  double run_wall_s = 0;   // RunUntilIdle alone
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t delivered = 0;
  /// First fetches that materialized a lazy page: the drive's change in
  /// WebGraph::num_materialized less its change in num_documents (pages a
  /// mutation plan adds or removes are eager, and count as materialized
  /// without being fetched).
  int64_t fetch_materializations = 0;
  uint64_t mutations_applied = 0;
  /// Aggregated server counters just before and just after the drive.
  webdis::server::QueryServerStats server_before;
  webdis::server::QueryServerStats server;
  uint64_t cht_max_active = 0;
  uint64_t duplicate_rows_filtered = 0;
  uint64_t degraded_reports = 0;
  /// Queries degraded by budget or shed, retired site, stale page and
  /// superseded page (a query may count under several causes).
  uint64_t degraded_by_cause[4] = {};
  /// Everything virtual the drive produced (latencies, traffic, rows):
  /// identical across rounds of one run, or the program is nondeterministic.
  std::string signature;
};

/// Submits every query open-loop at its arrival instant (a SimNetwork timer
/// per arrival calls CompileDisql and Engine::Submit), drives the network
/// to idle and collects each outcome. `tracer` (nullable) records spans and
/// visits.
DriveResult Drive(const Inputs& inputs, Deployment* deployment,
                  Tracer* tracer);

/// Answer oracle, run outside every timed region. Synthetic workloads:
/// each checked query's rows equal, as a set, the data-shipping baseline's
/// on an identical web (every distinct StartNode when there are at most
/// `max_checks`, else a seeded sample of that many). Churn: each answer
/// equals the baseline's on the frozen (unmutated) web, or every row where
/// it differs is explained by a node or host the outcome names. Returns an
/// error naming the first wrong answer.
webdis::Status CheckAnswers(const Inputs& inputs, const DriveResult& drive,
                            uint64_t seed, size_t max_checks);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
