#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "pre/pre.h"
#include "workload.h"

namespace perfbench {

/// One query-server visit as the traced drive observed it (through
/// Engine::ObserveVisits), plus the document version — and, for versions the
/// frozen web does not have, the body — the visit saw.
struct Visit {
  std::string url;
  uint32_t num_q = 0;
  webdis::pre::Pre rem;
  bool duplicate = false;
  bool rewritten = false;
  bool evaluated = false;
  /// Observed during set-up's warm-up queries: replayed only to fill the
  /// caches the drive then finds warm.
  bool warm = false;
  /// The server built (or fetched) a node database for this visit: not a
  /// duplicate, the document existed, and the query's epoch pin saw it.
  bool processed = false;
  uint64_t version = 0;
};

/// In-memory spans and visit log of one traced drive. Spans wrap the
/// benchmark's own calls into the program (CompileDisql, Engine::Submit,
/// SimNetwork::RunUntilIdle, Engine::CollectOutcome) and the replayed layer
/// calls; nothing inside the program is instrumented.
class Tracer {
 public:
  enum SpanKind { kCompile, kSubmit, kRunUntilIdle, kCollect, kNumKinds };

  /// Times `fn`, records a span of `kind` for query `query`, returns fn().
  template <typename Fn>
  auto Time(SpanKind kind, size_t query, Fn&& fn) {
    const auto start = std::chrono::steady_clock::now();
    auto result = fn();
    const auto end = std::chrono::steady_clock::now();
    Record(kind, query, start, end);
    return result;
  }

  /// Installs the visit observer on every query server, and again after
  /// each scheduled mutation so servers of spawned sites are observed too.
  /// Visits count as warm-up until StartDrive().
  void Attach(Deployment* deployment);
  void StartDrive() { warming_ = false; }

  /// Seconds spent in spans of `kind`.
  double Seconds(SpanKind kind) const { return seconds_[kind]; }
  const std::vector<Visit>& visits() const { return visits_; }
  /// Bodies of visited (url, version) pairs with version != 1.
  const std::map<std::pair<std::string, uint64_t>, std::string>& bodies()
      const {
    return bodies_;
  }

  /// Adds a replay span (one per replayed layer) for the trace file.
  void AddReplaySpan(const std::string& name, double seconds);

  /// Writes every span as Chrome trace-event JSON to `path`.
  webdis::Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    size_t query = 0;
    double start_us = 0;
    double dur_us = 0;
  };
  void Record(SpanKind kind, size_t query,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end);

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  double seconds_[kNumKinds] = {};
  std::vector<Visit> visits_;
  bool warming_ = true;
  std::map<std::pair<std::string, uint64_t>, std::string> bodies_;
};

/// fn(), inside a span of `kind` when `tracer` is set.
template <typename Fn>
auto Timed(Tracer* tracer, Tracer::SpanKind kind, size_t query, Fn&& fn) {
  return tracer != nullptr ? tracer->Time(kind, query, fn) : fn();
}

/// Per-layer time and work replayed from a traced drive.
struct LayerReplay {
  double materialize_s = 0;
  uint64_t materializations = 0;
  double parse_s = 0;
  double parse_edited_s = 0;  // parses of versions the drive itself created
  uint64_t parses = 0;
  uint64_t parse_bytes = 0;
  double db_build_s = 0;
  uint64_t db_builds = 0;
  double eval_s = 0;
  uint64_t evals = 0;
  uint64_t rows = 0;  // rows of evaluations the result cache did not absorb
  double derive_s = 0;
  uint64_t derives = 0;
  double codec_s = 0;
  uint64_t codec_bytes = 0;
  uint64_t visits = 0;  // processed visits
};

/// Replays the traced drive's visits through the layers' public functions
/// (WebGraph::Find on a fresh twin web, html::ParseDocument,
/// server::BuildNodeDatabase, relational::Execute, Pre::FirstLinks/Derive,
/// WebQuery::EncodeTo/DecodeFrom), timing each call, then checks that the
/// replayed call counts equal the program's own counters from the same
/// drive. A mismatch is an error naming the layer.
webdis::Result<LayerReplay> Replay(const Inputs& inputs, const Tracer& tracer,
                                   const DriveResult& drive);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
