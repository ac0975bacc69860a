#ifndef WEBDIS_WEB_MUTATION_H_
#define WEBDIS_WEB_MUTATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "web/graph.h"

namespace webdis::web {

/// One scheduled edit to the live web (PROTOCOL.md §10.1).
struct Mutation {
  enum class Kind {
    /// Appends a visible paragraph to `url` (bumps its version — cached
    /// node-query results for the old version stay valid *for* that
    /// version but are never served for the new one).
    kEditPage,
    /// Appends an anchor `url` -> `target_url` (bumps `url`'s version).
    kAddLink,
    /// Strips the first anchor `url` -> `target_url` (bumps the version).
    /// Skipped (counted, not fatal) when no such anchor exists.
    kRemoveLink,
    /// Adds document `url` with body `html`. The document's born_epoch is
    /// the epoch *after* the batch's bump, so queries already running under
    /// the old pin never see it (§10.3). The engine starts a query server
    /// for the new host.
    kSpawnSite,
    /// Removes every document on `host` for good (§10.2). The engine puts
    /// the host's query server into retired mode.
    kRetireSite,
  };
  Kind kind;
  /// Virtual time the mutation takes effect.
  SimTime at = 0;
  std::string url;         // kEditPage / kAddLink / kRemoveLink / kSpawnSite
  std::string target_url;  // kAddLink / kRemoveLink
  std::string html;        // kSpawnSite body; kEditPage appended text
  std::string host;        // kRetireSite
};

struct MutationStats {
  uint64_t pages_edited = 0;
  uint64_t links_added = 0;
  uint64_t links_removed = 0;
  uint64_t sites_spawned = 0;
  uint64_t sites_retired = 0;
  /// Mutations whose target vanished before they applied (e.g. an edit to
  /// a page whose site a same-plan retire removed first).
  uint64_t skipped = 0;
  /// Epoch bumps: one per ApplyDue call that applied anything.
  uint64_t epochs_advanced = 0;
};

/// A seeded schedule of web mutations, mirroring net::FaultPlan: built up
/// front (declaratively or via Random), then applied against the live
/// WebGraph at virtual times as the run advances. The engine drives
/// ApplyDue from simulation timers and orchestrates the server-side
/// consequences (starting spawned sites, retiring gone ones).
///
/// Mutations touch WebGraph state that every query server reads. Each batch
/// is applied by one timer event of the simulated network, between two
/// handler runs, so no handler ever sees a half-applied batch.
class MutationPlan {
 public:
  MutationPlan() = default;

  /// Appends one mutation. Call before the run starts; the schedule is
  /// kept sorted by `at` (stable for equal times).
  void Add(Mutation m);

  bool empty() const { return mutations_.empty(); }
  size_t size() const { return mutations_.size(); }

  /// Distinct virtual times of not-yet-applied mutations, ascending — the
  /// engine schedules one timer per entry.
  std::vector<SimTime> PendingTimes() const;

  /// Applies every not-yet-applied mutation with `at` <= now, in schedule
  /// order. If anything applies, the web epoch advances once *before* the
  /// batch so spawned documents are born into the new epoch. Returns the
  /// mutations applied this call so the engine can orchestrate
  /// spawn/retire side effects (the returned list includes skipped
  /// mutations only in stats, not in the vector).
  std::vector<Mutation> ApplyDue(WebGraph* web, SimTime now);

  const MutationStats& stats() const { return stats_; }

  /// Options for a seeded random plan over an existing web.
  struct RandomOptions {
    uint64_t seed = 1;
    int edits = 3;
    int link_adds = 1;
    int link_removes = 1;
    int spawns = 1;
    int retires = 1;
    /// Mutations land uniformly in [window_start, window_end].
    SimTime window_start = 0;
    SimTime window_end = 1 * kSecond;
    /// Hosts never retired (the client host and the start host, usually).
    std::vector<std::string> protected_hosts;
  };

  /// Builds a seeded random plan: page edits and link adds/removes over
  /// the web's current documents, spawns of fresh single-page sites (each
  /// paired with a link from an existing page so the new site is
  /// reachable), and whole-site retirements of non-protected hosts.
  static MutationPlan Random(const WebGraph& web, const RandomOptions& opts);

 private:
  std::vector<Mutation> mutations_;  // sorted by `at`
  size_t applied_ = 0;               // prefix of mutations_ already applied
  MutationStats stats_;
};

}  // namespace webdis::web

#endif  // WEBDIS_WEB_MUTATION_H_
