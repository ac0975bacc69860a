#ifndef WEBDIS_CLIENT_CHT_H_
#define WEBDIS_CLIENT_CHT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "query/report.h"
#include "query/web_query.h"

namespace webdis::client {

/// The Current Hosts Table of Section 2.7.1: one per submitted query, kept
/// at the user site. Tracks every node currently hosting a clone of the
/// query, keyed by (node URL, clone state). The query is complete when every
/// entry has been matched by a deletion.
///
/// Two completion modes:
///
///  * **robust** (default, an extension): completion is balance-counted.
///    Every clone dispatched produces exactly one Add and — because servers
///    report even duplicate drops — exactly one MarkDeleted, so completion
///    is "every (node, state) key's add/delete balance is zero". This is
///    immune to cross-message reordering (a small drop-report can overtake
///    the larger report that created its entry) and to disagreement between
///    the client-side dedup mirror and the server log tables.
///
///  * **paper** mode: the original design — dedup-suppressed entries are
///    expected to be silently dropped by the target server, deletions must
///    match active entries, and unmatched deletions are ignored. Correct in
///    the common case but hangs under adversarial interleavings (see
///    DESIGN.md §5); kept for the ablation benchmarks.
///
/// With `dedup` enabled, Add() suppresses entries the paper's log-table
/// rules would drop at the target server (the "minor modification" at the
/// end of Section 3.1.1), mirroring the server-side equivalence logic.
class CurrentHostsTable {
 public:
  CurrentHostsTable(bool dedup, bool robust)
      : dedup_(dedup), robust_(robust) {}

  struct Entry {
    std::string node_url;
    query::CloneState state;
    bool deleted = false;
    /// Virtual time of the last add/delete touching this entry's key —
    /// feeds the deadline GC (DrainExpired).
    SimTime last_activity = 0;
  };

  /// Adds an entry for a clone en route to `node_url` in `state`. Returns
  /// false if suppressed as a duplicate (dedup mode only; in robust mode the
  /// suppressed add still participates in balance counting). `now` stamps
  /// the key for deadline GC (0 = caller keeps no clock).
  bool Add(const std::string& node_url, const query::CloneState& state,
           SimTime now = 0);

  /// Processes a deletion for (node_url, state). Marks the first active
  /// matching entry deleted when one exists. Returns false if no active
  /// entry matched (tolerated; in robust mode the balance still decreases).
  bool MarkDeleted(const std::string& node_url,
                   const query::CloneState& state, SimTime now = 0);

  /// Completion test (see class comment for mode semantics).
  bool AllDeleted() const;

  /// Gives up on everything still outstanding (graceful recovery from node
  /// failures, §7.1): returns one entry per outstanding (node, state) —
  /// active entries in paper mode, positive-balance keys in robust mode
  /// (which also covers dedup-suppressed clones whose drop-reports died
  /// with a crashed server) — marks everything deleted, and zeroes all
  /// balances so AllDeleted() becomes true.
  std::vector<Entry> DrainOutstanding();

  /// Deadline GC (failure handling, PROTOCOL.md): gives up on outstanding
  /// keys whose last add/delete activity is at least `deadline` old —
  /// evidence their host crashed or was partitioned away. Returns one
  /// representative entry per expired key and zeroes it so completion can
  /// be reached (as a *partial* outcome). Unlike DrainOutstanding this is
  /// selective: keys with recent activity stay live. In robust mode
  /// negative-balance keys expire too (their overtaking add will never
  /// arrive once the sender is dead).
  std::vector<Entry> DrainExpired(SimTime now, SimDuration deadline);

  /// Frees the entry list, the balances and the dedup mirror once the query
  /// has settled and its socket is closed (no CHT traffic can follow). The
  /// counters below keep their values; a released table holds no entries.
  void Release();

  size_t active_count() const { return active_; }
  /// Entries ever added (unsuppressed); unchanged by Release().
  size_t total_count() const { return total_adds_ - suppressed_; }
  /// High-water mark of concurrent active entries — the CHT memory cost the
  /// protocol pays for completion detection.
  size_t max_active() const { return max_active_; }
  uint64_t suppressed_count() const { return suppressed_; }
  uint64_t unmatched_deletes() const { return unmatched_deletes_; }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  /// Key for balance counting: node URL + canonical state rendering.
  static std::string BalanceKey(const std::string& node_url,
                                const query::CloneState& state);
  void Bump(const std::string& node_url, const query::CloneState& state,
            int delta, SimTime now);

  /// Per-key add/delete balance plus a representative (node, state) so
  /// outstanding keys can be recovered.
  struct KeyBalance {
    int64_t balance = 0;
    std::string node_url;
    query::CloneState state;
    SimTime last_activity = 0;
  };

  bool dedup_;
  bool robust_;
  std::vector<Entry> entries_;
  size_t active_ = 0;
  size_t max_active_ = 0;
  uint64_t suppressed_ = 0;
  uint64_t unmatched_deletes_ = 0;
  uint64_t total_adds_ = 0;
  /// Robust mode: per-key (adds - deletes); completion when all zero.
  std::map<std::string, KeyBalance> balance_;
  size_t nonzero_keys_ = 0;
  /// Dedup mirror: (node URL, num_q) -> logged PREs, same rules as the
  /// server-side log table.
  std::map<std::pair<std::string, uint32_t>, std::vector<pre::Pre>> mirror_;
};

}  // namespace webdis::client

#endif  // WEBDIS_CLIENT_CHT_H_
