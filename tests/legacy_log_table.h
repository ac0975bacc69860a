#ifndef WEBDIS_TESTS_LEGACY_LOG_TABLE_H_
#define WEBDIS_TESTS_LEGACY_LOG_TABLE_H_

// Test-only differential oracle: the node-query log table that stored a
// copy of the node URL, the query key and the (Pre, LogPreForm) pair in
// every entry, kept verbatim so server::LogTable's interned keys and shared
// forms can be checked decision by decision, stat by stat and byte by byte
// against it. Not part of the library.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pre/log_equivalence.h"
#include "query/web_query.h"

namespace webdis::legacy_log {

/// The Node-query Log Table of Section 3.1.1. Records, per (node URL, query
/// id, num_q), the remaining-PRE states of clones that have already visited,
/// and decides for each new arrival whether it is a duplicate (purge), a
/// strict superset (replace the entry and continue with the multiple-rewrite
/// PRE), or unrelated (log it and process normally).
class LogTable {
 public:
  LogTable() = default;

  /// Per-arrival statistics.
  struct Stats {
    uint64_t checks = 0;
    uint64_t duplicates = 0;
    uint64_t superset_rewrites = 0;
    uint64_t new_entries = 0;
    /// Cross-query sharing (PROTOCOL.md §9): arrivals whose PRE
    /// canonicalization was served from the form memo instead of recomputed
    /// — batched clones of different queries often carry identical PREs.
    uint64_t form_memo_hits = 0;
  };

  /// Applies the paper's rules for a clone arriving at `node_url` in
  /// `state`. Side effects: logs/replaces entries as the rules dictate.
  pre::LogDecision Check(const std::string& node_url,
                         const std::string& query_key,
                         const query::CloneState& state);

  /// Drops every entry (the periodic purge of Section 3.1.1). An
  /// early purge can only cause duplicate recomputation, never wrong
  /// results — tested as a property. The form memo goes too: it is a
  /// derived cache with the same lifetime rules.
  void Purge() {
    entries_.clear();
    form_memo_.clear();
  }

  /// Drops entries of one query (e.g. after its termination).
  void PurgeQuery(const std::string& query_key);

  size_t size() const;
  const Stats& stats() const { return stats_; }

  /// Snapshot codec (server/persist): entries only, not the arrival
  /// counters — stats are measurement, not recoverable protocol state.
  /// Each entry serializes its PRE; the canonical LogPreForm is recomputed
  /// on load (it is a derived cache, and re-deriving it is cheaper than
  /// freezing its internal representation into the on-disk format).
  void EncodeTo(serialize::Encoder* enc) const;
  static Status DecodeFrom(serialize::Decoder* dec, LogTable* out);

 private:
  struct Key {
    std::string node_url;
    std::string query_key;
    uint32_t num_q;
    bool operator<(const Key& other) const {
      if (node_url != other.node_url) return node_url < other.node_url;
      if (query_key != other.query_key) return query_key < other.query_key;
      return num_q < other.num_q;
    }
  };

  // One (node, query, num_q) can hold several unrelated PREs. Each entry
  // carries its precomputed canonical form, so an arrival canonicalizes its
  // own PRE once and every logged comparison is string compares — the old
  // path re-canonicalized both sides per logged entry (asserted equivalent
  // in pre_test).
  struct LoggedPre {
    pre::Pre pre;
    pre::LogPreForm form;
  };
  /// Canonicalizes `pre` through the memo: the wire encoding is the memo
  /// key (deterministic and cheaper to produce than CanonicalKey +
  /// DecomposeStarPrefix), so clones of *different* queries sharing a PRE
  /// canonicalize it once per purge cycle.
  pre::LogPreForm CanonicalFormFor(const pre::Pre& pre);

  std::map<Key, std::vector<LoggedPre>> entries_;
  /// Bounded memo of PRE wire encoding -> canonical form; cleared wholesale
  /// past kFormMemoMax (PREs are tiny — the bound only guards pathology).
  static constexpr size_t kFormMemoMax = 4096;
  std::map<std::string, pre::LogPreForm> form_memo_;
  Stats stats_;
};

}  // namespace webdis::legacy_log

#endif  // WEBDIS_TESTS_LEGACY_LOG_TABLE_H_
