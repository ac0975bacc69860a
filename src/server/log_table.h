#ifndef WEBDIS_SERVER_LOG_TABLE_H_
#define WEBDIS_SERVER_LOG_TABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "pre/log_equivalence.h"
#include "query/web_query.h"

namespace webdis::server {

/// The Node-query Log Table of Section 3.1.1. Records, per (node URL, query
/// id, num_q), the remaining-PRE states of clones that have already visited,
/// and decides for each new arrival whether it is a duplicate (purge), a
/// strict superset (replace the entry and continue with the multiple-rewrite
/// PRE), or unrelated (log it and process normally).
///
/// An entry holds no strings of its own: node URLs and query keys are
/// interned once per table, and each logged (Pre, LogPreForm) pair is shared
/// with the form memo and with every other entry logging the same PRE.
class LogTable {
 public:
  LogTable() = default;
  /// A copy interns its own keys (the snapshot path copies the table); the
  /// immutable PRE forms stay shared.
  LogTable(const LogTable& other);
  LogTable& operator=(const LogTable& other);
  LogTable(LogTable&&) = default;
  LogTable& operator=(LogTable&&) = default;

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
    node_urls_.clear();
    query_keys_.clear();
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
  /// freezing its internal representation into the on-disk format). Loading
  /// leaves the form memo and the stats as they were.
  void EncodeTo(serialize::Encoder* enc) const;
  static Status DecodeFrom(serialize::Decoder* dec, LogTable* out);

 private:
  // One (node, query, num_q) can hold several unrelated PREs. Each entry
  // points at a precomputed canonical form, so an arrival canonicalizes its
  // own PRE once and every logged comparison is string compares — the old
  // path re-canonicalized both sides per logged entry (asserted equivalent
  // in pre_test). The pair is immutable and shared: a superset rewrite
  // repoints the entry, and a memo clear leaves the entries' forms alive.
  struct LoggedPre {
    pre::Pre pre;
    pre::LogPreForm form;
  };
  using SharedPre = std::shared_ptr<const LoggedPre>;

  /// Interned views: `node_url` into node_urls_, `query_key` into
  /// query_keys_. Ordered by the strings, as the copy-per-entry key was, so
  /// iteration and EncodeTo bytes are unchanged.
  struct Key {
    const std::string* node_url;
    const std::string* query_key;
    uint32_t num_q;
  };
  /// A lookup key over the caller's strings (no interning on a hit).
  struct KeyView {
    std::string_view node_url;
    std::string_view query_key;
    uint32_t num_q;
  };
  struct KeyLess {
    using is_transparent = void;
    using Tuple = std::tuple<std::string_view, std::string_view, uint32_t>;
    static Tuple Tie(const Key& k) {
      return {*k.node_url, *k.query_key, k.num_q};
    }
    static Tuple Tie(const KeyView& k) {
      return {k.node_url, k.query_key, k.num_q};
    }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return Tie(a) < Tie(b);
    }
  };
  /// Interning pool: a node-based set, so the strings never move.
  using Pool = std::set<std::string, std::less<>>;
  static const std::string* Intern(Pool* pool, std::string_view s);

  /// The PRE list of (node_url, query_key, num_q), created empty on first
  /// use.
  std::vector<SharedPre>& Group(std::string_view node_url,
                                std::string_view query_key, uint32_t num_q);

  /// Canonicalizes `pre` through the memo: the wire encoding is the memo
  /// key (deterministic and cheaper to produce than CanonicalKey +
  /// DecomposeStarPrefix), so clones of *different* queries sharing a PRE
  /// canonicalize it once per purge cycle.
  SharedPre CanonicalFormFor(const pre::Pre& pre);

  // Declared before entries_, which points into them. Node URLs and query
  // keys pool apart so PurgeQuery can drop its key without touching a node.
  Pool node_urls_;
  Pool query_keys_;
  std::map<Key, std::vector<SharedPre>, KeyLess> entries_;
  /// Bounded memo of PRE wire encoding -> shared (Pre, form) pair; cleared
  /// wholesale past kFormMemoMax (PREs are tiny — the bound only guards
  /// pathology). The only store of the pairs besides the entries using them.
  static constexpr size_t kFormMemoMax = 4096;
  std::map<std::string, SharedPre> form_memo_;
  Stats stats_;
};

}  // namespace webdis::server

#endif  // WEBDIS_SERVER_LOG_TABLE_H_
