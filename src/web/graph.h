#ifndef WEBDIS_WEB_GRAPH_H_
#define WEBDIS_WEB_GRAPH_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "html/parser.h"

namespace webdis::web {

/// The simulated Web: a set of HTML resources keyed by URL, partitioned
/// across hosts (sites). This substitutes for the live campus web the paper
/// evaluated on — all protocol behaviour depends only on the hyperlink graph
/// and document contents, which this class controls deterministically.
///
/// Memory representation (DESIGN.md §8 "Web scale and memory"): URL keys
/// and host names live once in arena-backed string-interning pools; a key's
/// interned id is its document's slot in the table, and the per-host index
/// lists slot ids, so no table holds a `std::string` copy and only the
/// interner indexes keys. Enumerations sort on demand. Documents may be
/// *lazy*: added as (url, generator-aux) pairs and rendered — HTML
/// generated and parsed — on lookup. A lazy page lives for one visit, like
/// a node's virtual relations (§2.4): it is rendered into the graph's one
/// slot, which the next lookup of a different lazy document overwrites.
/// Rendering is deterministic, so a lazy web behaves byte-identically to an
/// eager one while holding 10⁵–10⁶ documents in tens of bytes each plus one
/// rendered page. Eager and edited documents own their bodies.
class WebGraph {
 public:
  /// One web resource (Node in the paper's model).
  struct Document {
    html::Url url;
    std::string raw_html;         // held at exact size, like parsed.text
    html::ParsedDocument parsed;  // parsed once, with the body
    /// Monotonic edit counter, bumped by UpdateDocument. The cross-query
    /// result cache (PROTOCOL.md §9.1) keys on it: a cached node-query
    /// result is valid only for the exact version it was computed against.
    uint64_t version = 1;
    /// §10.3: the web epoch this document first existed in. Documents
    /// present at construction carry epoch 1; spawned documents carry the
    /// epoch current at spawn time, so servers can hide them from queries
    /// pinned to an earlier epoch.
    uint64_t born_epoch = 1;
  };

  /// Renders the HTML body of a lazy document whenever a lookup needs it
  /// (again after the slot moved on, so it must be pure). `key` is the
  /// document's resource key; the two aux words are whatever the registrar
  /// stashed in AddLazyDocument (web/synth.cc stores captured RNG states,
  /// so regeneration replays the exact draws of an eager build).
  using PageGenerator = std::function<std::string(
      std::string_view key, uint64_t aux0, uint64_t aux1)>;

  WebGraph() = default;
  // Moves steal the deque nodes and arena chunks whole, so entry addresses
  // and interned views survive a move intact.
  WebGraph(WebGraph&&) = default;
  WebGraph& operator=(WebGraph&&) = default;
  WebGraph(const WebGraph&) = delete;
  WebGraph& operator=(const WebGraph&) = delete;
  ~WebGraph() = default;

  /// Parses and stores a document eagerly. Fails on an unparsable URL or
  /// duplicate resource.
  Status AddDocument(std::string_view url, std::string html);

  /// Installs the generator lazy documents render through. Must be set
  /// before the first lazy Find; one function serves the whole graph (per-
  /// document state rides in the aux words, keeping entries compact).
  void SetPageGenerator(PageGenerator generator);

  /// Registers a document whose HTML is produced by the page generator when
  /// it is looked up. Fails on an unparsable URL or duplicate resource.
  Status AddLazyDocument(std::string_view url, uint64_t aux0, uint64_t aux1);

  /// Replaces an existing document's contents, re-parses, and bumps its
  /// version stamp. A lazy document takes over its rendered body from the
  /// slot (or starts a fresh one) and owns it from then on. Fails if the
  /// URL names no stored resource.
  Status UpdateDocument(std::string_view url, std::string html);

  /// §10: removes one document for good. Fails if the URL names no stored
  /// resource. Later Finds return nullptr — from a query's view the node
  /// is superseded.
  Status RemoveDocument(std::string_view url);

  /// §10.2: retires a whole site — removes every document on `host` and
  /// records the host as permanently gone (HostRetired distinguishes "never
  /// existed" from "retired mid-run" for verdict classification). Fails if
  /// the host has no documents and was not previously retired.
  Status RetireHost(std::string_view host);

  /// True if RetireHost(host) ran.
  bool HostRetired(std::string_view host) const;

  /// §10.1: the current web epoch, starting at 1 for the frozen pre-churn
  /// web. A MutationPlan bumps it once per applied mutation batch; queries
  /// submitted under epoch E pin E and never see documents born later.
  uint64_t epoch() const { return epoch_; }

  /// Advances the epoch by one and returns the new value.
  uint64_t AdvanceEpoch() { return ++epoch_; }

  /// §10.4 oracle support: when enabled, every document body is recorded
  /// per (resource key, version) — including versions later overwritten or
  /// removed — so a test oracle can re-evaluate a node exactly as it stood
  /// at a report's stamped version. Off by default (benches pay nothing).
  /// Renders every lazy document (history needs the bodies), so enable
  /// it only on oracle-scale webs.
  void EnableHistory();

  /// The recorded body for (url, version), or nullptr when history is off
  /// or the pair was never recorded.
  const std::string* HistoricalHtml(std::string_view url,
                                    uint64_t version) const;

  /// Looks up by resource key (URL without fragment); nullptr if absent.
  ///
  /// Pointer contract: an eager or edited document owns its body, and the
  /// pointer stays valid until that document is removed. A lazy, never-
  /// edited document is rendered into the graph's one slot; its pointer
  /// stays valid only until the next lookup that renders a different lazy
  /// document (Find, or the whole-web walks TotalHtmlBytes and
  /// EnableHistory) or until it is removed. A repeat Find of the slot's
  /// document returns the same pointer without rendering again, and
  /// UpdateDocument keeps it valid (the edit takes the slot's body over).
  /// Use the pointer before the next lookup. A lazy lookup writes the
  /// slot, so concurrent Finds on a lazy web race.
  const Document* Find(std::string_view url) const;

  /// The document's version stamp without rendering it: 0 if absent, the
  /// owned body's version for an eager or edited document, and 1 for a
  /// lazy, never-edited one.
  uint64_t VersionOf(std::string_view url) const;

  /// True if the URL names a stored resource. Never renders.
  bool Has(std::string_view url) const;

  /// All resource keys in insertion-independent (sorted) order.
  std::vector<std::string> AllUrls() const;

  /// All hosts, sorted.
  std::vector<std::string> Hosts() const;

  /// Resource keys of documents on one host, sorted. Served from the
  /// per-host index: O(k log k) for k documents, never a full-table scan.
  std::vector<std::string> UrlsOnHost(std::string_view host) const;

  size_t num_documents() const { return live_count_; }

  /// Live documents whose HTML has been rendered at least once: eager adds,
  /// edits and lazy first renders. A lazy page rendered again after the slot
  /// moved on is not counted twice — this counts distinct pages fetched,
  /// not bodies held (at most one lazy body is held at a time).
  size_t num_materialized() const { return materialized_; }

  /// Sum of raw HTML sizes — what a data-shipping engine would download in
  /// the worst case. Renders every lazy document in turn; meaningful on
  /// baseline-scale webs only.
  size_t TotalHtmlBytes() const;

  /// Approximate resident footprint of the table machinery itself (interner
  /// arena, document entries, index nodes) — excludes document
  /// bodies. The numerator of the at-rest bytes-per-document bench gate.
  size_t ApproxTableBytes() const;

 private:
  /// Table slot: everything the graph knows about a document besides a
  /// rendered lazy body. Its resource key is implicit: the slot number is
  /// the key's id in `keys_`. A removed document leaves a tombstone
  /// (live=false) that re-adding the same URL revives.
  struct DocEntry {
    uint32_t host_id = common::StringInterner::kInvalidId;  // in hosts_
    bool live = false;
    /// Counted in num_materialized(): the body was given (eager add, edit)
    /// or rendered at least once. Mutable: a const Find renders.
    mutable bool rendered = false;
    uint64_t born_epoch = 1;
    uint64_t aux0 = 0;  // PageGenerator parameters (lazy entries)
    uint64_t aux1 = 0;
    /// Owned body of an eager or edited document; null while the document
    /// is lazy (its body, if rendered, is in `slot_`).
    std::unique_ptr<Document> doc;
  };

  /// Per-host index slot, addressed by the host's id in `hosts_`.
  struct HostSlot {
    std::vector<uint32_t> entries;  // live entry ids, unordered
    bool retired = false;
  };

  /// Common head of AddDocument / AddLazyDocument: parses the URL (into
  /// `parsed_out`), interns the key/host, fills (or revives) the key's
  /// slot, and files it under its host. Returns the entry's id.
  Result<uint32_t> AddEntry(std::string_view url, html::Url* parsed_out);
  /// Counts `entry` in num_materialized() the first time it has a body.
  void CountRendered(const DocEntry& entry) const;
  /// A body-less Document for entry `id`: its URL and birth epoch.
  std::unique_ptr<Document> NewDocument(uint32_t id) const;
  /// The entry's Document: its owned body, or the slot, rendered into
  /// first unless it already holds `id`.
  const Document* Materialize(uint32_t id) const;
  /// The live entry id for a resource key; kInvalidId if absent.
  uint32_t IdForKey(std::string_view key) const;
  /// The live entry id a URL names; kInvalidId if absent or unparsable.
  uint32_t IdFor(std::string_view url) const;
  /// `ids` sorted by resource key: the order every enumeration returns.
  std::vector<uint32_t> SortedIds(std::vector<uint32_t> ids) const;
  /// Unlinks one entry from its host and tombstones it.
  void EraseEntry(uint32_t id);

  // -- arena-backed document tables ------------------------------------
  // webdis-lint: interned-tables-begin
  // One index: `keys_` maps a resource key to its id, and that id is the
  // entry's slot. Hosts are interned separately so host ids are dense
  // too. No std::string copies (enforced by the web-interned-tables lint
  // rule).
  common::StringInterner keys_;
  common::StringInterner hosts_;
  std::deque<DocEntry> entries_;      // entries_[key id]
  std::vector<HostSlot> host_slots_;  // host_slots_[host id]
  // webdis-lint: interned-tables-end
  size_t live_count_ = 0;
  mutable size_t materialized_ = 0;
  /// The one rendered lazy body and the entry it belongs to (kInvalidId
  /// when empty). Mutable: a const Find renders into it.
  mutable std::unique_ptr<Document> slot_;
  mutable uint32_t slot_id_ = common::StringInterner::kInvalidId;
  PageGenerator generator_;
  uint64_t epoch_ = 1;
  bool history_enabled_ = false;
  /// Opt-in oracle storage (tests only — full bodies by design, exempt from
  /// the interned-tables rule).
  std::map<std::pair<std::string, uint64_t>, std::string> history_;
};

}  // namespace webdis::web

#endif  // WEBDIS_WEB_GRAPH_H_
