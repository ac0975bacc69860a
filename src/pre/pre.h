#ifndef WEBDIS_PRE_PRE_H_
#define WEBDIS_PRE_PRE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "html/url.h"

namespace webdis::serialize {
class Encoder;
class Decoder;
}  // namespace webdis::serialize

namespace webdis::pre {

using html::LinkType;

/// AST node kinds for Path Regular Expressions (Section 2: symbols I/L/G/N,
/// operators concatenation `·`, alternation `|`, bounded repetition `*k`).
/// kEmpty is the zero-length path ε; kNever is the empty language ∅ (arises
/// only from derivatives of dead branches).
enum class PreKind : uint8_t {
  kEmpty = 0,
  kNever = 1,
  kLink = 2,
  kConcat = 3,
  kAlt = 4,
  kRepeat = 5,
};

/// A Path Regular Expression — an immutable value type (cheap to copy: the
/// tree is shared). All operations the WEBDIS protocol needs are here:
///
///  * `ContainsNull()`  — does the PRE admit the zero-length path? If so the
///    node-query is evaluated at the current node (the node is a
///    ServerRouter for this hop, else a PureRouter).
///  * `FirstLinks()`    — which link types should the query be forwarded on.
///  * `Derive(l)`       — rem(p) after traversing one link of type l
///    (Brzozowski derivative, algebraically simplified).
///  * `DecomposeStarPrefix()` / `MultipleRewriteOnce()` — the log-table
///    machinery of Section 3.1.1 for `A*m·B` superset detection and the
///    query-multiple-rewrite `A*m·B → A·A*(m-1)·B`.
///
/// Repetition `A*k` matches 0..k copies of A; `A*` (no bound) matches 0..∞.
class Pre {
 public:
  /// Default-constructed PRE is ε (zero-length path).
  Pre();

  // -- Constructors --------------------------------------------------------
  static Pre Empty();
  static Pre Never();
  static Pre Link(LinkType type);
  /// Concatenation p1·p2 (flattens, drops ε, absorbs ∅).
  static Pre Concat(const Pre& a, const Pre& b);
  static Pre ConcatAll(const std::vector<Pre>& parts);
  /// Alternation p1|p2 (flattens, drops ∅, dedupes).
  static Pre Alt(const Pre& a, const Pre& b);
  static Pre AltAll(const std::vector<Pre>& parts);
  /// Bounded repetition a*max (0..max copies).
  static Pre Repeat(const Pre& a, uint32_t max);
  /// Unbounded repetition a* (0..∞ copies).
  static Pre RepeatUnbounded(const Pre& a);

  /// Parses PRE syntax: `N | G·(L*4)`, `G.(G|L)`, `L*`, ... Both the paper's
  /// `·` (U+00B7) and ASCII `.` are accepted as concatenation. Input that
  /// nests parentheses deeper than serialize::kMaxTreeDepth, or builds a
  /// PRE that fails CheckEncodable, is InvalidArgument.
  static Result<Pre> Parse(std::string_view text);

  /// The most operands one concatenation or alternation may have on the
  /// wire.
  static constexpr uint64_t kMaxOperands = 1024;

  /// InvalidArgument unless DecodeFrom accepts this PRE's encoding: no node
  /// more than serialize::kMaxTreeDepth levels below the root and no
  /// concatenation or alternation of more than kMaxOperands operands. The
  /// parsers check each node as they build it, so no parsed tree is deeper.
  Status CheckEncodable() const;

  // -- Inspection ----------------------------------------------------------
  PreKind kind() const;
  bool IsEmpty() const { return kind() == PreKind::kEmpty; }
  bool IsNever() const { return kind() == PreKind::kNever; }

  /// True iff the zero-length path is in the language ("the PRE contains a
  /// null link" in the paper's phrasing). ε, N, and any `*` are nullable.
  bool ContainsNull() const;

  /// Link types on which the language has a continuation (the derivative is
  /// not ∅): the subset of a node's out-links the query is forwarded on.
  /// Never includes kNull.
  std::vector<LinkType> FirstLinks() const;

  /// Brzozowski derivative: the remaining PRE after traversing one link of
  /// type `type`. Returns Never() if no path starts with that link type.
  Pre Derive(LinkType type) const;

  /// True iff the exact sequence of link types is in the language.
  bool Matches(const std::vector<LinkType>& path) const;

  /// All paths (link-type sequences) of length <= max_len in the language,
  /// in shortlex order. For testing and for the data-shipping baseline's
  /// local traversal. Caps output at `limit` paths.
  std::vector<std::vector<LinkType>> EnumeratePaths(size_t max_len,
                                                    size_t limit = 100000)
      const;

  // -- Log-table support (Section 3.1.1) -----------------------------------

  /// Attempts to view this PRE as `(A*m)·B` with A a single link symbol
  /// (see StarPrefix below; a bare `A*m` decomposes with rest = ε).
  /// Returns false if the PRE does not have that shape.
  bool DecomposeStarPrefix(struct StarPrefix* out) const;

  /// The paper's query-multiple-rewrite: `A*m·B → A·(A*(m-1))·B`. For the
  /// unbounded `A*·B` the result is `A·A*·B`. Precondition: this PRE
  /// decomposes to a star prefix with bound >= 1 (or unbounded).
  Pre MultipleRewriteOnce() const;

  /// Structural equivalence under canonicalization (alternation is compared
  /// order-insensitively). This is the log-table "completely identical"
  /// test; it is NOT full language equivalence.
  bool Equals(const Pre& other) const;

  /// Canonical key string: equal keys <=> Equals(). Usable as a map key.
  std::string CanonicalKey() const;

  // -- Misc ----------------------------------------------------------------

  /// Round-trippable rendering using ASCII '.', '|', '*', parentheses.
  std::string ToString() const;

  void EncodeTo(serialize::Encoder* enc) const;
  static Result<Pre> DecodeFrom(serialize::Decoder* dec);

  bool operator==(const Pre& other) const { return Equals(other); }

 private:
  struct Node;
  using NodeRef = std::shared_ptr<const Node>;

  explicit Pre(NodeRef node);

  /// CheckEncodable for a node `depth` levels below the root.
  Status CheckEncodableAt(int depth) const;

  NodeRef node_;
};

/// The `(A*m)·B` shape the paper's log-table equivalence rules operate on.
/// `bound` is m; `unbounded` means `A*`; `rest` is B (possibly ε).
struct StarPrefix {
  LinkType link = LinkType::kLocal;
  uint32_t bound = 0;
  bool unbounded = false;
  Pre rest;
};

}  // namespace webdis::pre

#endif  // WEBDIS_PRE_PRE_H_
