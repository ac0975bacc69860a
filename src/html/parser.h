#ifndef WEBDIS_HTML_PARSER_H_
#define WEBDIS_HTML_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "html/url.h"

namespace webdis::html {

/// One hyperlink extracted from a document: the source of a row in the
/// paper's ANCHOR(label, base, href, ltype) virtual relation.
struct ParsedAnchor {
  std::string label;   // hypertext between <a> and </a>, entity-decoded
  Url resolved;        // href resolved against the document URL
  LinkType ltype = LinkType::kGlobal;
};

/// One rel-infon (Section 2.2): a homogeneous region of a document delimited
/// by tag information, e.g. the text inside <b>...</b>, or — for separator
/// tags such as <hr> — the text block preceding the separator.
///
/// A rel-infon's text is always a substring of its document's visible text,
/// so it is stored as a span of ParsedDocument::text rather than a copy; read
/// it with ParsedDocument::RelInfonText. Offsets (not views) keep the span
/// valid when the document is copied or moved.
struct ParsedRelInfon {
  std::string_view delimiter;  // lower-case tag name ("b", "hr", "h1", ...),
                               // a view into the static tag table (TagName)
  uint32_t offset = 0;         // span of ParsedDocument::text: entity-
  uint32_t size = 0;           // decoded, whitespace-collapsed, non-empty
};

/// Complete parse of one HTML document: everything the DatabaseConstructor
/// needs to materialize the DOCUMENT / ANCHOR / RELINFON virtual relations.
struct ParsedDocument {
  Url url;
  std::string title;               // <title> content
  std::string text;                // visible text, whitespace-collapsed;
                                   // held at exact size
  uint64_t length = 0;             // raw HTML byte count
  std::vector<ParsedAnchor> anchors;
  std::vector<ParsedRelInfon> rel_infons;

  std::string_view RelInfonText(const ParsedRelInfon& r) const {
    return std::string_view(text).substr(r.offset, r.size);
  }
};

/// Parses `html` as the contents of the resource at `url`. Tolerant: never
/// fails on malformed HTML (unclosed tags, bad nesting, unterminated
/// comments); the result is simply the best-effort extraction.
///
/// Rel-infon rules:
///  * container tags (b, i, em, strong, h1..h6, p, li, td, th, pre, center,
///    font, blockquote): the enclosed text is one rel-infon per element;
///  * separator tags (hr, br): the text accumulated since the previous
///    same-tag separator (or document start) is the rel-infon — this is what
///    makes the paper's "convener succeeded by a horizontal line" query work.
///
/// One pass: tokens are pulled from a Tokenizer as views of `html`, decoded
/// text is appended once through a WhitespaceCollapser into
/// ParsedDocument::text, and each rel-infon is recorded as a trimmed span of
/// that buffer when its element closes. Inputs of 4 GiB or more abort.
ParsedDocument ParseDocument(const Url& url, std::string_view html);

}  // namespace webdis::html

#endif  // WEBDIS_HTML_PARSER_H_
