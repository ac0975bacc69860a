#ifndef WEBDIS_TESTS_LEGACY_PARSER_H_
#define WEBDIS_TESTS_LEGACY_PARSER_H_

// Test-only differential oracle: the token-vector, copy-per-rel-infon page
// parser that html::ParseDocument replaced, kept verbatim (tokenizer,
// entity decoder and whitespace collapse included) so the single-pass parser
// can be checked field by field against it. Not part of the library.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "html/parser.h"
#include "html/url.h"

namespace webdis::legacy_html {

struct ParsedAnchor {
  std::string label;
  std::string href;
  html::Url resolved;
  html::LinkType ltype = html::LinkType::kGlobal;
};

struct ParsedRelInfon {
  std::string delimiter;
  std::string text;
};

struct ParsedDocument {
  html::Url url;
  std::string title;
  std::string text;
  uint64_t length = 0;
  std::vector<ParsedAnchor> anchors;
  std::vector<ParsedRelInfon> rel_infons;
};

ParsedDocument ParseDocument(const html::Url& url, std::string_view html);

/// Checks `doc` — html::ParseDocument's result for `html` — against the
/// legacy parse of the same bytes, field by field: title, text, length,
/// anchors (label, resolved URL, link type) and each rel-infon's delimiter
/// and text. Also checks every rel-infon span lies inside `doc.text` and
/// starts and ends on a non-space byte. Returns a description of the first
/// violation, or an empty string when the parses agree.
std::string DiffAgainstLegacy(const html::ParsedDocument& doc,
                              std::string_view html);

/// Hand-written inputs for the tolerant corners of the grammar: mis-nested
/// and unclosed containers, script/style, entities, whitespace-only blocks,
/// consecutive separators, "</ junk>", unterminated tags and comments,
/// non-ASCII bytes. Shared by html_test and the fuzz_html seed corpus.
std::span<const char* const> HtmlEdgeCases();

}  // namespace webdis::legacy_html

#endif  // WEBDIS_TESTS_LEGACY_PARSER_H_
