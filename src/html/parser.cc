#include "html/parser.h"

#include <array>
#include <cstdint>

#include "common/logging.h"
#include "common/strings.h"
#include "html/entities.h"
#include "html/tokenizer.h"

namespace webdis::html {

namespace {

/// An open container element awaiting its end tag.
struct OpenElement {
  Tag tag;
  uint32_t text_offset;  // size of the text buffer when opened
};

/// The text appended to `text` since `start`, trimmed. The buffer never
/// ends in a space and never holds two in a row (WhitespaceCollapser), so at
/// most one leading space — the collapsed whitespace just before the
/// element's first word — needs dropping.
std::string_view SpanSince(const std::string& text, uint32_t* start) {
  if (*start < text.size() && text[*start] == ' ') ++*start;
  return std::string_view(text).substr(*start);
}

void AddRelInfon(ParsedDocument* doc, Tag tag, uint32_t start) {
  const std::string_view body = SpanSince(doc->text, &start);
  if (body.empty()) return;
  doc->rel_infons.push_back(
      {TagName(tag), start, static_cast<uint32_t>(body.size())});
}

void AddAnchor(ParsedDocument* doc, std::string label, std::string_view href) {
  auto resolved = ResolveUrl(doc->url, href);
  // Unresolvable hrefs (e.g. "mailto:") are dropped: they are not part of
  // the paper's web graph model.
  if (!resolved.ok()) return;
  ParsedAnchor anchor;
  anchor.label = std::move(label);
  anchor.resolved = std::move(resolved).value();
  anchor.ltype = ClassifyLink(doc->url, anchor.resolved);
  doc->anchors.push_back(std::move(anchor));
}

}  // namespace

ParsedDocument ParseDocument(const Url& url, std::string_view html) {
  WEBDIS_CHECK(html.size() <= UINT32_MAX) << "page too large to parse";
  ParsedDocument doc;
  doc.url = url;
  doc.length = html.size();
  // Decoded, collapsed text never outgrows the markup it came from.
  doc.text.reserve(html.size());
  WhitespaceCollapser text(&doc.text);
  WhitespaceCollapser title(&doc.title);
  const auto text_size = [&doc] {
    return static_cast<uint32_t>(doc.text.size());
  };

  std::vector<OpenElement> open_stack;
  // Open elements per tag: an end tag with nothing open to match costs O(1)
  // rather than a scan of the whole stack, so parsing stays linear.
  std::array<uint32_t, kNumTags> open_count{};
  const auto count_of = [&open_count](Tag tag) -> uint32_t& {
    return open_count[static_cast<size_t>(tag)];
  };
  bool in_title = false;
  Tag skip = Tag::kOther;  // the <script>/<style> being skipped, if any
  bool in_anchor = false;
  std::string_view anchor_href;
  uint32_t anchor_start = 0;
  // Per-separator-tag mark of where the current block began. <br> does not
  // move the <hr> mark: the paper's hr rel-infon spans the visual block
  // above the rule, which may contain line breaks.
  uint32_t hr_mark = 0;
  uint32_t br_mark = 0;

  Tokenizer tokenizer(html);
  Token token;
  while (tokenizer.Next(&token)) {
    switch (token.kind) {
      case TokenKind::kText:
        if (skip != Tag::kOther) break;
        if (in_title) {
          DecodeEntitiesTo(token.text, title);
        } else {
          DecodeEntitiesTo(token.text, text);
        }
        break;
      case TokenKind::kStartTag: {
        const Tag tag = token.tag;
        if (skip != Tag::kOther) break;
        switch (tag) {
          case Tag::kScript:
          case Tag::kStyle:
            skip = tag;
            break;
          case Tag::kTitle:
            in_title = true;
            break;
          case Tag::kA: {
            const std::string_view href = token.Attr("href");
            if (!href.empty()) {
              in_anchor = true;
              anchor_href = href;
              anchor_start = text_size();
            }
            break;
          }
          // Frames and image-map areas hyperlink documents exactly like
          // anchors did in 1999-era sites; they enter the ANCHOR relation
          // with the tag name as label.
          case Tag::kFrame:
          case Tag::kIframe:
          case Tag::kArea: {
            const std::string_view href =
                token.Attr(tag == Tag::kArea ? "href" : "src");
            if (!href.empty()) {
              AddAnchor(&doc, "[" + std::string(TagName(tag)) + "]", href);
            }
            break;
          }
          case Tag::kHr:
          case Tag::kBr: {
            uint32_t& mark = tag == Tag::kHr ? hr_mark : br_mark;
            AddRelInfon(&doc, tag, mark);
            mark = text_size();
            break;
          }
          default:
            if (IsContainerTag(tag) && !token.self_closing) {
              open_stack.push_back({tag, text_size()});
              ++count_of(tag);
            }
            break;
        }
        break;
      }
      case TokenKind::kEndTag: {
        const Tag tag = token.tag;
        if (skip != Tag::kOther) {
          if (tag == skip) skip = Tag::kOther;
          break;
        }
        if (tag == Tag::kTitle) {
          in_title = false;
        } else if (tag == Tag::kA) {
          if (in_anchor) {
            in_anchor = false;
            AddAnchor(&doc, std::string(SpanSince(doc.text, &anchor_start)),
                      anchor_href);
          }
        } else if (IsContainerTag(tag) && count_of(tag) > 0) {
          // Pop to the innermost matching open element, discarding
          // mis-nested entries (tolerant recovery). Every element is
          // popped once, so the scans cost O(1) amortized.
          size_t match = open_stack.size() - 1;
          while (open_stack[match].tag != tag) --match;
          AddRelInfon(&doc, tag, open_stack[match].text_offset);
          for (size_t i = match; i < open_stack.size(); ++i) {
            --count_of(open_stack[i].tag);
          }
          open_stack.resize(match);
        }
        break;
      }
      case TokenKind::kComment:
      case TokenKind::kDoctype:
        break;
    }
  }
  doc.text.shrink_to_fit();
  return doc;
}

}  // namespace webdis::html
