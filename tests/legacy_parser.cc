#include "tests/legacy_parser.h"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <sstream>

namespace webdis::legacy_html {

using html::ClassifyLink;
using html::ResolveUrl;

namespace {

// -- strings ----------------------------------------------------------------

std::string ToLower(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

std::string CollapseWhitespace(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  bool in_space = true;  // drop leading whitespace
  for (char c : s) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      if (!in_space) out.push_back(' ');
      in_space = true;
    } else {
      out.push_back(c);
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

// -- entities ---------------------------------------------------------------

struct NamedEntity {
  const char* name;
  char value;
};

constexpr NamedEntity kEntities[] = {
    {"amp", '&'}, {"lt", '<'},   {"gt", '>'},
    {"quot", '"'}, {"apos", '\''}, {"nbsp", ' '},
};

std::string DecodeEntities(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = 0;
  while (i < s.size()) {
    if (s[i] != '&') {
      out.push_back(s[i++]);
      continue;
    }
    const size_t semi = s.find(';', i + 1);
    if (semi == std::string_view::npos || semi - i > 10) {
      out.push_back(s[i++]);
      continue;
    }
    const std::string_view body = s.substr(i + 1, semi - i - 1);
    bool decoded = false;
    if (!body.empty() && body[0] == '#') {
      uint32_t code = 0;
      bool valid = body.size() > 1;
      for (size_t j = 1; j < body.size(); ++j) {
        if (!std::isdigit(static_cast<unsigned char>(body[j]))) {
          valid = false;
          break;
        }
        code = code * 10 + static_cast<uint32_t>(body[j] - '0');
        if (code > 0x10FFFF) {
          valid = false;
          break;
        }
      }
      if (valid && code > 0 && code < 128) {
        out.push_back(static_cast<char>(code));
        decoded = true;
      } else if (valid) {
        out.push_back('?');  // non-ASCII: placeholder, like 1990s terminals
        decoded = true;
      }
    } else {
      for (const NamedEntity& e : kEntities) {
        if (body == e.name) {
          out.push_back(e.value);
          decoded = true;
          break;
        }
      }
    }
    if (decoded) {
      i = semi + 1;
    } else {
      out.push_back(s[i++]);
    }
  }
  return out;
}

// -- tokenizer --------------------------------------------------------------

enum class TokenKind : uint8_t {
  kText,
  kStartTag,
  kEndTag,
  kComment,
  kDoctype,
};

struct Attribute {
  std::string name;
  std::string value;
};

struct Token {
  TokenKind kind = TokenKind::kText;
  std::string text;
  std::vector<Attribute> attributes;
  bool self_closing = false;

  std::string_view Attr(std::string_view name) const;
};

std::string_view Token::Attr(std::string_view name) const {
  for (const Attribute& a : attributes) {
    if (a.name == name) return a.value;
  }
  return {};
}

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_';
}

void ParseAttributes(std::string_view s, Token* token) {
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i >= s.size()) break;
    if (s[i] == '/') {
      token->self_closing = true;
      ++i;
      continue;
    }
    // Attribute name.
    const size_t name_start = i;
    while (i < s.size() && IsNameChar(s[i])) ++i;
    if (i == name_start) {
      ++i;  // skip junk byte
      continue;
    }
    Attribute attr;
    attr.name = ToLower(s.substr(name_start, i - name_start));
    while (i < s.size() &&
           std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i < s.size() && s[i] == '=') {
      ++i;
      while (i < s.size() &&
             std::isspace(static_cast<unsigned char>(s[i]))) {
        ++i;
      }
      if (i < s.size() && (s[i] == '"' || s[i] == '\'')) {
        const char quote = s[i++];
        const size_t val_start = i;
        while (i < s.size() && s[i] != quote) ++i;
        attr.value = std::string(s.substr(val_start, i - val_start));
        if (i < s.size()) ++i;  // closing quote
      } else {
        const size_t val_start = i;
        while (i < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[i])) &&
               s[i] != '/') {
          ++i;
        }
        attr.value = std::string(s.substr(val_start, i - val_start));
      }
    }
    token->attributes.push_back(std::move(attr));
  }
}

std::vector<Token> Tokenize(std::string_view html) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < html.size()) {
    if (html[i] != '<') {
      const size_t start = i;
      while (i < html.size() && html[i] != '<') ++i;
      Token t;
      t.kind = TokenKind::kText;
      t.text = std::string(html.substr(start, i - start));
      tokens.push_back(std::move(t));
      continue;
    }
    // Comment.
    if (html.substr(i).starts_with("<!--")) {
      const size_t end = html.find("-->", i + 4);
      Token t;
      t.kind = TokenKind::kComment;
      if (end == std::string_view::npos) {
        t.text = std::string(html.substr(i + 4));
        i = html.size();
      } else {
        t.text = std::string(html.substr(i + 4, end - i - 4));
        i = end + 3;
      }
      tokens.push_back(std::move(t));
      continue;
    }
    // Declaration (<!DOCTYPE ...>).
    if (i + 1 < html.size() && html[i + 1] == '!') {
      const size_t end = html.find('>', i);
      Token t;
      t.kind = TokenKind::kDoctype;
      if (end == std::string_view::npos) {
        t.text = std::string(html.substr(i + 2));
        i = html.size();
      } else {
        t.text = std::string(html.substr(i + 2, end - i - 2));
        i = end + 1;
      }
      tokens.push_back(std::move(t));
      continue;
    }
    const size_t end = html.find('>', i);
    if (end == std::string_view::npos) {
      // Unterminated tag: emit the rest as text.
      Token t;
      t.kind = TokenKind::kText;
      t.text = std::string(html.substr(i));
      tokens.push_back(std::move(t));
      break;
    }
    std::string_view inside = html.substr(i + 1, end - i - 1);
    i = end + 1;
    const bool is_end = !inside.empty() && inside[0] == '/';
    if (is_end) inside = inside.substr(1);
    // Tag name.
    size_t j = 0;
    while (j < inside.size() && IsNameChar(inside[j])) ++j;
    if (j == 0) {
      // "<>" or "< junk": treat as literal text.
      Token t;
      t.kind = TokenKind::kText;
      t.text = "<" + std::string(inside) + ">";
      tokens.push_back(std::move(t));
      continue;
    }
    Token t;
    t.kind = is_end ? TokenKind::kEndTag : TokenKind::kStartTag;
    t.text = ToLower(inside.substr(0, j));
    if (!is_end) {
      ParseAttributes(inside.substr(j), &t);
    }
    tokens.push_back(std::move(t));
  }
  return tokens;
}

// -- parser -----------------------------------------------------------------

constexpr std::string_view kContainerTags[] = {
    "b", "i", "em", "strong", "h1", "h2", "h3", "h4", "h5", "h6",
    "p", "li", "td", "th", "pre", "center", "font", "blockquote",
};

constexpr std::string_view kSeparatorTags[] = {"hr", "br"};

bool IsContainerTag(std::string_view name) {
  return std::find(std::begin(kContainerTags), std::end(kContainerTags),
                   name) != std::end(kContainerTags);
}

bool IsSeparatorTag(std::string_view name) {
  return std::find(std::begin(kSeparatorTags), std::end(kSeparatorTags),
                   name) != std::end(kSeparatorTags);
}

/// An open container element awaiting its end tag.
struct OpenElement {
  std::string tag;
  size_t text_offset;  // offset into the raw text accumulator when opened
};

}  // namespace

ParsedDocument ParseDocument(const html::Url& url, std::string_view html) {
  ParsedDocument doc;
  doc.url = url;
  doc.length = html.size();

  const std::vector<Token> tokens = Tokenize(html);

  std::string text;             // raw visible text accumulator
  std::vector<OpenElement> open_stack;
  bool in_title = false;
  bool in_skip = false;         // inside <script>/<style>
  std::string skip_tag;
  bool in_anchor = false;
  ParsedAnchor current_anchor;
  std::string anchor_label;
  // Per-separator-tag mark of where the current block began.
  size_t hr_mark = 0;
  size_t br_mark = 0;

  for (const Token& token : tokens) {
    switch (token.kind) {
      case TokenKind::kText: {
        if (in_skip) break;
        if (in_title) {
          doc.title += DecodeEntities(token.text);
          break;
        }
        text += DecodeEntities(token.text);
        if (in_anchor) anchor_label += DecodeEntities(token.text);
        break;
      }
      case TokenKind::kStartTag: {
        const std::string& tag = token.text;
        if (in_skip) break;
        if (tag == "script" || tag == "style") {
          in_skip = true;
          skip_tag = tag;
          break;
        }
        if (tag == "title") {
          in_title = true;
          break;
        }
        if (tag == "a") {
          const std::string_view href = token.Attr("href");
          if (!href.empty()) {
            in_anchor = true;
            anchor_label.clear();
            current_anchor = ParsedAnchor();
            current_anchor.href = std::string(href);
          }
          break;
        }
        if (tag == "frame" || tag == "iframe" || tag == "area") {
          const std::string_view href =
              tag == "area" ? token.Attr("href") : token.Attr("src");
          if (!href.empty()) {
            ParsedAnchor anchor;
            anchor.href = std::string(href);
            anchor.label = "[" + tag + "]";
            auto resolved = ResolveUrl(url, anchor.href);
            if (resolved.ok()) {
              anchor.resolved = std::move(resolved).value();
              anchor.ltype = ClassifyLink(url, anchor.resolved);
              doc.anchors.push_back(std::move(anchor));
            }
          }
          break;
        }
        if (IsSeparatorTag(tag)) {
          size_t& mark = (tag == "hr") ? hr_mark : br_mark;
          const std::string block =
              CollapseWhitespace(std::string_view(text).substr(mark));
          if (!block.empty()) {
            doc.rel_infons.push_back({tag, block});
          }
          mark = text.size();
          break;
        }
        if (IsContainerTag(tag) && !token.self_closing) {
          open_stack.push_back({tag, text.size()});
        }
        break;
      }
      case TokenKind::kEndTag: {
        const std::string& tag = token.text;
        if (in_skip) {
          if (tag == skip_tag) in_skip = false;
          break;
        }
        if (tag == "title") {
          in_title = false;
          break;
        }
        if (tag == "a") {
          if (in_anchor) {
            in_anchor = false;
            current_anchor.label = CollapseWhitespace(anchor_label);
            auto resolved = ResolveUrl(url, current_anchor.href);
            if (resolved.ok()) {
              current_anchor.resolved = std::move(resolved).value();
              current_anchor.ltype =
                  ClassifyLink(url, current_anchor.resolved);
              doc.anchors.push_back(std::move(current_anchor));
            }
          }
          break;
        }
        if (IsContainerTag(tag)) {
          for (size_t i = open_stack.size(); i > 0; --i) {
            if (open_stack[i - 1].tag == tag) {
              const std::string body = CollapseWhitespace(
                  std::string_view(text).substr(open_stack[i - 1].text_offset));
              if (!body.empty()) {
                doc.rel_infons.push_back({tag, body});
              }
              open_stack.erase(open_stack.begin() +
                                   static_cast<std::ptrdiff_t>(i - 1),
                               open_stack.end());
              break;
            }
          }
        }
        break;
      }
      case TokenKind::kComment:
      case TokenKind::kDoctype:
        break;
    }
  }

  doc.title = CollapseWhitespace(doc.title);
  doc.text = CollapseWhitespace(text);
  return doc;
}

std::string DiffAgainstLegacy(const html::ParsedDocument& doc,
                              std::string_view html) {
  const ParsedDocument legacy = legacy_html::ParseDocument(doc.url, html);
  std::ostringstream out;
  auto quoted = [](std::string_view s) { return "\"" + std::string(s) + "\""; };
  if (doc.title != legacy.title) {
    out << "title " << quoted(doc.title) << " != " << quoted(legacy.title);
  } else if (doc.text != legacy.text) {
    out << "text " << quoted(doc.text) << " != " << quoted(legacy.text);
  } else if (doc.length != legacy.length) {
    out << "length " << doc.length << " != " << legacy.length;
  } else if (doc.anchors.size() != legacy.anchors.size()) {
    out << "anchor count " << doc.anchors.size()
        << " != " << legacy.anchors.size();
  } else if (doc.rel_infons.size() != legacy.rel_infons.size()) {
    out << "rel-infon count " << doc.rel_infons.size()
        << " != " << legacy.rel_infons.size();
  }
  if (!out.str().empty()) return out.str();
  for (size_t i = 0; i < doc.anchors.size(); ++i) {
    const html::ParsedAnchor& a = doc.anchors[i];
    const ParsedAnchor& b = legacy.anchors[i];
    if (a.label != b.label || a.resolved.ToString() != b.resolved.ToString() ||
        a.ltype != b.ltype) {
      out << "anchor " << i << ": " << quoted(a.label) << " "
          << a.resolved.ToString() << " " << html::LinkTypeSymbol(a.ltype)
          << " != " << quoted(b.label) << " " << b.resolved.ToString() << " "
          << html::LinkTypeSymbol(b.ltype);
      return out.str();
    }
  }
  for (size_t i = 0; i < doc.rel_infons.size(); ++i) {
    const html::ParsedRelInfon& r = doc.rel_infons[i];
    if (static_cast<uint64_t>(r.offset) + r.size > doc.text.size()) {
      out << "rel-infon " << i << " span [" << r.offset << ", +" << r.size
          << ") outside text of " << doc.text.size() << " bytes";
      return out.str();
    }
    const std::string_view text = doc.RelInfonText(r);
    if (text.empty() || text.front() == ' ' || text.back() == ' ') {
      out << "rel-infon " << i << " span " << quoted(text)
          << " is empty or starts or ends on a space";
      return out.str();
    }
    const ParsedRelInfon& legacy_r = legacy.rel_infons[i];
    if (r.delimiter != legacy_r.delimiter || text != legacy_r.text) {
      out << "rel-infon " << i << ": <" << r.delimiter << "> " << quoted(text)
          << " != <" << legacy_r.delimiter << "> " << quoted(legacy_r.text);
      return out.str();
    }
  }
  return {};
}

namespace {

const char* const kHtmlEdgeCases[] = {
    // mis-nested and unclosed containers
    "<b><i>both</b></i> rest",
    "<p>one<p>two<b>three</p>four",
    "<h1>never closed <em>nor this",
    "</b>stray end<b>x</i></b>",
    "<p> <b> </b> </p>",
    "<td>a<td>b</td></td></td>",
    // script / style
    "a<script>if (x < y) { document.write('<b>no</b>') }</script>b",
    "<STYLE>p { }</STYLE>c<script>unterminated <p>text",
    "<script>x</style>still skipped</script>shown",
    // entities
    "&nbsp;lead&nbsp;&nbsp;gap&nbsp;",
    "<b>&#65;&#0;&#200;&#x41;&#;&#1114112;&#9;tab</b>",
    "<p>&amp;&lt;&gt;&quot;&apos;&bogus;&amp</p>",
    "&verylongname;&a;<i>&#32;&#32;</i>",
    // whitespace-only blocks
    "<b>   </b><i>\t\n</i><p> \r\v\f </p>",
    "   <hr>  <hr>\n<br> <br>",
    // consecutive separators
    "a<hr><hr><hr>b<br><br>c<hr/><br/>",
    "<hr>first<br>line<br>two<hr>block",
    // </ junk> and friends
    "x</ junk>y",
    "</>a< >b<>c</ >d",
    "</&amp;>e",
    // unterminated tags and comments
    "text <a href=\"x\">label",
    "before <b",
    "<!-- never closed <b>bold</b>",
    "<!DOCTYPE html",
    "<a href=\"unterminated",
    // attributes, case and self-closing
    "<A HREF='Other'>Up</A><B>Bold</B><P/>after<b/>x</b>",
    "<a href=/x>slash</a><a href=y/>z</a>",
    "<frame src=\"f\"><IFRAME SRC=g></IFRAME><area href=\"#h\"><frame>",
    "<title> T &amp; <b>U</b> </title>body<title>again</title>",
    "<a href=\"one\"><a href=\"two\">in</a>out</a>",
    "<a href=\"mailto:x@y\">mail</a><a href=\"   \">blank</a>",
    "<font\tsize=2\n>f</font ><blockquote>q</BLOCKQUOTE>",
    // non-ASCII bytes are not whitespace
    "<b>\xc2\xa0nbsp\xc2\xa0</b><i>\x85</i><p>\xa0 x \xa0</p>",
    "",
};

}  // namespace

std::span<const char* const> HtmlEdgeCases() { return kHtmlEdgeCases; }

}  // namespace webdis::legacy_html
