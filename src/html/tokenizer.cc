#include "html/tokenizer.h"

#include "common/strings.h"

namespace webdis::html {

namespace {

struct TagEntry {
  std::string_view name;
  Tag tag;
};

constexpr TagEntry kTags[] = {
    {"b", Tag::kB},         {"i", Tag::kI},
    {"em", Tag::kEm},       {"strong", Tag::kStrong},
    {"h1", Tag::kH1},       {"h2", Tag::kH2},
    {"h3", Tag::kH3},       {"h4", Tag::kH4},
    {"h5", Tag::kH5},       {"h6", Tag::kH6},
    {"p", Tag::kP},         {"li", Tag::kLi},
    {"td", Tag::kTd},       {"th", Tag::kTh},
    {"pre", Tag::kPre},     {"center", Tag::kCenter},
    {"font", Tag::kFont},   {"blockquote", Tag::kBlockquote},
    {"hr", Tag::kHr},       {"br", Tag::kBr},
    {"a", Tag::kA},         {"frame", Tag::kFrame},
    {"iframe", Tag::kIframe}, {"area", Tag::kArea},
    {"title", Tag::kTitle}, {"script", Tag::kScript},
    {"style", Tag::kStyle},
};

constexpr size_t kMaxTagName = 10;  // "blockquote"

bool EqualsIgnoreCase(std::string_view a, std::string_view lower) {
  if (a.size() != lower.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (AsciiToLower(a[i]) != lower[i]) return false;
  }
  return true;
}

const TagEntry* FindTag(std::string_view name) {
  if (name.size() > kMaxTagName) return nullptr;
  for (const TagEntry& e : kTags) {
    if (EqualsIgnoreCase(name, e.name)) return &e;
  }
  return nullptr;
}

bool IsNameChar(char c) { return IsAsciiAlnum(c) || c == '-' || c == '_'; }

/// One step of the attribute grammar over the bytes after a tag name: a
/// name with an optional (quoted or bare) value, or a '/' at a name
/// position, which marks the tag self-closing. Junk bytes are skipped.
struct AttrStep {
  enum Kind { kEnd, kSlash, kAttribute } kind = kEnd;
  std::string_view name;
  std::string_view value;
};

AttrStep NextAttr(std::string_view s, size_t* pos) {
  size_t i = *pos;
  AttrStep step;
  while (true) {
    while (i < s.size() && IsAsciiSpace(s[i])) ++i;
    if (i >= s.size()) break;
    if (s[i] == '/') {
      step.kind = AttrStep::kSlash;
      ++i;
      break;
    }
    const size_t name_start = i;
    while (i < s.size() && IsNameChar(s[i])) ++i;
    if (i == name_start) {
      ++i;  // skip junk byte
      continue;
    }
    step.kind = AttrStep::kAttribute;
    step.name = s.substr(name_start, i - name_start);
    while (i < s.size() && IsAsciiSpace(s[i])) ++i;
    if (i < s.size() && s[i] == '=') {
      ++i;
      while (i < s.size() && IsAsciiSpace(s[i])) ++i;
      if (i < s.size() && (s[i] == '"' || s[i] == '\'')) {
        const char quote = s[i++];
        const size_t val_start = i;
        while (i < s.size() && s[i] != quote) ++i;
        step.value = s.substr(val_start, i - val_start);
        if (i < s.size()) ++i;  // closing quote
      } else {
        const size_t val_start = i;
        while (i < s.size() && !IsAsciiSpace(s[i]) && s[i] != '/') ++i;
        step.value = s.substr(val_start, i - val_start);
      }
    }
    break;
  }
  *pos = i;
  return step;
}

bool HasSelfClosingSlash(std::string_view attributes) {
  size_t pos = 0;
  for (AttrStep step = NextAttr(attributes, &pos); step.kind != AttrStep::kEnd;
       step = NextAttr(attributes, &pos)) {
    if (step.kind == AttrStep::kSlash) return true;
  }
  return false;
}

}  // namespace

std::string_view TagName(Tag tag) {
  for (const TagEntry& e : kTags) {
    if (e.tag == tag) return e.name;
  }
  return {};
}

bool IsContainerTag(Tag tag) {
  return tag >= Tag::kB && tag <= Tag::kBlockquote;
}

std::string_view Token::Attr(std::string_view name) const {
  size_t pos = 0;
  for (AttrStep step = NextAttr(attributes, &pos); step.kind != AttrStep::kEnd;
       step = NextAttr(attributes, &pos)) {
    if (step.kind == AttrStep::kAttribute && EqualsIgnoreCase(step.name, name)) {
      return step.value;
    }
  }
  return {};
}

bool Tokenizer::Next(Token* token) {
  *token = Token();
  if (!pending_text_.empty()) {
    token->text = pending_text_;
    pending_text_ = {};
    return true;
  }
  const std::string_view html = html_;
  size_t i = pos_;
  if (i >= html.size()) return false;
  if (html[i] != '<') {
    const size_t end = html.find('<', i);
    pos_ = end == std::string_view::npos ? html.size() : end;
    token->text = html.substr(i, pos_ - i);
    return true;
  }
  // Comment.
  if (html.substr(i).starts_with("<!--")) {
    const size_t end = html.find("-->", i + 4);
    token->kind = TokenKind::kComment;
    if (end == std::string_view::npos) {
      token->text = html.substr(i + 4);
      pos_ = html.size();
    } else {
      token->text = html.substr(i + 4, end - i - 4);
      pos_ = end + 3;
    }
    return true;
  }
  // Declaration (<!DOCTYPE ...>).
  if (i + 1 < html.size() && html[i + 1] == '!') {
    const size_t end = html.find('>', i);
    token->kind = TokenKind::kDoctype;
    if (end == std::string_view::npos) {
      token->text = html.substr(i + 2);
      pos_ = html.size();
    } else {
      token->text = html.substr(i + 2, end - i - 2);
      pos_ = end + 1;
    }
    return true;
  }
  const size_t end = html.find('>', i);
  if (end == std::string_view::npos) {
    // Unterminated tag: emit the rest as text.
    token->text = html.substr(i);
    pos_ = html.size();
    return true;
  }
  std::string_view inside = html.substr(i + 1, end - i - 1);
  pos_ = end + 1;
  const bool is_end = !inside.empty() && inside[0] == '/';
  if (is_end) inside = inside.substr(1);
  // Tag name.
  size_t j = 0;
  while (j < inside.size() && IsNameChar(inside[j])) ++j;
  if (j == 0) {
    // "<>" or "< junk": literal text. The '/' of "</ junk>" is dropped, so
    // that literal is two text tokens: "<" and " junk>".
    if (is_end) {
      token->text = html.substr(i, 1);
      pending_text_ = html.substr(i + 2, end - i - 1);
    } else {
      token->text = html.substr(i, end - i + 1);
    }
    return true;
  }
  token->kind = is_end ? TokenKind::kEndTag : TokenKind::kStartTag;
  const std::string_view name = inside.substr(0, j);
  const TagEntry* known = FindTag(name);
  token->tag = known != nullptr ? known->tag : Tag::kOther;
  token->text = known != nullptr ? known->name : name;
  if (!is_end) {
    token->attributes = inside.substr(j);
    token->self_closing = HasSelfClosingSlash(token->attributes);
  }
  return true;
}

std::vector<Token> Tokenize(std::string_view html) {
  std::vector<Token> tokens;
  Tokenizer tokenizer(html);
  Token token;
  while (tokenizer.Next(&token)) tokens.push_back(token);
  return tokens;
}

}  // namespace webdis::html
