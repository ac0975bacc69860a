#ifndef WEBDIS_HTML_TOKENIZER_H_
#define WEBDIS_HTML_TOKENIZER_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace webdis::html {

/// HTML token kinds produced by the tokenizer. The grammar targeted is
/// HTML 2.0 (RFC 1866) — the paper's node model assumes documents of that
/// era — but the tokenizer is tolerant of malformed input: it never fails,
/// it only degrades (real web pages were already broken in 1999).
enum class TokenKind : uint8_t {
  kText,      // character data between tags
  kStartTag,  // <name attr="v" ...> ; self_closing for <name/>
  kEndTag,    // </name>
  kComment,   // <!-- ... -->
  kDoctype,   // <!DOCTYPE ...> and other <! ...> declarations
};

/// The elements the page parser acts on (DESIGN.md §2.2 rel-infon rules,
/// anchors, frames, title, skipped script/style). The tokenizer resolves a
/// tag name to one of these case-insensitively; any other name is kOther.
enum class Tag : uint8_t {
  kOther,
  // rel-infon containers
  kB, kI, kEm, kStrong, kH1, kH2, kH3, kH4, kH5, kH6,
  kP, kLi, kTd, kTh, kPre, kCenter, kFont, kBlockquote,
  // rel-infon separators
  kHr, kBr,
  // hyperlinks
  kA, kFrame, kIframe, kArea,
  // non-text regions
  kTitle, kScript, kStyle,
};
inline constexpr size_t kNumTags = static_cast<size_t>(Tag::kStyle) + 1;

/// Lower-case name of a known tag: a view into a static table, valid for
/// the life of the program. Empty for kOther.
std::string_view TagName(Tag tag);

/// True for the tags whose enclosed text is one rel-infon per element.
bool IsContainerTag(Tag tag);

/// A single HTML token. Every view points into the tokenized input, except
/// a known tag's name, which is TagName(tag); tokens never own heap memory.
struct Token {
  TokenKind kind = TokenKind::kText;
  /// Text run / comment body / declaration body / tag name. Known tag names
  /// are lower-case; any other tag name is as written.
  std::string_view text;
  Tag tag = Tag::kOther;         // start and end tags only
  std::string_view attributes;   // start tags: raw bytes after the name
  bool self_closing = false;     // start tags only

  /// Returns the raw value of the first attribute named `name` (given in
  /// lower case; attribute names match case-insensitively), or an empty
  /// string_view if absent. Entity decoding is the parser's job.
  std::string_view Attr(std::string_view name) const;
};

/// Pull tokenizer over one document: each Next() yields the next token
/// without allocating. Never fails; unterminated constructs are emitted as
/// best-effort text.
class Tokenizer {
 public:
  explicit Tokenizer(std::string_view html) : html_(html) {}

  /// Stores the next token in `*token`; returns false at end of input.
  bool Next(Token* token);

 private:
  std::string_view html_;
  size_t pos_ = 0;
  // A "</ junk>" literal is the text "< junk>": its '<' is one token and
  // the bytes after the '/' are this pending second one.
  std::string_view pending_text_;
};

/// Tokenizes an entire HTML document (tests and tools; the page parser
/// pulls from a Tokenizer directly).
std::vector<Token> Tokenize(std::string_view html);

}  // namespace webdis::html

#endif  // WEBDIS_HTML_TOKENIZER_H_
