#include <cctype>

#include "common/strings.h"
#include "pre/pre.h"
#include "serialize/encoder.h"

namespace webdis::pre {

namespace {

/// Recursive-descent parser over PRE syntax:
///
///   alt    := concat ('|' concat)*
///   concat := repeat (('.' | '·') repeat)*
///   repeat := atom ('*' digits?)*
///   atom   := 'I' | 'L' | 'G' | 'N' | '(' alt ')'
///
/// '·' is the paper's middle-dot (UTF-8 C2 B7); ASCII '.' is accepted too.
/// Every node built is checked with Pre::CheckEncodable, and parentheses
/// nest at most serialize::kMaxTreeDepth deep, so neither the recursion
/// here nor any later walk of the result can run out of stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Pre> Parse() {
    Pre result;
    WEBDIS_ASSIGN_OR_RETURN(result, ParseAlt());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after PRE");
    }
    return result;
  }

 private:
  Status Error(std::string message) const {
    return Status::ParseError(StringPrintf(
        "%s at offset %zu in PRE '%s'", message.c_str(), pos_,
        std::string(text_).c_str()));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool ConsumeConcatOp() {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      return true;
    }
    // UTF-8 middle dot.
    if (pos_ + 1 < text_.size() &&
        static_cast<unsigned char>(text_[pos_]) == 0xC2 &&
        static_cast<unsigned char>(text_[pos_ + 1]) == 0xB7) {
      pos_ += 2;
      return true;
    }
    return false;
  }

  Result<Pre> ParseAlt() {
    std::vector<Pre> parts;
    Pre first;
    WEBDIS_ASSIGN_OR_RETURN(first, ParseConcat());
    parts.push_back(std::move(first));
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '|') break;
      ++pos_;
      Pre next;
      WEBDIS_ASSIGN_OR_RETURN(next, ParseConcat());
      parts.push_back(std::move(next));
    }
    return Checked(Pre::AltAll(parts));
  }

  Result<Pre> ParseConcat() {
    std::vector<Pre> parts;
    Pre first;
    WEBDIS_ASSIGN_OR_RETURN(first, ParseRepeat());
    parts.push_back(std::move(first));
    while (ConsumeConcatOp()) {
      Pre next;
      WEBDIS_ASSIGN_OR_RETURN(next, ParseRepeat());
      parts.push_back(std::move(next));
    }
    return Checked(Pre::ConcatAll(parts));
  }

  Result<Pre> ParseRepeat() {
    Pre base;
    WEBDIS_ASSIGN_OR_RETURN(base, ParseAtom());
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '*') break;
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() &&
          std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        uint64_t bound = 0;
        const size_t start = pos_;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          bound = bound * 10 + static_cast<uint64_t>(text_[pos_] - '0');
          if (bound > 1000000) {
            return Error("repetition bound too large");
          }
          ++pos_;
        }
        (void)start;
        base = Pre::Repeat(base, static_cast<uint32_t>(bound));
      } else {
        base = Pre::RepeatUnbounded(base);
      }
      WEBDIS_RETURN_IF_ERROR(base.CheckEncodable());
    }
    return base;
  }

  Result<Pre> ParseAtom() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Error("expected link symbol or '('");
    }
    const char c = text_[pos_];
    if (c == '(') {
      if (++paren_depth_ > serialize::kMaxTreeDepth) {
        return Status::InvalidArgument(StringPrintf(
            "PRE parentheses nested deeper than %d at offset %zu",
            serialize::kMaxTreeDepth, pos_));
      }
      ++pos_;
      Pre inner;
      WEBDIS_ASSIGN_OR_RETURN(inner, ParseAlt());
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ')') {
        return Error("expected ')'");
      }
      ++pos_;
      --paren_depth_;
      return inner;
    }
    auto link = html::LinkTypeFromSymbol(c);
    if (!link.ok()) {
      return Error(StringPrintf("unexpected character '%c'", c));
    }
    ++pos_;
    return Pre::Link(link.value());
  }

  static Result<Pre> Checked(Pre pre) {
    WEBDIS_RETURN_IF_ERROR(pre.CheckEncodable());
    return pre;
  }

  std::string_view text_;
  size_t pos_ = 0;
  int paren_depth_ = 0;
};

}  // namespace

Result<Pre> Pre::Parse(std::string_view text) {
  if (Trim(text).empty()) {
    return Status::ParseError("empty PRE");
  }
  return Parser(text).Parse();
}

}  // namespace webdis::pre
