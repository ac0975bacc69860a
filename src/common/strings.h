#ifndef WEBDIS_COMMON_STRINGS_H_
#define WEBDIS_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace webdis {

/// ASCII character classes. Locale-independent on purpose: HTML markup and
/// the synthetic web are ASCII, and bytes >= 0x80 (0x85, 0xA0, UTF-8
/// sequences) are never whitespace or name characters.
constexpr bool IsAsciiSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');  // \t \n \v \f \r
}
constexpr bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }
constexpr bool IsAsciiAlnum(char c) {
  return IsAsciiDigit(c) || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr char AsciiToLower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// ASCII lower-casing (the paper's `contains` predicate is case-insensitive
/// over HTML text, which is ASCII-oriented).
std::string ToLower(std::string_view s);

/// True if `haystack` contains `needle` (case-sensitive).
bool Contains(std::string_view haystack, std::string_view needle);

/// True if `haystack` contains `needle` ignoring ASCII case.
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Splits on a single character; empty pieces are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Joins pieces with a separator.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// Collapses runs of whitespace into single spaces and trims; used when
/// extracting document text from HTML.
std::string CollapseWhitespace(std::string_view s);

/// Appends to a string with every run of ASCII whitespace collapsed to one
/// space and no leading or trailing space, so a sequence of appends to an
/// empty string yields CollapseWhitespace of their concatenation. A space
/// is only written just before the next non-space byte; hence the output
/// never ends in a space, and the bytes written between two points of the
/// appends, less at most one leading space, are CollapseWhitespace of the
/// input appended in between — which is what lets a page parser record
/// every rel-infon as a span of one text buffer.
class WhitespaceCollapser {
 public:
  explicit WhitespaceCollapser(std::string* out) : out_(out) {}

  void push_back(char c) {
    if (IsAsciiSpace(c)) {
      pending_space_ = true;
      return;
    }
    PutSpaceIfPending();
    out_->push_back(c);
  }
  void append(std::string_view s);

 private:
  void PutSpaceIfPending() {
    if (pending_space_ && !out_->empty()) out_->push_back(' ');
    pending_space_ = false;
  }

  std::string* out_;
  bool pending_space_ = false;
};

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses a non-negative decimal integer. Returns false on any non-digit or
/// overflow.
bool ParseUint64(std::string_view s, uint64_t* out);

}  // namespace webdis

#endif  // WEBDIS_COMMON_STRINGS_H_
