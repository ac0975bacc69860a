#include "html/entities.h"

#include <cstdint>

#include "common/strings.h"

namespace webdis::html {

namespace {

struct NamedEntity {
  const char* name;
  char value;
};

constexpr NamedEntity kEntities[] = {
    {"amp", '&'}, {"lt", '<'},   {"gt", '>'},
    {"quot", '"'}, {"apos", '\''}, {"nbsp", ' '},
};

}  // namespace

size_t DecodeEntityAt(std::string_view s, size_t i, char* out) {
  // A reference is at most 10 bytes past its '&'; searching only that far
  // keeps decoding linear on long runs of '&' with no ';'.
  const size_t semi_in_window = s.substr(i + 1, 10).find(';');
  if (semi_in_window == std::string_view::npos) return 0;
  const size_t semi = i + 1 + semi_in_window;
  const std::string_view body = s.substr(i + 1, semi - i - 1);
  if (!body.empty() && body[0] == '#') {
    if (body.size() == 1) return 0;
    uint32_t code = 0;
    for (size_t j = 1; j < body.size(); ++j) {
      if (!IsAsciiDigit(body[j])) return 0;
      code = code * 10 + static_cast<uint32_t>(body[j] - '0');
      if (code > 0x10FFFF) return 0;
    }
    // Non-ASCII (and &#0;) become a placeholder, like 1990s terminals.
    *out = (code > 0 && code < 128) ? static_cast<char>(code) : '?';
    return semi - i + 1;
  }
  for (const NamedEntity& e : kEntities) {
    if (body == e.name) {
      *out = e.value;
      return semi - i + 1;
    }
  }
  return 0;
}

std::string DecodeEntities(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  DecodeEntitiesTo(s, out);
  return out;
}

void EscapeForHtmlTo(std::string_view s, std::string& out) {
  size_t run = 0;
  size_t i = 0;
  while ((i = s.find_first_of("&<>\"", i)) != std::string_view::npos) {
    out.append(s.substr(run, i - run));
    switch (s[i]) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      default:  // '"'
        out += "&quot;";
    }
    run = ++i;
  }
  out.append(s.substr(run));
}

}  // namespace webdis::html
