#ifndef WEBDIS_HTML_ENTITIES_H_
#define WEBDIS_HTML_ENTITIES_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace webdis::html {

/// Decodes the entity reference starting at `s[i]` (which must be '&'). On
/// success stores the replacement byte in `*out` and returns the number of
/// input bytes the reference spans; returns 0 when `s[i..]` is not a
/// decodable reference, in which case the '&' is literal text.
size_t DecodeEntityAt(std::string_view s, size_t i, char* out);

/// Streams the decoding of `s` into `out` — anything with
/// `append(std::string_view)` and `push_back(char)`, e.g. a std::string or a
/// WhitespaceCollapser. Runs without references are appended whole.
template <typename Out>
void DecodeEntitiesTo(std::string_view s, Out& out) {
  size_t run = 0;
  size_t i = 0;
  while ((i = s.find('&', i)) != std::string_view::npos) {
    char decoded;
    const size_t consumed = DecodeEntityAt(s, i, &decoded);
    if (consumed == 0) {
      ++i;
      continue;
    }
    out.append(s.substr(run, i - run));
    out.push_back(decoded);
    i += consumed;
    run = i;
  }
  out.append(s.substr(run));
}

/// Decodes the HTML 2.0 character entities that appear in the synthetic web
/// (&amp; &lt; &gt; &quot; &nbsp; and numeric &#NN;). Unknown entities are
/// passed through verbatim, as browsers of the paper's era did.
std::string DecodeEntities(std::string_view s);

/// Appends `s` to `out` with &, <, > and " escaped, for embedding text into
/// generated HTML. Runs without special characters are appended whole.
void EscapeForHtmlTo(std::string_view s, std::string& out);

}  // namespace webdis::html

#endif  // WEBDIS_HTML_ENTITIES_H_
