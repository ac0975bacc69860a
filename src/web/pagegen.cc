#include "web/pagegen.h"

#include "html/entities.h"

namespace webdis::web {

std::string RenderHtml(const PageSpec& spec) {
  // One buffer, reserved for the unescaped text plus the markup around it;
  // escapes are rare, so the page is usually built without reallocating.
  size_t estimate = 160 + 2 * spec.title.size();
  for (const std::string& p : spec.paragraphs) estimate += p.size() + 8;
  for (const PageSpec::SectionSpec& s : spec.sections) {
    estimate += s.heading.size() + s.body.size() + 20;
  }
  for (const std::string& b : spec.bold_notes) estimate += b.size() + 8;
  for (const std::string& block : spec.hr_blocks) {
    estimate += block.size() + 6;
  }
  for (const PageSpec::LinkSpec& link : spec.links) {
    estimate += link.href.size() + link.label.size() + 30;
  }
  std::string out;
  out.reserve(estimate);
  const auto element = [&out](std::string_view open, std::string_view text,
                              std::string_view close) {
    out += open;
    html::EscapeForHtmlTo(text, out);
    out += close;
  };
  out += "<!DOCTYPE HTML PUBLIC \"-//IETF//DTD HTML 2.0//EN\">\n";
  element("<html>\n<head>\n<title>", spec.title,
          "</title>\n</head>\n<body>\n");
  element("<h1>", spec.title, "</h1>\n");
  for (const std::string& p : spec.paragraphs) element("<p>", p, "</p>\n");
  for (const PageSpec::SectionSpec& s : spec.sections) {
    element("<h2>", s.heading, "</h2>\n");
    element("<p>", s.body, "</p>\n");
  }
  for (const std::string& b : spec.bold_notes) element("<b>", b, "</b>\n");
  if (!spec.hr_blocks.empty()) {
    // A leading rule isolates the first block, so each hr-delimited
    // rel-infon contains exactly its own block text (cf. Figure 8, where the
    // convener rel-infon is just "CONVENER <name>").
    out += "<hr>\n";
    for (const std::string& block : spec.hr_blocks) {
      element("", block, "\n<hr>\n");
    }
  }
  if (!spec.links.empty()) {
    out += "<ul>\n";
    for (const PageSpec::LinkSpec& link : spec.links) {
      out += "<li><a href=\"";
      out += link.href;
      element("\">", link.label, "</a></li>\n");
    }
    out += "</ul>\n";
  }
  out += "</body>\n</html>\n";
  return out;
}

}  // namespace webdis::web
