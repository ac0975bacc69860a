#ifndef WEBDIS_WEB_SYNTH_H_
#define WEBDIS_WEB_SYNTH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "web/graph.h"

namespace webdis::web {

/// Parameters of the random synthetic web used by the benchmarks. The
/// generator plants keywords with controlled probabilities so query
/// selectivity is a tunable workload knob, and controls per-document local
/// and global out-degree so traversal fan-out is too.
struct SynthWebOptions {
  uint64_t seed = 42;
  int num_sites = 8;
  int docs_per_site = 16;
  /// Out-degree knobs: links to documents on the same site / other sites.
  int local_links_per_doc = 3;
  int global_links_per_doc = 1;
  /// Probability that a document's title carries the planted title keyword
  /// ("alpha") / its body the planted body keyword ("beta").
  double title_keyword_prob = 0.3;
  double body_keyword_prob = 0.3;
  /// Padding paragraphs per document (controls document size, and therefore
  /// the data-shipping baseline's download volume).
  int filler_paragraphs = 3;
  /// Words per filler paragraph.
  int words_per_paragraph = 40;
  /// When set, documents are registered lazily: the build pass records each
  /// document's captured RNG states instead of rendering HTML, and the page
  /// is rendered on each fetch by replaying exactly the draws an eager
  /// build would have made. Pages are byte-identical to lazy_pages=false —
  /// only memory timing changes — which is what lets benchmarks hold
  /// 10⁵–10⁶ documents without rendering them all up front.
  bool lazy_pages = false;
};

/// Keywords the generator plants; queries in the benchmarks filter on them.
inline constexpr std::string_view kTitleKeyword = "alpha";
inline constexpr std::string_view kBodyKeyword = "beta";

/// Deterministically generates a random web. Document URLs follow
/// http://site<i>.example/doc<j>. Every document also receives an
/// hr-delimited rel-infon block; with probability body_keyword_prob it
/// mentions the body keyword.
WebGraph GenerateSynthWeb(const SynthWebOptions& options);

/// Host name of synthetic site i.
std::string SynthHost(int site);
/// URL of synthetic document j on site i.
std::string SynthUrl(int site, int doc);

}  // namespace webdis::web

#endif  // WEBDIS_WEB_SYNTH_H_
