#include "web/synth.h"

#include <charconv>
#include <system_error>

#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "web/pagegen.h"

namespace webdis::web {

namespace {

/// Small vocabulary for filler text; deliberately avoids the planted
/// keywords so selectivity is controlled exactly by the plant probabilities.
constexpr std::string_view kVocabulary[] = {
    "research", "system",   "network", "server",  "archive", "project",
    "group",    "seminar",  "student", "faculty", "report",  "annual",
    "index",    "document", "page",    "result",  "method",  "design",
    "study",    "campus",   "gamma",   "delta",   "epsilon", "theta",
};

std::string FillerParagraph(Rng* rng, int words) {
  constexpr size_t kVocabSize = std::size(kVocabulary);
  std::string out;
  for (int w = 0; w < words; ++w) {
    if (w > 0) out += " ";
    out += kVocabulary[rng->Uniform(kVocabSize)];
  }
  return out;
}

/// Performs one document's generator draws and builds its page spec. This is
/// the single source of truth for per-document draw order: the eager build,
/// the lazy build pass (which needs only to advance `rng` through the same
/// data-dependent structure draws), and the lazy page replay all run it,
/// so the three paths cannot drift apart.
///
/// With want_text=false the draws are made but no string is built and an
/// empty spec is returned: `text_rng` is advanced past the filler in O(1)
/// (each word costs exactly one draw), and titles, hr blocks and link URLs
/// are skipped. That is what makes the lazy build pass cheap at 10⁵–10⁶
/// documents.
PageSpec BuildPageSpec(const SynthWebOptions& options, int site, int doc,
                       Rng* rng, Rng* text_rng, bool want_text) {
  PageSpec spec;
  const bool title_hit = rng->Bernoulli(options.title_keyword_prob);
  const bool body_hit = rng->Bernoulli(options.body_keyword_prob);
  if (want_text) {
    spec.title = StringPrintf(
        "%sdocument %d on site %d",
        title_hit ? std::string(kTitleKeyword).append(" ").c_str() : "",
        doc, site);
    for (int p = 0; p < options.filler_paragraphs; ++p) {
      spec.paragraphs.push_back(
          FillerParagraph(text_rng, options.words_per_paragraph));
    }
    spec.hr_blocks.push_back(body_hit
                                 ? std::string(kBodyKeyword) + " marker block"
                                 : "plain marker block");
  } else {
    text_rng->Skip(static_cast<uint64_t>(options.filler_paragraphs) *
                   static_cast<uint64_t>(options.words_per_paragraph));
  }
  // Local links: to other documents on this site (never self).
  for (int l = 0; l < options.local_links_per_doc; ++l) {
    if (options.docs_per_site < 2) break;
    int target = doc;
    while (target == doc) {
      target = static_cast<int>(
          rng->Uniform(static_cast<uint64_t>(options.docs_per_site)));
    }
    if (want_text) spec.links.push_back({SynthUrl(site, target), "local link"});
  }
  // Global links: to documents on other sites.
  for (int g = 0; g < options.global_links_per_doc; ++g) {
    if (options.num_sites < 2) break;
    int target_site = site;
    while (target_site == site) {
      target_site = static_cast<int>(
          rng->Uniform(static_cast<uint64_t>(options.num_sites)));
    }
    const int target_doc = static_cast<int>(
        rng->Uniform(static_cast<uint64_t>(options.docs_per_site)));
    if (want_text) {
      spec.links.push_back({SynthUrl(target_site, target_doc), "global link"});
    }
  }
  return spec;
}

/// Consumes `prefix` and then a decimal int from the front of `*text`.
bool ConsumeInt(std::string_view prefix, std::string_view* text, int* value) {
  if (text->substr(0, prefix.size()) != prefix) return false;
  const char* first = text->data() + prefix.size();
  const char* last = text->data() + text->size();
  const auto [end, ec] = std::from_chars(first, last, *value);
  if (ec != std::errc()) return false;
  text->remove_prefix(static_cast<size_t>(end - text->data()));
  return true;
}

/// Recovers (site, doc) from a synthetic resource key (the SynthUrl form).
bool ParseSynthKey(std::string_view key, int* site, int* doc) {
  return ConsumeInt("http://site", &key, site) &&
         ConsumeInt(".example/doc", &key, doc) && key.empty();
}

}  // namespace

std::string SynthHost(int site) {
  return "site" + std::to_string(site) + ".example";
}

std::string SynthUrl(int site, int doc) {
  return "http://" + SynthHost(site) + "/doc" + std::to_string(doc);
}

WebGraph GenerateSynthWeb(const SynthWebOptions& options) {
  WEBDIS_CHECK(options.num_sites > 0);
  WEBDIS_CHECK(options.docs_per_site > 0);
  WebGraph web;
  if (options.lazy_pages) {
    // Page replay: resume both streams from the states captured
    // below and redo this document's draws, text included.
    web.SetPageGenerator([options](std::string_view key, uint64_t aux0,
                                   uint64_t aux1) {
      int site = 0;
      int doc = 0;
      WEBDIS_CHECK(ParseSynthKey(key, &site, &doc));
      Rng rng = Rng::FromState(aux0);
      Rng text_rng = Rng::FromState(aux1);
      return RenderHtml(
          BuildPageSpec(options, site, doc, &rng, &text_rng,
                        /*want_text=*/true));
    });
  }
  // Structure/keyword draws and filler-text draws come from independent
  // streams so changing document *size* never changes the link graph or
  // which documents match (T8 holds answers fixed while pages grow).
  Rng rng(options.seed);
  Rng text_rng(options.seed ^ 0x9E3779B97F4A7C15ULL);

  for (int site = 0; site < options.num_sites; ++site) {
    for (int doc = 0; doc < options.docs_per_site; ++doc) {
      // Captured before this document's draws; a lazy page re-runs the
      // generator from exactly here, so it renders byte-identical to the
      // eager build no matter which documents were fetched before it.
      const uint64_t structure_state = rng.State();
      const uint64_t text_state = text_rng.State();
      if (options.lazy_pages) {
        // Advance both streams past this document without rendering.
        (void)BuildPageSpec(options, site, doc, &rng, &text_rng,
                            /*want_text=*/false);
        const Status status = web.AddLazyDocument(
            SynthUrl(site, doc), structure_state, text_state);
        WEBDIS_CHECK(status.ok()) << status.ToString();
      } else {
        PageSpec spec = BuildPageSpec(options, site, doc, &rng, &text_rng,
                                      /*want_text=*/true);
        const Status status =
            web.AddDocument(SynthUrl(site, doc), RenderHtml(spec));
        WEBDIS_CHECK(status.ok()) << status.ToString();
      }
    }
  }
  return web;
}

}  // namespace webdis::web
