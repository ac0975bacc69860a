#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <set>

#include "common/rng.h"
#include "common/strings.h"
#include "tests/legacy_parser.h"
#include "web/fileweb.h"
#include "web/graph.h"
#include "web/index.h"
#include "web/pagegen.h"
#include "web/synth.h"
#include "web/topologies.h"
#include "web/university.h"

namespace webdis::web {
namespace {

// -- WebGraph -------------------------------------------------------------------

TEST(WebGraphTest, AddAndFind) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/x", "<title>T</title>body").ok());
  const WebGraph::Document* doc = web.Find("http://a/x");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->parsed.title, "T");
  EXPECT_TRUE(web.Has("http://a/x"));
  EXPECT_FALSE(web.Has("http://a/other"));
  EXPECT_EQ(web.num_documents(), 1u);
}

TEST(WebGraphTest, FragmentIgnoredInLookup) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/x", "body").ok());
  EXPECT_TRUE(web.Has("http://a/x#section"));
}

TEST(WebGraphTest, DuplicateRejected) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/x", "one").ok());
  EXPECT_FALSE(web.AddDocument("http://a/x", "two").ok());
}

TEST(WebGraphTest, BadUrlRejected) {
  WebGraph web;
  EXPECT_FALSE(web.AddDocument("", "x").ok());
}

TEST(WebGraphTest, HostsAndUrls) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://b/1", "x").ok());
  ASSERT_TRUE(web.AddDocument("http://a/1", "x").ok());
  ASSERT_TRUE(web.AddDocument("http://a/2", "x").ok());
  EXPECT_EQ(web.Hosts(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(web.UrlsOnHost("a"),
            (std::vector<std::string>{"http://a/1", "http://a/2"}));
  EXPECT_EQ(web.AllUrls().size(), 3u);
  EXPECT_EQ(web.TotalHtmlBytes(), 3u);
}

// -- Per-host secondary index ---------------------------------------------------

TEST(WebGraphTest, PerHostIndexTracksRemovals) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/1", "x").ok());
  ASSERT_TRUE(web.AddDocument("http://a/2", "x").ok());
  ASSERT_TRUE(web.AddDocument("http://b/1", "x").ok());
  ASSERT_TRUE(web.RemoveDocument("http://a/1").ok());
  EXPECT_EQ(web.UrlsOnHost("a"), (std::vector<std::string>{"http://a/2"}));
  EXPECT_EQ(web.Hosts(), (std::vector<std::string>{"a", "b"}));
  // Removing a host's last document drops the host from the index.
  ASSERT_TRUE(web.RemoveDocument("http://a/2").ok());
  EXPECT_TRUE(web.UrlsOnHost("a").empty());
  EXPECT_EQ(web.Hosts(), (std::vector<std::string>{"b"}));
  EXPECT_EQ(web.num_documents(), 1u);
}

TEST(WebGraphTest, PerHostIndexTracksRetirement) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/1", "x").ok());
  ASSERT_TRUE(web.AddDocument("http://a/2", "x").ok());
  ASSERT_TRUE(web.AddDocument("http://b/1", "x").ok());
  ASSERT_TRUE(web.RetireHost("a").ok());
  EXPECT_TRUE(web.HostRetired("a"));
  EXPECT_FALSE(web.HostRetired("b"));
  EXPECT_TRUE(web.UrlsOnHost("a").empty());
  EXPECT_EQ(web.Hosts(), (std::vector<std::string>{"b"}));
  EXPECT_FALSE(web.Has("http://a/1"));
  EXPECT_EQ(web.num_documents(), 1u);
  // Retiring an already-retired host is idempotent; an unknown host fails.
  EXPECT_TRUE(web.RetireHost("a").ok());
  EXPECT_FALSE(web.RetireHost("never-existed").ok());
}

TEST(WebGraphTest, UrlsOnHostUnknownHostIsEmpty) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/1", "x").ok());
  EXPECT_TRUE(web.UrlsOnHost("zz").empty());
}

// -- Lazy materialization -------------------------------------------------------

TEST(WebGraphTest, LazyDocumentMaterializesOnFirstFind) {
  WebGraph web;
  web.SetPageGenerator([](std::string_view key, uint64_t aux0, uint64_t) {
    return "<title>doc " + std::to_string(aux0) + "</title>" +
           std::string(key);
  });
  ASSERT_TRUE(web.AddLazyDocument("http://a/1", 41, 0).ok());
  ASSERT_TRUE(web.AddLazyDocument("http://a/2", 42, 0).ok());
  EXPECT_EQ(web.num_documents(), 2u);
  EXPECT_EQ(web.num_materialized(), 0u);
  // Has() and the index paths never materialize.
  EXPECT_TRUE(web.Has("http://a/1"));
  EXPECT_EQ(web.UrlsOnHost("a").size(), 2u);
  EXPECT_EQ(web.num_materialized(), 0u);

  const WebGraph::Document* doc = web.Find("http://a/1");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->parsed.title, "doc 41");
  EXPECT_EQ(doc->version, 1u);
  EXPECT_EQ(web.num_materialized(), 1u);
  // Memoized: a second Find returns the same object, no recount.
  EXPECT_EQ(web.Find("http://a/1"), doc);
  EXPECT_EQ(web.num_materialized(), 1u);
  EXPECT_EQ(web.num_documents(), 2u);
}

// A PageGenerator that counts its renders: the body names the key and aux0.
struct CountingGenerator {
  int* renders;
  std::string operator()(std::string_view key, uint64_t aux0,
                         uint64_t) const {
    ++*renders;
    return "<title>" + std::string(key) + " " + std::to_string(aux0) +
           "</title>";
  }
};

TEST(WebGraphSlotTest, RepeatFindReturnsTheSlotWithoutRendering) {
  int renders = 0;
  WebGraph web;
  web.SetPageGenerator(CountingGenerator{&renders});
  ASSERT_TRUE(web.AddLazyDocument("http://a/1", 1, 0).ok());
  ASSERT_TRUE(web.AddLazyDocument("http://a/2", 2, 0).ok());
  ASSERT_TRUE(web.AddDocument("http://a/e", "<title>eager</title>").ok());
  const WebGraph::Document* one = web.Find("http://a/1");
  ASSERT_NE(one, nullptr);
  EXPECT_EQ(renders, 1);
  EXPECT_EQ(web.Find("http://a/1"), one);
  EXPECT_EQ(renders, 1);
  // An eager lookup leaves the slot alone.
  ASSERT_NE(web.Find("http://a/e"), nullptr);
  EXPECT_EQ(web.Find("http://a/1"), one);
  EXPECT_EQ(renders, 1);
  // A different lazy page takes the slot; going back renders again.
  EXPECT_EQ(web.Find("http://a/2")->parsed.title, "http://a/2 2");
  EXPECT_EQ(renders, 2);
  EXPECT_EQ(web.Find("http://a/1")->parsed.title, "http://a/1 1");
  EXPECT_EQ(renders, 3);
  // num_materialized counts distinct pages: a/1 and a/2 plus the eager one.
  EXPECT_EQ(web.num_materialized(), 3u);
}

TEST(WebGraphSlotTest, VersionOfRendersNothing) {
  int renders = 0;
  WebGraph web;
  web.SetPageGenerator(CountingGenerator{&renders});
  ASSERT_TRUE(web.AddLazyDocument("http://a/1", 1, 0).ok());
  ASSERT_TRUE(web.AddLazyDocument("http://a/2", 2, 0).ok());
  ASSERT_TRUE(web.AddDocument("http://a/e", "<title>eager</title>").ok());
  EXPECT_EQ(web.VersionOf("http://a/1"), 1u);
  EXPECT_EQ(web.VersionOf("http://a/e"), 1u);
  EXPECT_EQ(web.VersionOf("http://a/missing"), 0u);
  EXPECT_EQ(web.VersionOf("not a url"), 0u);
  ASSERT_TRUE(web.UpdateDocument("http://a/2", "<title>v2</title>").ok());
  ASSERT_TRUE(web.UpdateDocument("http://a/e", "<title>e2</title>").ok());
  ASSERT_TRUE(web.UpdateDocument("http://a/e", "<title>e3</title>").ok());
  EXPECT_EQ(web.VersionOf("http://a/2"), 2u);
  EXPECT_EQ(web.VersionOf("http://a/e"), 3u);
  // An update replaces the whole body, so the lazy a/2 was never rendered.
  EXPECT_EQ(renders, 0);
  EXPECT_EQ(web.num_materialized(), 2u);  // a/2 (edited) and a/e
}

TEST(WebGraphSlotTest, UpdateOfTheSlotDocumentKeepsItsBytes) {
  int renders = 0;
  WebGraph web;
  web.SetPageGenerator(CountingGenerator{&renders});
  ASSERT_TRUE(web.AddLazyDocument("http://a/1", 1, 0).ok());
  ASSERT_TRUE(web.AddLazyDocument("http://a/2", 2, 0).ok());
  const WebGraph::Document* doc = web.Find("http://a/1");
  ASSERT_NE(doc, nullptr);
  ASSERT_TRUE(web.UpdateDocument("http://a/1", "<title>edit</title>").ok());
  // The edit took the slot's body over: the same object, now owned.
  EXPECT_EQ(web.Find("http://a/1"), doc);
  EXPECT_EQ(doc->version, 2u);
  EXPECT_EQ(doc->parsed.title, "edit");
  // The slot moving on leaves the edited body alone.
  ASSERT_NE(web.Find("http://a/2"), nullptr);
  EXPECT_EQ(web.Find("http://a/1"), doc);
  EXPECT_EQ(doc->raw_html, "<title>edit</title>");
  EXPECT_EQ(web.VersionOf("http://a/1"), 2u);
  EXPECT_EQ(renders, 2);  // a/1 once, a/2 once
  EXPECT_EQ(web.num_materialized(), 2u);
}

TEST(WebGraphSlotTest, RemovingTheSlotDocumentEmptiesTheSlot) {
  int renders = 0;
  WebGraph web;
  web.SetPageGenerator(CountingGenerator{&renders});
  ASSERT_TRUE(web.AddLazyDocument("http://a/1", 1, 0).ok());
  ASSERT_TRUE(web.AddLazyDocument("http://b/1", 1, 0).ok());
  ASSERT_TRUE(web.AddLazyDocument("http://b/2", 2, 0).ok());

  ASSERT_NE(web.Find("http://a/1"), nullptr);
  ASSERT_TRUE(web.RemoveDocument("http://a/1").ok());
  EXPECT_EQ(web.Find("http://a/1"), nullptr);
  EXPECT_EQ(web.VersionOf("http://a/1"), 0u);
  EXPECT_EQ(web.num_materialized(), 0u);
  // A re-added page renders its new body, not the removed slot's.
  ASSERT_TRUE(web.AddLazyDocument("http://a/1", 7, 0).ok());
  EXPECT_EQ(web.Find("http://a/1")->parsed.title, "http://a/1 7");
  EXPECT_EQ(renders, 2);

  ASSERT_NE(web.Find("http://b/2"), nullptr);
  ASSERT_TRUE(web.RetireHost("b").ok());
  EXPECT_EQ(web.Find("http://b/2"), nullptr);
  EXPECT_EQ(web.num_materialized(), 1u);  // a/1
  ASSERT_TRUE(web.AddLazyDocument("http://b/2", 9, 0).ok());
  EXPECT_EQ(web.Find("http://b/2")->parsed.title, "http://b/2 9");
  EXPECT_EQ(renders, 4);
  EXPECT_EQ(web.num_materialized(), 2u);
}

// Lookups try the URL as a stored key first and parse only on a miss. Keys
// are fixpoints of ResourceKey∘ParseUrl, so every spelling must resolve as
// parsing it and looking up its resource key would.
TEST(WebGraphSlotTest, KeyFastPathAgreesWithParsedLookup) {
  int renders = 0;
  WebGraph web;
  web.SetPageGenerator(CountingGenerator{&renders});
  ASSERT_TRUE(web.AddDocument("http://a.example/x", "<title>x</title>").ok());
  ASSERT_TRUE(web.AddLazyDocument("http://a.example:8080/y", 1, 0).ok());
  ASSERT_TRUE(web.AddDocument("http://a.example/gone", "g").ok());
  ASSERT_TRUE(web.RemoveDocument("http://a.example/gone").ok());
  const std::set<std::string> stored = {"http://a.example/x",
                                        "http://a.example:8080/y"};
  const std::vector<std::string> spellings = {
      "http://a.example/x",      "http://a.example/x#top",
      " http://a.example/x ",    "http://a.example/./x",
      "http://a.example/q/../x", "HTTP://a.example/x",
      "http://A.EXAMPLE/x",      "http://a.example/X",
      "http://a.example:80/x",   "http://a.example:8080/y",
      "http://a.example:8080/y#f", "http://a.example/y",
      "http://a.example/gone",   "http://a.example/gone#f",
      "http://a.example",        "",
  };
  for (const std::string& url : spellings) {
    SCOPED_TRACE("url='" + url + "'");
    auto parsed = html::ParseUrl(url);
    const std::string key = parsed.ok() ? parsed->ResourceKey() : "";
    const bool present = stored.count(key) > 0;
    EXPECT_EQ(web.Has(url), present);
    EXPECT_EQ(web.VersionOf(url), present ? 1u : 0u);
    const WebGraph::Document* doc = web.Find(url);
    ASSERT_EQ(doc != nullptr, present);
    if (present) {
      EXPECT_EQ(doc, web.Find(key));
    }
  }
  // Every spelling of the lazy page hit the one slot.
  EXPECT_EQ(renders, 1);
}

TEST(WebGraphTest, UpdateOfLazyDocumentMaterializesAndBumpsVersion) {
  WebGraph web;
  web.SetPageGenerator([](std::string_view, uint64_t, uint64_t) {
    return std::string("<title>v1</title>");
  });
  ASSERT_TRUE(web.AddLazyDocument("http://a/1", 0, 0).ok());
  // Update before any Find: the document materializes (version 1), then
  // mutates — exactly the version the §9 result cache would key on.
  ASSERT_TRUE(web.UpdateDocument("http://a/1", "<title>v2</title>").ok());
  const WebGraph::Document* doc = web.Find("http://a/1");
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->version, 2u);
  EXPECT_EQ(doc->parsed.title, "v2");
  EXPECT_EQ(web.num_materialized(), 1u);
}

TEST(WebGraphTest, HistoryCoversLazyDocuments) {
  WebGraph web;
  web.SetPageGenerator([](std::string_view, uint64_t, uint64_t) {
    return std::string("<title>gen</title>");
  });
  ASSERT_TRUE(web.AddLazyDocument("http://a/1", 0, 0).ok());
  web.EnableHistory();  // materializes so version-1 bodies are recorded
  EXPECT_EQ(web.num_materialized(), 1u);
  ASSERT_TRUE(web.UpdateDocument("http://a/1", "<title>edit</title>").ok());
  const std::string* v1 = web.HistoricalHtml("http://a/1", 1);
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(*v1, "<title>gen</title>");
  const std::string* v2 = web.HistoricalHtml("http://a/1", 2);
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(*v2, "<title>edit</title>");
}

TEST(WebGraphTest, ApproxTableBytesExcludesBodies) {
  WebGraph web;
  web.SetPageGenerator([](std::string_view, uint64_t, uint64_t) {
    return std::string(64 * 1024, 'x');  // big bodies, tiny table
  });
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        web.AddLazyDocument("http://h/" + std::to_string(i), 0, 0).ok());
  }
  const size_t at_rest = web.ApproxTableBytes();
  EXPECT_GT(at_rest, 0u);
  ASSERT_NE(web.Find("http://h/7"), nullptr);
  // Materializing a 64 KB body must not move the *table* footprint.
  EXPECT_EQ(web.ApproxTableBytes(), at_rest);
}

// Differential oracle for the table: seeded random sequences of adds (eager
// and lazy, re-adds of removed URLs, adds on retired hosts), fetches, edits,
// removals and retirements, checked after every step against a plain
// std::map model of what the web should hold.
TEST(WebGraphTest, RandomOperationsMatchMapModel) {
  constexpr int kHosts = 4;
  constexpr int kPaths = 8;
  const auto host_name = [](int h) {
    return "h" + std::to_string(h) + ".example";
  };
  const auto lazy_body = [](std::string_view key, uint64_t aux0,
                            uint64_t aux1) {
    return "<title>" + std::string(key) + "</title>" +
           std::to_string(aux0) + "/" + std::to_string(aux1);
  };
  struct ModelDoc {
    std::string body;
    bool materialized = false;
    bool owned = false;  // eager or edited: the body outlives the slot
  };
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed);
    WebGraph web;
    int renders = 0;
    web.SetPageGenerator([&](std::string_view key, uint64_t aux0,
                             uint64_t aux1) {
      ++renders;
      return lazy_body(key, aux0, aux1);
    });
    std::map<std::string, ModelDoc> model;  // resource key -> document
    std::set<std::string> retired;
    std::string slot;  // the lazy page the graph holds rendered, if any
    int slot_changes = 0;
    for (int step = 0; step < 300; ++step) {
      const int h = static_cast<int>(rng.Uniform(kHosts));
      const std::string host = host_name(h);
      const std::string url =
          "http://" + host + "/p" + std::to_string(rng.Uniform(kPaths));
      const bool present = model.count(url) > 0;
      switch (rng.Uniform(7)) {
        case 0: {  // eager add (a re-add when the URL was removed)
          const std::string body = "<title>e" + std::to_string(step) +
                                   "</title>";
          EXPECT_EQ(web.AddDocument(url, body).ok(), !present);
          if (!present) model[url] = {body, true, true};
          break;
        }
        case 1: {  // lazy add
          const uint64_t aux0 = rng.Next();
          const uint64_t aux1 = rng.Next();
          EXPECT_EQ(web.AddLazyDocument(url, aux0, aux1).ok(), !present);
          if (!present) {
            model[url] = {lazy_body(url, aux0, aux1), false, false};
          }
          break;
        }
        case 2:
        case 3: {  // fetch
          const WebGraph::Document* doc = web.Find(url);
          ASSERT_EQ(doc != nullptr, present);
          if (present) {
            EXPECT_EQ(doc->raw_html, model[url].body);
            model[url].materialized = true;
            if (!model[url].owned && slot != url) {
              slot = url;
              ++slot_changes;
            }
          }
          break;
        }
        case 4: {  // edit
          const std::string body = "<title>u" + std::to_string(step) +
                                   "</title>";
          EXPECT_EQ(web.UpdateDocument(url, body).ok(), present);
          if (present) model[url] = {body, true, true};
          if (slot == url) slot.clear();  // the edit owns the slot's body
          break;
        }
        case 5:  // remove
          EXPECT_EQ(web.RemoveDocument(url).ok(), present);
          model.erase(url);
          if (slot == url) slot.clear();
          break;
        default: {  // retire the whole host (rarely succeeds twice)
          const std::string prefix = "http://" + host + "/";
          bool on_host = false;
          for (auto it = model.begin(); it != model.end();) {
            if (it->first.compare(0, prefix.size(), prefix) == 0) {
              on_host = true;
              it = model.erase(it);
            } else {
              ++it;
            }
          }
          EXPECT_EQ(web.RetireHost(host).ok(),
                    on_host || retired.count(host) > 0);
          if (slot.compare(0, prefix.size(), prefix) == 0) slot.clear();
          if (on_host || retired.count(host) > 0) retired.insert(host);
          break;
        }
      }
      // Every observable of the table agrees with the model.
      std::vector<std::string> keys;
      std::set<std::string> hosts;
      size_t materialized = 0;
      for (const auto& [key, doc] : model) {
        keys.push_back(key);
        hosts.insert(key.substr(7, key.find('/', 7) - 7));
        materialized += doc.materialized ? 1 : 0;
      }
      ASSERT_EQ(web.AllUrls(), keys);
      ASSERT_EQ(web.Hosts(),
                std::vector<std::string>(hosts.begin(), hosts.end()));
      ASSERT_EQ(web.num_documents(), model.size());
      ASSERT_EQ(web.num_materialized(), materialized);
      // Only a lazy Find that moves the slot renders.
      ASSERT_EQ(renders, slot_changes);
      for (int other = 0; other < kHosts; ++other) {
        const std::string name = host_name(other);
        std::vector<std::string> on_host;
        for (const std::string& key : keys) {
          if (key.compare(7, name.size() + 1, name + "/") == 0) {
            on_host.push_back(key);
          }
        }
        ASSERT_EQ(web.UrlsOnHost(name), on_host);
        ASSERT_EQ(web.HostRetired(name), retired.count(name) > 0);
      }
      for (int p = 0; p < kPaths; ++p) {
        const std::string probe =
            "http://" + host + "/p" + std::to_string(p);
        ASSERT_EQ(web.Has(probe), model.count(probe) > 0);
      }
    }
  }
}

// -- Page generator --------------------------------------------------------------

TEST(PageGenTest, RenderedPageParsesBack) {
  PageSpec spec;
  spec.title = "A & B Lab";
  spec.paragraphs = {"First paragraph."};
  spec.sections = {{"Heading", "Section body"}};
  spec.links = {{"/people", "People"}, {"http://other/", "Other"}};
  spec.hr_blocks = {"CONVENER Someone"};
  spec.bold_notes = {"note"};
  const std::string html = RenderHtml(spec);
  const html::ParsedDocument doc =
      html::ParseDocument(html::ParseUrl("http://h/p").value(), html);
  EXPECT_EQ(doc.title, "A & B Lab");
  ASSERT_EQ(doc.anchors.size(), 2u);
  EXPECT_EQ(doc.anchors[0].ltype, html::LinkType::kLocal);
  EXPECT_EQ(doc.anchors[1].ltype, html::LinkType::kGlobal);
  bool convener_in_hr = false;
  for (const html::ParsedRelInfon& r : doc.rel_infons) {
    if (r.delimiter == "hr" && doc.RelInfonText(r) == "CONVENER Someone") {
      convener_in_hr = true;
    }
  }
  EXPECT_TRUE(convener_in_hr);
}

// -- Synthetic web -----------------------------------------------------------------

TEST(SynthWebTest, DeterministicForSeed) {
  SynthWebOptions options;
  options.seed = 5;
  options.num_sites = 3;
  options.docs_per_site = 4;
  WebGraph a = GenerateSynthWeb(options);
  WebGraph b = GenerateSynthWeb(options);
  ASSERT_EQ(a.AllUrls(), b.AllUrls());
  for (const std::string& url : a.AllUrls()) {
    EXPECT_EQ(a.Find(url)->raw_html, b.Find(url)->raw_html);
  }
}

TEST(SynthWebTest, LazyPagesMatchEagerByteForByte) {
  // The lazy representation is purely a memory optimization: generating the
  // same web with lazy_pages on must produce byte-identical HTML for every
  // document once fetched — first-fetch replay re-runs the exact RNG draws
  // the eager build made.
  SynthWebOptions options;
  options.seed = 11;
  options.num_sites = 4;
  options.docs_per_site = 7;
  options.title_keyword_prob = 0.3;
  options.body_keyword_prob = 0.2;
  const WebGraph eager = GenerateSynthWeb(options);
  options.lazy_pages = true;
  const WebGraph lazy = GenerateSynthWeb(options);
  ASSERT_EQ(lazy.AllUrls(), eager.AllUrls());
  EXPECT_EQ(lazy.num_materialized(), 0u);
  // Fetch in an order unrelated to generation order: per-document captured
  // RNG states make replay order-independent.
  std::vector<std::string> urls = eager.AllUrls();
  for (size_t i = urls.size(); i-- > 0;) {
    const WebGraph::Document* e = eager.Find(urls[i]);
    const WebGraph::Document* l = lazy.Find(urls[i]);
    ASSERT_NE(l, nullptr) << urls[i];
    EXPECT_EQ(l->raw_html, e->raw_html) << urls[i];
    EXPECT_EQ(l->parsed.title, e->parsed.title) << urls[i];
  }
  EXPECT_EQ(lazy.num_materialized(), urls.size());
}

TEST(SynthWebTest, ShapeMatchesOptions) {
  SynthWebOptions options;
  options.num_sites = 4;
  options.docs_per_site = 6;
  options.local_links_per_doc = 2;
  options.global_links_per_doc = 1;
  WebGraph web = GenerateSynthWeb(options);
  EXPECT_EQ(web.num_documents(), 24u);
  EXPECT_EQ(web.Hosts().size(), 4u);
  for (const std::string& url : web.AllUrls()) {
    const WebGraph::Document* doc = web.Find(url);
    int local = 0, global = 0;
    for (const html::ParsedAnchor& a : doc->parsed.anchors) {
      if (a.ltype == html::LinkType::kLocal) ++local;
      if (a.ltype == html::LinkType::kGlobal) ++global;
      // Every link must resolve to an existing document.
      EXPECT_TRUE(web.Has(a.resolved.ResourceKey()))
          << a.resolved.ToString();
    }
    EXPECT_EQ(local, 2) << url;
    EXPECT_EQ(global, 1) << url;
  }
}

TEST(SynthWebTest, KeywordProbabilitiesHonored) {
  SynthWebOptions options;
  options.num_sites = 10;
  options.docs_per_site = 30;
  options.title_keyword_prob = 0.5;
  options.body_keyword_prob = 0.0;
  WebGraph web = GenerateSynthWeb(options);
  int title_hits = 0, body_hits = 0;
  for (const std::string& url : web.AllUrls()) {
    const WebGraph::Document* doc = web.Find(url);
    if (doc->parsed.title.find(kTitleKeyword) != std::string::npos) {
      ++title_hits;
    }
    for (const html::ParsedRelInfon& r : doc->parsed.rel_infons) {
      if (r.delimiter == "hr" &&
          doc->parsed.RelInfonText(r).find(kBodyKeyword) !=
              std::string::npos) {
        ++body_hits;
      }
    }
  }
  EXPECT_GT(title_hits, 100);  // ~150 of 300
  EXPECT_LT(title_hits, 200);
  EXPECT_EQ(body_hits, 0);
}

// -- Topologies -------------------------------------------------------------------

TEST(TopologyTest, Fig1ShapeIsSane) {
  Scenario s = BuildFig1Scenario();
  EXPECT_EQ(s.web.num_documents(), 8u);
  // Node 1 has two global links; node 7 links back to node 1.
  const WebGraph::Document* n1 = s.web.Find("http://site1.example/node1");
  ASSERT_NE(n1, nullptr);
  EXPECT_EQ(n1->parsed.anchors.size(), 2u);
  for (const html::ParsedAnchor& a : n1->parsed.anchors) {
    EXPECT_EQ(a.ltype, html::LinkType::kGlobal);
  }
}

TEST(TopologyTest, Fig5Node4HasThreeFanouts) {
  Scenario s = BuildFig5Scenario();
  const WebGraph::Document* n4 = s.web.Find("http://site4.example/node4");
  ASSERT_NE(n4, nullptr);
  EXPECT_EQ(n4->parsed.anchors.size(), 3u);
}

TEST(TopologyTest, CampusWebHasFigure8Pages) {
  CampusScenario s = BuildCampusScenario();
  EXPECT_TRUE(s.web.Has("http://www.csa.iisc.ernet.in/Labs"));
  for (const auto& [url, name] : s.expected_conveners) {
    const WebGraph::Document* doc = s.web.Find(url);
    ASSERT_NE(doc, nullptr) << url;
    bool found = false;
    for (const html::ParsedRelInfon& r : doc->parsed.rel_infons) {
      if (r.delimiter == "hr" &&
          doc->parsed.RelInfonText(r).find(name) != std::string::npos) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << url << " missing convener " << name;
  }
}

TEST(TopologyTest, CampusLabsPageTitleMatchesQ1) {
  CampusScenario s = BuildCampusScenario();
  const WebGraph::Document* labs =
      s.web.Find("http://www.csa.iisc.ernet.in/Labs");
  ASSERT_NE(labs, nullptr);
  EXPECT_NE(webdis::ToLower(labs->parsed.title).find("lab"), std::string::npos);
}

// -- Search index -------------------------------------------------------------------

TEST(SearchIndexTest, LooksUpTitleAndBodyWords) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/1",
                              "<title>Alpha Report</title>delta words")
                  .ok());
  ASSERT_TRUE(
      web.AddDocument("http://a/2", "<title>Other</title>alpha body").ok());
  SearchIndex index(web);
  EXPECT_EQ(index.Lookup("alpha"),
            (std::vector<std::string>{"http://a/1", "http://a/2"}));
  EXPECT_EQ(index.Lookup("ALPHA").size(), 2u);  // case folded
  EXPECT_EQ(index.Lookup("delta"), (std::vector<std::string>{"http://a/1"}));
  EXPECT_TRUE(index.Lookup("absent").empty());
}

TEST(SearchIndexTest, ConjunctiveLookup) {
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/1", "alpha beta").ok());
  ASSERT_TRUE(web.AddDocument("http://a/2", "alpha gamma").ok());
  SearchIndex index(web);
  EXPECT_EQ(index.LookupAll({"alpha", "beta"}),
            (std::vector<std::string>{"http://a/1"}));
  EXPECT_TRUE(index.LookupAll({"alpha", "absent"}).empty());
  EXPECT_TRUE(index.LookupAll({}).empty());
}

// -- File-backed web loader ----------------------------------------------------

class FileWebTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test-case (and per-process) directory: ctest registers each case
    // individually, so under `ctest -j` two FileWebTest processes can run
    // concurrently — a shared path would let one TearDown delete the other's
    // fixture mid-test.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = std::filesystem::temp_directory_path() /
            ("webdis_fileweb_test_" + std::string(info->name()) + "_" +
             std::to_string(static_cast<long>(::getpid())));
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  void Write(const std::string& relative, const std::string& contents) {
    const std::filesystem::path path = root_ / relative;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::binary);
    out << contents;
  }

  std::filesystem::path root_;
};

TEST_F(FileWebTest, LoadsHtmlTreeWithIndexMapping) {
  Write("host.example/index.html", "<title>Home</title>");
  Write("host.example/sub/page.html", "<title>Page</title>");
  Write("host.example/sub/index.html", "<title>Sub Home</title>");
  Write("host.example/skip.txt", "not html");
  Write("other.example/a.htm", "<title>A</title>");
  WebGraph web;
  auto stats = LoadWebFromDirectory(root_.string(), &web);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->documents_loaded, 4u);
  EXPECT_EQ(stats->hosts, 2u);
  EXPECT_EQ(stats->files_skipped, 1u);
  EXPECT_TRUE(web.Has("http://host.example/"));
  EXPECT_TRUE(web.Has("http://host.example/sub/page.html"));
  EXPECT_TRUE(web.Has("http://host.example/sub/"));
  EXPECT_TRUE(web.Has("http://other.example/a.htm"));
  EXPECT_EQ(web.Find("http://host.example/")->parsed.title, "Home");
}

TEST_F(FileWebTest, RelativeLinksResolveAgainstDerivedUrls) {
  Write("h.example/index.html", "<a href=\"sub/leaf.html\">x</a>");
  Write("h.example/sub/leaf.html", "<a href=\"../index.html\">up</a>");
  WebGraph web;
  auto stats = LoadWebFromDirectory(root_.string(), &web);
  ASSERT_TRUE(stats.ok());
  const WebGraph::Document* home = web.Find("http://h.example/");
  ASSERT_NE(home, nullptr);
  ASSERT_EQ(home->parsed.anchors.size(), 1u);
  EXPECT_EQ(home->parsed.anchors[0].resolved.ToString(),
            "http://h.example/sub/leaf.html");
  EXPECT_EQ(home->parsed.anchors[0].ltype, html::LinkType::kLocal);
}

TEST_F(FileWebTest, SaveLoadRoundTripsASynthWeb) {
  SynthWebOptions options;
  options.seed = 6;
  options.num_sites = 3;
  options.docs_per_site = 5;
  const WebGraph original = GenerateSynthWeb(options);
  auto written = SaveWebToDirectory(original, root_.string());
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  EXPECT_EQ(written.value(), original.num_documents());
  WebGraph reloaded;
  auto stats = LoadWebFromDirectory(root_.string(), &reloaded);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(reloaded.AllUrls(), original.AllUrls());
  for (const std::string& url : original.AllUrls()) {
    EXPECT_EQ(reloaded.Find(url)->raw_html, original.Find(url)->raw_html)
        << url;
  }
}

TEST_F(FileWebTest, SaveRejectsFileDirectoryConflicts) {
  // "/lab" is both a document and the prefix of "/lab/projects" — no
  // faithful filesystem image exists.
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://h/lab", "a").ok());
  ASSERT_TRUE(web.AddDocument("http://h/lab/projects", "b").ok());
  EXPECT_EQ(SaveWebToDirectory(web, root_.string()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FileWebTest, MissingDirectoryFails) {
  WebGraph web;
  EXPECT_EQ(LoadWebFromDirectory((root_ / "nope").string(), &web)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(FileWebTest, EmptyTreeFails) {
  std::filesystem::create_directories(root_ / "host.example");
  WebGraph web;
  EXPECT_EQ(LoadWebFromDirectory(root_.string(), &web).status().code(),
            StatusCode::kNotFound);
}

// -- Single-pass parser vs. the legacy oracle -----------------------------------

// Every stored parse in `web` (or every `stride`-th URL) must equal the legacy
// parser's reading of the stored body, field by field.
void ExpectWebMatchesLegacy(const WebGraph& web, size_t stride = 1) {
  const std::vector<std::string> urls = web.AllUrls();
  ASSERT_FALSE(urls.empty());
  for (size_t i = 0; i < urls.size(); i += stride) {
    const WebGraph::Document* doc = web.Find(urls[i]);
    ASSERT_NE(doc, nullptr) << urls[i];
    EXPECT_EQ(legacy_html::DiffAgainstLegacy(doc->parsed, doc->raw_html), "")
        << urls[i];
  }
}

TEST(LegacyOracleTest, EagerSynthWebsMatch) {
  for (uint64_t seed : {1, 2, 3}) {
    SynthWebOptions options;
    options.seed = seed;
    options.num_sites = 6;
    options.docs_per_site = 20;
    options.title_keyword_prob = 0.3;
    options.body_keyword_prob = 0.3;
    ExpectWebMatchesLegacy(GenerateSynthWeb(options));
  }
}

TEST(LegacyOracleTest, SampledColdCrawlShapedLazyWebMatches) {
  // The cold_crawl benchmark web's shape: 400 sites x 250 lazy pages of six
  // 60-word filler paragraphs; 1,000 pages sampled evenly.
  SynthWebOptions options;
  options.seed = 5;
  options.num_sites = 400;
  options.docs_per_site = 250;
  options.filler_paragraphs = 6;
  options.words_per_paragraph = 60;
  options.lazy_pages = true;
  const WebGraph web = GenerateSynthWeb(options);
  ExpectWebMatchesLegacy(web, web.num_documents() / 1000);
  EXPECT_EQ(web.num_materialized(), 1000u);
}

TEST(LegacyOracleTest, UniversityWebsMatch) {
  for (uint64_t seed : {7, 8, 9, 10}) {
    UniversityOptions options;
    options.seed = seed;
    ExpectWebMatchesLegacy(GenerateUniversityWeb(options).web);
  }
}

TEST(LegacyOracleTest, TopologyWebsMatch) {
  ExpectWebMatchesLegacy(BuildFig1Scenario().web);
  ExpectWebMatchesLegacy(BuildFig5Scenario().web);
  ExpectWebMatchesLegacy(BuildCampusScenario().web);
}

// -- Exact-size page storage ---------------------------------------------------------

void ExpectExactSize(const WebGraph::Document& doc) {
  EXPECT_EQ(doc.raw_html.capacity(), doc.raw_html.size()) << doc.url.ToString();
  EXPECT_EQ(doc.parsed.text.capacity(), doc.parsed.text.size())
      << doc.url.ToString();
}

TEST(WebGraphTest, BodiesStoredAtExactSize) {
  SynthWebOptions options;
  options.num_sites = 2;
  options.docs_per_site = 3;
  options.lazy_pages = true;
  WebGraph lazy = GenerateSynthWeb(options);
  for (const std::string& url : lazy.AllUrls()) {
    ExpectExactSize(*lazy.Find(url));  // Materialize
  }
  // Bodies arrive with growth slack the graph must not keep.
  auto slack_body = [](std::string_view content) {
    std::string html;
    html.reserve(4096);
    html = content;
    return html;
  };
  const std::string body = "<title>Exact</title><p>a body past SSO size</p>";
  const std::string edit = body + "<b>and an edit that grows it</b>";
  WebGraph web;
  ASSERT_TRUE(web.AddDocument("http://a/x", slack_body(body)).ok());
  ExpectExactSize(*web.Find("http://a/x"));  // AddDocument
  ASSERT_TRUE(web.UpdateDocument("http://a/x", slack_body(edit)).ok());
  ExpectExactSize(*web.Find("http://a/x"));  // UpdateDocument
  const std::string cold = lazy.AllUrls().front();
  ASSERT_TRUE(lazy.UpdateDocument(cold, slack_body(edit)).ok());
  ExpectExactSize(*lazy.Find(cold));
}

}  // namespace
}  // namespace webdis::web
