#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "html/entities.h"
#include "html/parser.h"
#include "html/tokenizer.h"
#include "html/url.h"
#include "tests/legacy_parser.h"

namespace webdis::html {
namespace {

// -- URL ----------------------------------------------------------------------

TEST(UrlTest, ParseFullUrl) {
  auto url = ParseUrl("http://www.csa.iisc.ernet.in/Labs#top");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->scheme, "http");
  EXPECT_EQ(url->host, "www.csa.iisc.ernet.in");
  EXPECT_EQ(url->path, "/Labs");
  EXPECT_EQ(url->fragment, "top");
  EXPECT_EQ(url->ToString(), "http://www.csa.iisc.ernet.in/Labs#top");
  EXPECT_EQ(url->ResourceKey(), "http://www.csa.iisc.ernet.in/Labs");
}

TEST(UrlTest, HostOnlyGetsRootPath) {
  auto url = ParseUrl("http://dsl.serc.iisc.ernet.in");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->path, "/");
}

TEST(UrlTest, SchemeDefaultsToHttp) {
  auto url = ParseUrl("example.com/page");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->scheme, "http");
  EXPECT_EQ(url->host, "example.com");
}

TEST(UrlTest, EmptyAndHostlessRejected) {
  EXPECT_FALSE(ParseUrl("").ok());
  EXPECT_FALSE(ParseUrl("   ").ok());
  EXPECT_FALSE(ParseUrl("http:///path").ok());
}

TEST(UrlTest, PathNormalization) {
  auto url = ParseUrl("http://h/a/b/../c/./d");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->path, "/a/c/d");
  auto url2 = ParseUrl("http://h/../..");
  ASSERT_TRUE(url2.ok());
  EXPECT_EQ(url2->path, "/");
}

TEST(UrlTest, TildePathsSupported) {
  auto url = ParseUrl("http://www2.csa.iisc.ernet.in/~gang/lab");
  ASSERT_TRUE(url.ok());
  EXPECT_EQ(url->path, "/~gang/lab");
}

struct ResolveCase {
  const char* base;
  const char* href;
  const char* expected;  // ResourceKey + optional #fragment
};

// Names each case by its inputs. Without this gtest prints the three raw
// pointers, and the discovered test names change with every process layout.
void PrintTo(const ResolveCase& c, std::ostream* os) {
  *os << c.base << " + " << c.href;
}

// The resource key a URL is stored under must parse back to the same node:
// ParseUrl trims a whole URL, so no path may end in space (fuzz_url).
TEST(UrlTest, PathNeverEndsInSpace) {
  EXPECT_EQ(ParseUrl("http://a/b \t#frag")->path, "/b");
  EXPECT_EQ(ParseUrl("http://a/b /.")->path, "/b");
  EXPECT_EQ(ParseUrl("http://a/b/.\r#")->path, "/b");
  EXPECT_EQ(ParseUrl("http://a/b /c")->path, "/b/c");
  EXPECT_EQ(ParseUrl("http://a/ b/")->path, "/ b/");
  const Url base = ParseUrl("http://a/dir/page").value();
  EXPECT_EQ(ResolveUrl(base, "b.html #sec")->ResourceKey(),
            "http://a/dir/b.html");
  for (const char* text : {"http://a/b \t#frag", "http://a/b /.", "x://h /#"}) {
    const std::string key = ParseUrl(text)->ResourceKey();
    EXPECT_EQ(ParseUrl(key)->ResourceKey(), key) << text;
  }
}

class ResolveUrlTest : public ::testing::TestWithParam<ResolveCase> {};

TEST_P(ResolveUrlTest, Resolves) {
  const ResolveCase& c = GetParam();
  auto base = ParseUrl(c.base);
  ASSERT_TRUE(base.ok());
  auto resolved = ResolveUrl(base.value(), c.href);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  EXPECT_EQ(resolved->ToString(), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ResolveUrlTest,
    ::testing::Values(
        ResolveCase{"http://a/b/c", "http://x/y", "http://x/y"},
        ResolveCase{"http://a/b/c", "/root", "http://a/root"},
        ResolveCase{"http://a/b/c", "sibling", "http://a/b/sibling"},
        ResolveCase{"http://a/b/c", "../up", "http://a/up"},
        ResolveCase{"http://a/b/c", "#frag", "http://a/b/c#frag"},
        ResolveCase{"http://a/b/", "leaf", "http://a/b/leaf"},
        ResolveCase{"http://a/", "d/e", "http://a/d/e"},
        ResolveCase{"http://a/b/c", "d#f", "http://a/b/d#f"}));

TEST(UrlTest, ResolveEmptyHrefRejected) {
  auto base = ParseUrl("http://a/b");
  ASSERT_TRUE(base.ok());
  EXPECT_FALSE(ResolveUrl(base.value(), "").ok());
}

TEST(ClassifyLinkTest, InteriorLocalGlobal) {
  const Url base = ParseUrl("http://a/page").value();
  EXPECT_EQ(ClassifyLink(base, ParseUrl("http://a/page#sec").value()),
            LinkType::kInterior);
  EXPECT_EQ(ClassifyLink(base, ParseUrl("http://a/other").value()),
            LinkType::kLocal);
  EXPECT_EQ(ClassifyLink(base, ParseUrl("http://b/page").value()),
            LinkType::kGlobal);
}

TEST(LinkTypeTest, SymbolRoundTrip) {
  for (LinkType t : {LinkType::kInterior, LinkType::kLocal,
                     LinkType::kGlobal, LinkType::kNull}) {
    auto parsed = LinkTypeFromSymbol(LinkTypeSymbol(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), t);
  }
  EXPECT_FALSE(LinkTypeFromSymbol('X').ok());
}

// -- Entities -------------------------------------------------------------------

TEST(EntitiesTest, NamedEntities) {
  EXPECT_EQ(DecodeEntities("a &amp; b &lt;c&gt; &quot;d&quot;"),
            "a & b <c> \"d\"");
  EXPECT_EQ(DecodeEntities("x&nbsp;y"), "x y");
}

TEST(EntitiesTest, NumericEntities) {
  EXPECT_EQ(DecodeEntities("&#65;&#66;"), "AB");
  EXPECT_EQ(DecodeEntities("&#200;"), "?");  // non-ASCII placeholder
}

TEST(EntitiesTest, UnknownAndMalformedPassThrough) {
  EXPECT_EQ(DecodeEntities("&bogus; &amp"), "&bogus; &amp");
  EXPECT_EQ(DecodeEntities("lone & ampersand"), "lone & ampersand");
}

TEST(EntitiesTest, EscapeRoundTrip) {
  const std::string original = "a & b < c > \"d\"";
  EXPECT_EQ(DecodeEntities(EscapeForHtml(original)), original);
}

// -- Tokenizer ------------------------------------------------------------------

TEST(TokenizerTest, BasicTags) {
  auto tokens = Tokenize("<html><body>Hi</body></html>");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kStartTag);
  EXPECT_EQ(tokens[0].text, "html");
  EXPECT_EQ(tokens[2].kind, TokenKind::kText);
  EXPECT_EQ(tokens[2].text, "Hi");
  EXPECT_EQ(tokens[3].kind, TokenKind::kEndTag);
  EXPECT_EQ(tokens[3].text, "body");
}

TEST(TokenizerTest, AttributesQuotedAndBare) {
  auto tokens = Tokenize("<a href=\"http://x/y\" target=_top checked>");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].Attr("href"), "http://x/y");
  EXPECT_EQ(tokens[0].Attr("target"), "_top");
  EXPECT_EQ(tokens[0].Attr("checked"), "");
  EXPECT_EQ(tokens[0].Attr("absent"), "");
}

TEST(TokenizerTest, AttributeNamesLowerCased) {
  auto tokens = Tokenize("<A HREF='x'>");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[0].Attr("href"), "x");
}

TEST(TokenizerTest, CommentsAndDoctype) {
  auto tokens = Tokenize("<!DOCTYPE html><!-- note -->text");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kDoctype);
  EXPECT_EQ(tokens[1].kind, TokenKind::kComment);
  EXPECT_EQ(tokens[1].text, " note ");
  EXPECT_EQ(tokens[2].kind, TokenKind::kText);
}

TEST(TokenizerTest, SelfClosingTag) {
  auto tokens = Tokenize("<hr/>");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_TRUE(tokens[0].self_closing);
}

TEST(TokenizerTest, MalformedInputNeverCrashes) {
  for (const char* input :
       {"<", "<>", "< >", "<a", "<!--", "<a href=\"unterminated",
        "</", "<<<>>>", "a<b>c<", "<a href=>"}) {
    auto tokens = Tokenize(input);
    (void)tokens;  // tolerance: any output is fine, just no crash
  }
}

// -- Document parser --------------------------------------------------------------

Url TestUrl() { return ParseUrl("http://host.example/dir/page").value(); }

TEST(ParserTest, TitleAndText) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(),
      "<html><head><title> My   Title </title></head>"
      "<body><p>Hello  world</p></body></html>");
  EXPECT_EQ(doc.title, "My Title");
  EXPECT_EQ(doc.text, "Hello world");
  EXPECT_GT(doc.length, 0u);
}

TEST(ParserTest, AnchorsExtractedAndClassified) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(),
      "<a href=\"other\">Sibling</a>"
      "<a href=\"http://elsewhere.example/\">Away</a>"
      "<a href=\"#sec\">Here</a>"
      "<a href=\"\">skipped</a>");
  ASSERT_EQ(doc.anchors.size(), 3u);
  EXPECT_EQ(doc.anchors[0].label, "Sibling");
  EXPECT_EQ(doc.anchors[0].resolved.ToString(), "http://host.example/dir/other");
  EXPECT_EQ(doc.anchors[0].ltype, LinkType::kLocal);
  EXPECT_EQ(doc.anchors[1].ltype, LinkType::kGlobal);
  EXPECT_EQ(doc.anchors[2].ltype, LinkType::kInterior);
}

TEST(ParserTest, AnchorLabelDecodedAndCollapsed) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(), "<a href=\"x\">  A &amp;  B  </a>");
  ASSERT_EQ(doc.anchors.size(), 1u);
  EXPECT_EQ(doc.anchors[0].label, "A & B");
}

TEST(ParserTest, ContainerRelInfons) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(), "<b>bold bit</b><h2>head</h2><p>para text</p>");
  ASSERT_EQ(doc.rel_infons.size(), 3u);
  EXPECT_EQ(doc.rel_infons[0].delimiter, "b");
  EXPECT_EQ(doc.RelInfonText(doc.rel_infons[0]), "bold bit");
  EXPECT_EQ(doc.rel_infons[1].delimiter, "h2");
  EXPECT_EQ(doc.rel_infons[2].delimiter, "p");
}

TEST(ParserTest, HrRelInfonsCaptureBlockBeforeRule) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(),
      "intro words<hr>CONVENER Jayant Haritsa<hr>MEMBERS others<hr>");
  std::vector<std::string> hr_texts;
  for (const ParsedRelInfon& r : doc.rel_infons) {
    if (r.delimiter == "hr") hr_texts.emplace_back(doc.RelInfonText(r));
  }
  ASSERT_EQ(hr_texts.size(), 3u);
  EXPECT_EQ(hr_texts[0], "intro words");
  EXPECT_EQ(hr_texts[1], "CONVENER Jayant Haritsa");
  EXPECT_EQ(hr_texts[2], "MEMBERS others");
}

TEST(ParserTest, NestedContainersEachProduceRelInfon) {
  const ParsedDocument doc =
      ParseDocument(TestUrl(), "<p>outer <b>inner</b> tail</p>");
  ASSERT_EQ(doc.rel_infons.size(), 2u);
  EXPECT_EQ(doc.rel_infons[0].delimiter, "b");
  EXPECT_EQ(doc.RelInfonText(doc.rel_infons[0]), "inner");
  EXPECT_EQ(doc.rel_infons[1].delimiter, "p");
  EXPECT_EQ(doc.RelInfonText(doc.rel_infons[1]), "outer inner tail");
}

TEST(ParserTest, ScriptAndStyleContentSkipped) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(),
      "before<script>var x = '<b>not text</b>';</script>after"
      "<style>b { color: red }</style>");
  EXPECT_EQ(doc.text, "beforeafter");
  EXPECT_TRUE(doc.rel_infons.empty());
}

TEST(ParserTest, MisnestedTagsRecovered) {
  const ParsedDocument doc =
      ParseDocument(TestUrl(), "<b><i>both</b></i> rest");
  // No crash; the <b> rel-infon covers "both".
  bool found_b = false;
  for (const ParsedRelInfon& r : doc.rel_infons) {
    if (r.delimiter == "b") {
      found_b = true;
      EXPECT_EQ(doc.RelInfonText(r), "both");
    }
  }
  EXPECT_TRUE(found_b);
}

TEST(ParserTest, UnresolvableHrefDropped) {
  const ParsedDocument doc =
      ParseDocument(TestUrl(), "<a href=\"   \">blank</a>ok");
  EXPECT_TRUE(doc.anchors.empty());
}

TEST(ParserTest, FramesAndAreasAreAnchors) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(),
      "<frameset><frame src=\"/nav.html\"><frame src=\"body.html\">"
      "</frameset>"
      "<map><area href=\"http://far.example/x\"></map>"
      "<iframe src=\"/embedded\"></iframe>"
      "<frame>");  // src-less frame ignored
  ASSERT_EQ(doc.anchors.size(), 4u);
  EXPECT_EQ(doc.anchors[0].label, "[frame]");
  EXPECT_EQ(doc.anchors[0].resolved.ToString(), "http://host.example/nav.html");
  EXPECT_EQ(doc.anchors[0].ltype, LinkType::kLocal);
  EXPECT_EQ(doc.anchors[1].resolved.ToString(),
            "http://host.example/dir/body.html");
  EXPECT_EQ(doc.anchors[2].label, "[area]");
  EXPECT_EQ(doc.anchors[2].ltype, LinkType::kGlobal);
  EXPECT_EQ(doc.anchors[3].label, "[iframe]");
}

TEST(ParserTest, EntitiesDecodedInTextAndTitle) {
  const ParsedDocument doc = ParseDocument(
      TestUrl(), "<title>A &amp; B</title><p>x &lt; y</p>");
  EXPECT_EQ(doc.title, "A & B");
  EXPECT_EQ(doc.text, "x < y");
}

// -- Single-pass parser vs. the legacy oracle -----------------------------------

TEST(LegacyOracleTest, EdgeCasesMatchLegacyParser) {
  for (const char* html : legacy_html::HtmlEdgeCases()) {
    const ParsedDocument doc = ParseDocument(TestUrl(), html);
    EXPECT_EQ(legacy_html::DiffAgainstLegacy(doc, html), "") << html;
  }
}

TEST(LegacyOracleTest, EveryPrefixOfEdgeCasesMatches) {
  // Cutting a document anywhere yields unterminated tags, comments,
  // attribute values and entities in every position.
  for (const char* html : legacy_html::HtmlEdgeCases()) {
    const std::string full(html);
    for (size_t n = 0; n <= full.size(); ++n) {
      const std::string prefix = full.substr(0, n);
      const ParsedDocument doc = ParseDocument(TestUrl(), prefix);
      EXPECT_EQ(legacy_html::DiffAgainstLegacy(doc, prefix), "") << prefix;
    }
  }
}

TEST(TokenizerTest, EndJunkIsTwoTextTokens) {
  auto tokens = Tokenize("</ junk>");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kText);
  EXPECT_EQ(tokens[0].text, "<");
  EXPECT_EQ(tokens[1].kind, TokenKind::kText);
  EXPECT_EQ(tokens[1].text, " junk>");
}

TEST(TokenizerTest, KnownTagsResolvedCaseInsensitively) {
  auto tokens = Tokenize("<BlockQuote><HTML></bR>");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].tag, Tag::kBlockquote);
  EXPECT_EQ(tokens[0].text, "blockquote");
  EXPECT_EQ(tokens[1].tag, Tag::kOther);
  EXPECT_EQ(tokens[1].text, "HTML");  // unknown names stay as written
  EXPECT_EQ(tokens[2].kind, TokenKind::kEndTag);
  EXPECT_EQ(tokens[2].tag, Tag::kBr);
}

TEST(ParserTest, RelInfonSpansSurviveCopyAndMove) {
  ParsedDocument doc = ParseDocument(TestUrl(), "<p>a <b>b</b> c</p>");
  const ParsedDocument copy = doc;
  const ParsedDocument moved = std::move(doc);
  ASSERT_EQ(copy.rel_infons.size(), 2u);
  EXPECT_EQ(copy.RelInfonText(copy.rel_infons[0]), "b");
  EXPECT_EQ(moved.RelInfonText(moved.rel_infons[1]), "a b c");
}

TEST(ParserTest, NestedRelInfonsCostLinearMemory) {
  // 10^4 nested <b> elements: the i-th from the inside encloses i words, so
  // the rel-infon texts total ~n^2/2 words. Copying each would hold ~2.5e8
  // bytes; as spans of the one text buffer they hold none.
  constexpr size_t kDepth = 10000;
  std::string html;
  for (size_t i = 0; i < kDepth; ++i) html += "<b>w ";
  for (size_t i = 0; i < kDepth; ++i) html += "</b>";
  const ParsedDocument doc = ParseDocument(TestUrl(), html);
  ASSERT_EQ(doc.rel_infons.size(), kDepth);
  EXPECT_EQ(doc.text.size(), 2 * kDepth - 1);
  EXPECT_EQ(doc.RelInfonText(doc.rel_infons.front()), "w");
  EXPECT_EQ(doc.RelInfonText(doc.rel_infons.back()), doc.text);
  // A rel-infon owns no heap memory, so its text can only live in doc.text:
  // beyond text, the rel-infons cost their fixed-size slots — a view of the
  // static tag name plus an 8 B span — and the vector's growth slack.
  static_assert(std::is_trivially_copyable_v<ParsedRelInfon>);
  static_assert(sizeof(ParsedRelInfon) <= sizeof(std::string_view) + 8);
  const size_t slot_bytes = doc.rel_infons.capacity() * sizeof(ParsedRelInfon);
  EXPECT_LE(slot_bytes, 2 * kDepth * sizeof(ParsedRelInfon));
  size_t spanned = 0;
  for (const ParsedRelInfon& r : doc.rel_infons) spanned += r.size;
  EXPECT_EQ(spanned, kDepth * kDepth);  // what copies would have held
  EXPECT_EQ(doc.text.capacity(), doc.text.size());  // exact size
}

}  // namespace
}  // namespace webdis::html
