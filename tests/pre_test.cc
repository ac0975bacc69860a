#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "pre/log_equivalence.h"
#include "pre/pre.h"
#include "serialize/encoder.h"

namespace webdis::pre {
namespace {

using html::LinkType;

constexpr LinkType I = LinkType::kInterior;
constexpr LinkType L = LinkType::kLocal;
constexpr LinkType G = LinkType::kGlobal;

Pre P(const std::string& text) {
  auto parsed = Pre::Parse(text);
  EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
  return parsed.value();
}

// -- Parsing ------------------------------------------------------------------

TEST(PreParseTest, SingleSymbols) {
  EXPECT_TRUE(P("L").Matches({L}));
  EXPECT_TRUE(P("G").Matches({G}));
  EXPECT_TRUE(P("I").Matches({I}));
  EXPECT_TRUE(P("N").ContainsNull());
}

TEST(PreParseTest, PaperExamples) {
  // "N | G·(L*4)" from Section 2.
  const Pre p = P("N | G.(L*4)");
  EXPECT_TRUE(p.ContainsNull());
  EXPECT_TRUE(p.Matches({G}));
  EXPECT_TRUE(p.Matches({G, L, L, L, L}));
  EXPECT_FALSE(p.Matches({G, L, L, L, L, L}));
  EXPECT_FALSE(p.Matches({L}));
}

TEST(PreParseTest, MiddleDotAccepted) {
  // UTF-8 middle dot, exactly as the paper writes PREs.
  const Pre p = P("G\xC2\xB7(G|L)");
  EXPECT_TRUE(p.Matches({G, G}));
  EXPECT_TRUE(p.Matches({G, L}));
  EXPECT_FALSE(p.Matches({G}));
}

TEST(PreParseTest, UnboundedStar) {
  const Pre p = P("L*");
  EXPECT_TRUE(p.ContainsNull());
  EXPECT_TRUE(p.Matches({L, L, L, L, L, L, L, L}));
  EXPECT_FALSE(p.Matches({L, G}));
}

TEST(PreParseTest, ZeroBoundIsEpsilon) {
  const Pre p = P("L*0");
  EXPECT_TRUE(p.ContainsNull());
  EXPECT_FALSE(p.Matches({L}));
}

TEST(PreParseTest, Whitespace) {
  EXPECT_TRUE(P("  G . ( G | L )  ").Matches({G, L}));
}

TEST(PreParseTest, Errors) {
  EXPECT_FALSE(Pre::Parse("").ok());
  EXPECT_FALSE(Pre::Parse("X").ok());
  EXPECT_FALSE(Pre::Parse("G.(L").ok());
  EXPECT_FALSE(Pre::Parse("G L").ok());  // juxtaposition is not concat
  EXPECT_FALSE(Pre::Parse("|G").ok());
  EXPECT_FALSE(Pre::Parse("G.").ok());
  EXPECT_FALSE(Pre::Parse("G)").ok());
}

// -- Depth and width caps -----------------------------------------------------
//
// Pre::Parse refuses what DecodeFrom would refuse, so every PRE it accepts
// can cross the wire, and deep input is refused before it can overflow the
// stack.

/// `(G.(L|(G.(…))))` with `levels` alternating concatenations and
/// alternations: a tree exactly `levels` deep that nothing flattens.
std::string AlternatingPre(int levels) {
  std::string text = "L";
  for (int level = 1; level <= levels; ++level) {
    text = (level % 2 == 1 ? "G.(" : "L|(") + text + ")";
  }
  return text;
}

/// Parses `text`; if accepted, the PRE must survive EncodeTo/DecodeFrom
/// unchanged. Returns whether Parse accepted it.
bool ParsesAndRoundTrips(const std::string& text) {
  auto parsed = Pre::Parse(text);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << parsed.status().ToString();
    return false;
  }
  serialize::Encoder enc;
  parsed->EncodeTo(&enc);
  serialize::Decoder dec(enc.data());
  auto decoded = Pre::DecodeFrom(&dec);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.ok() && parsed->Equals(decoded.value()));
  return true;
}

TEST(PreDepthCapTest, DeepParenthesesAreInvalidArgument) {
  const std::string text =
      std::string(10000, '(') + "L" + std::string(10000, ')');
  auto parsed = Pre::Parse(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(PreDepthCapTest, LongStarChainIsInvalidArgument) {
  auto parsed = Pre::Parse("L" + std::string(100000, '*'));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(PreDepthCapTest, DepthSixtyFiveNeitherParsesNorDecodes) {
  // The tree the parser used to accept: DecodeFrom rejects its encoding.
  Pre deep = Pre::Link(L);
  for (int level = 1; level <= 65; ++level) {
    deep = level % 2 == 1 ? Pre::Concat(Pre::Link(G), deep)
                          : Pre::Alt(Pre::Link(L), deep);
  }
  serialize::Encoder enc;
  deep.EncodeTo(&enc);
  serialize::Decoder dec(enc.data());
  EXPECT_EQ(Pre::DecodeFrom(&dec).status().code(), StatusCode::kCorruption);
  EXPECT_EQ(deep.CheckEncodable().code(), StatusCode::kInvalidArgument);

  auto parsed = Pre::Parse(AlternatingPre(65));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(PreDepthCapTest, EveryAcceptedPreRoundTrips) {
  for (int levels = 1; levels <= 80; ++levels) {
    SCOPED_TRACE("levels=" + std::to_string(levels));
    EXPECT_EQ(ParsesAndRoundTrips(AlternatingPre(levels)), levels <= 64);
    EXPECT_EQ(ParsesAndRoundTrips("L" + std::string(levels, '*')),
              levels <= 64);
  }
  // Redundant parentheses add no tree level, but still count toward the
  // nesting cap.
  EXPECT_TRUE(ParsesAndRoundTrips(std::string(64, '(') + "L" +
                                  std::string(64, ')')));
  EXPECT_FALSE(ParsesAndRoundTrips(std::string(65, '(') + "L" +
                                   std::string(65, ')')));
  // Width: a concatenation or alternation carries at most kMaxOperands
  // operands on the wire, also after flattening nested groups.
  const auto concat = [](int n) {
    std::string text = "L";
    for (int i = 1; i < n; ++i) text += ".L";
    return text;
  };
  const auto alternation = [](int n) {
    std::string text = "L*1";
    for (int i = 2; i <= n; ++i) text += "|L*" + std::to_string(i);
    return text;
  };
  EXPECT_TRUE(ParsesAndRoundTrips(concat(1024)));
  EXPECT_FALSE(ParsesAndRoundTrips(concat(1025)));
  EXPECT_FALSE(ParsesAndRoundTrips("(" + concat(600) + ").(" + concat(600) +
                                   ")"));
  EXPECT_TRUE(ParsesAndRoundTrips(alternation(1024)));
  EXPECT_FALSE(ParsesAndRoundTrips(alternation(1025)));
}

TEST(PreDepthCapTest, WideAlternationIsInvalidArgument) {
  // 16,000 distinct branches survive dedup (which hashes their keys, so
  // this stays linear), and the kMaxOperands cap refuses the result.
  std::string text = "L*1";
  for (int i = 2; i <= 16000; ++i) text += "|L*" + std::to_string(i);
  auto parsed = Pre::Parse(text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(PreParseTest, ToStringRoundTrip) {
  for (const char* text :
       {"L", "N", "G.(G | L)", "N | G.L*4", "L*", "(L | G)*3.I",
        "G.L*1", "(I | L | G)*2"}) {
    const Pre p = P(text);
    const Pre reparsed = P(p.ToString());
    EXPECT_TRUE(p.Equals(reparsed)) << text << " -> " << p.ToString();
  }
}

// -- Nullability and first links -------------------------------------------------

TEST(PreTest, ContainsNull) {
  EXPECT_TRUE(Pre::Empty().ContainsNull());
  EXPECT_FALSE(Pre::Never().ContainsNull());
  EXPECT_FALSE(P("L").ContainsNull());
  EXPECT_TRUE(P("L*3").ContainsNull());
  EXPECT_TRUE(P("N").ContainsNull());
  EXPECT_TRUE(P("N | G").ContainsNull());
  EXPECT_FALSE(P("G.L*3").ContainsNull());
  EXPECT_TRUE(P("L*1.G*1").ContainsNull());
}

TEST(PreTest, FirstLinks) {
  const auto links_of = [](const std::string& text) {
    std::set<LinkType> out;
    for (LinkType t : P(text).FirstLinks()) out.insert(t);
    return out;
  };
  EXPECT_EQ(links_of("L"), (std::set<LinkType>{L}));
  EXPECT_EQ(links_of("G.(G|L)"), (std::set<LinkType>{G}));
  EXPECT_EQ(links_of("G|L"), (std::set<LinkType>{G, L}));
  EXPECT_EQ(links_of("L*2.G"), (std::set<LinkType>{L, G}));
  EXPECT_EQ(links_of("N"), (std::set<LinkType>{}));
  EXPECT_EQ(links_of("(I|L|G)*1"), (std::set<LinkType>{I, L, G}));
}

// -- Derivatives -------------------------------------------------------------------

TEST(PreDeriveTest, SimpleCases) {
  EXPECT_TRUE(P("L").Derive(L).ContainsNull());
  EXPECT_TRUE(P("L").Derive(G).IsNever());
  EXPECT_TRUE(P("G.L").Derive(G).Equals(P("L")));
  EXPECT_TRUE(P("L*3").Derive(L).Equals(P("L*2")));
  EXPECT_TRUE(P("L*1").Derive(L).ContainsNull());
  EXPECT_TRUE(P("L*").Derive(L).Equals(P("L*")));
  EXPECT_TRUE(P("G|L").Derive(G).ContainsNull());
}

TEST(PreDeriveTest, ConcatThroughNullableHead) {
  // d_G(L*2.G) must reach the G after zero L's.
  const Pre p = P("L*2.G");
  EXPECT_TRUE(p.Derive(G).ContainsNull());
  EXPECT_TRUE(p.Derive(L).Equals(P("L*1.G")));
}

TEST(PreDeriveTest, NullLinkHasNoDerivative) {
  EXPECT_TRUE(P("N").Derive(L).IsNever());
  EXPECT_TRUE(P("N").Derive(G).IsNever());
}

TEST(PreDeriveTest, DeadBranchesPrune) {
  const Pre p = P("(G.L) | (L.G)");
  const Pre after_g = p.Derive(G);
  EXPECT_TRUE(after_g.Equals(P("L")));
}

/// Property: for every path in EnumeratePaths, Matches() agrees; and for
/// paths NOT enumerated (up to the length bound), Matches() is false.
class PrePropertyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PrePropertyTest, EnumerationAgreesWithMatching) {
  const Pre p = P(GetParam());
  constexpr size_t kMaxLen = 4;
  const auto paths = p.EnumeratePaths(kMaxLen);
  std::set<std::vector<LinkType>> in_language(paths.begin(), paths.end());
  // Exhaustively try all 3^0..3^4 = 121 paths.
  std::vector<std::vector<LinkType>> all{{}};
  for (size_t len = 1; len <= kMaxLen; ++len) {
    std::vector<std::vector<LinkType>> next;
    for (const auto& prefix : all) {
      if (prefix.size() != len - 1) continue;
      for (LinkType t : {I, L, G}) {
        auto extended = prefix;
        extended.push_back(t);
        next.push_back(extended);
      }
    }
    all.insert(all.end(), next.begin(), next.end());
  }
  for (const auto& path : all) {
    EXPECT_EQ(p.Matches(path), in_language.contains(path))
        << GetParam() << " path len " << path.size();
  }
}

TEST_P(PrePropertyTest, DerivativeConsistentWithMatching) {
  // Property: p matches (t . rest) iff Derive(t) matches rest.
  const Pre p = P(GetParam());
  for (LinkType t : {I, L, G}) {
    const Pre d = p.Derive(t);
    for (const auto& rest : d.EnumeratePaths(3)) {
      std::vector<LinkType> full;
      full.reserve(rest.size() + 1);
      full.push_back(t);
      for (LinkType r : rest) full.push_back(r);
      EXPECT_TRUE(p.Matches(full)) << GetParam();
    }
  }
}

TEST_P(PrePropertyTest, SerializationRoundTrip) {
  const Pre p = P(GetParam());
  serialize::Encoder enc;
  p.EncodeTo(&enc);
  serialize::Decoder dec(enc.data());
  auto decoded = Pre::DecodeFrom(&dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(p.Equals(decoded.value()));
  EXPECT_TRUE(dec.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(
    Pres, PrePropertyTest,
    ::testing::Values("L", "N", "G.(G | L)", "N | G.L*2", "L*", "L*3",
                      "(L | G)*2", "G.L*1", "(I | L)*2.G", "L*2.G",
                      "(G|L).(G|L)", "I.I", "N | N", "(L*1)*2"));

// -- Canonical equality ------------------------------------------------------------

TEST(PreEqualsTest, AlternationOrderInsensitive) {
  EXPECT_TRUE(P("G | L").Equals(P("L | G")));
  EXPECT_TRUE(P("N | G.L").Equals(P("G.L | N")));
  EXPECT_FALSE(P("G.L").Equals(P("L.G")));
}

TEST(PreEqualsTest, DuplicateAltBranchesCollapse) {
  EXPECT_TRUE(P("L | L").Equals(P("L")));
  // Repeats drop out and the survivors keep their first-occurrence order,
  // also across a nested alternation that flattens into the outer one.
  EXPECT_EQ(P("G.L | L*2 | G.L | (N | L*2) | I | L*2 | N").ToString(),
            "G.L | L*2 | N | I");
}

TEST(PreEqualsTest, EpsilonConcatIdentity) {
  EXPECT_TRUE(P("N.L").Equals(P("L")));
  EXPECT_TRUE(P("L.N").Equals(P("L")));
}

// -- Star prefix / multiple rewrite -------------------------------------------------

TEST(StarPrefixTest, DecomposesBareRepeat) {
  StarPrefix sp;
  ASSERT_TRUE(P("L*4").DecomposeStarPrefix(&sp));
  EXPECT_EQ(sp.link, L);
  EXPECT_EQ(sp.bound, 4u);
  EXPECT_FALSE(sp.unbounded);
  EXPECT_TRUE(sp.rest.IsEmpty());
}

TEST(StarPrefixTest, DecomposesRepeatConcat) {
  StarPrefix sp;
  ASSERT_TRUE(P("L*2.G").DecomposeStarPrefix(&sp));
  EXPECT_EQ(sp.link, L);
  EXPECT_EQ(sp.bound, 2u);
  EXPECT_TRUE(sp.rest.Equals(P("G")));
}

TEST(StarPrefixTest, DecomposesUnbounded) {
  StarPrefix sp;
  ASSERT_TRUE(P("L*.G").DecomposeStarPrefix(&sp));
  EXPECT_TRUE(sp.unbounded);
}

TEST(StarPrefixTest, RejectsNonStarShapes) {
  StarPrefix sp;
  EXPECT_FALSE(P("L").DecomposeStarPrefix(&sp));
  EXPECT_FALSE(P("G.L*2").DecomposeStarPrefix(&sp));
  EXPECT_FALSE(P("(G|L)*2").DecomposeStarPrefix(&sp));
  EXPECT_FALSE(P("L | G").DecomposeStarPrefix(&sp));
}

TEST(MultipleRewriteTest, RewritesAsPaperSpecifies) {
  // A*m·B -> A·A*(m-1)·B
  EXPECT_TRUE(P("L*3.G").MultipleRewriteOnce().Equals(P("L.L*2.G")));
  EXPECT_TRUE(P("L*1.G").MultipleRewriteOnce().Equals(P("L.G")));
  EXPECT_TRUE(P("L*2").MultipleRewriteOnce().Equals(P("L.L*1")));
  // Unbounded stays unbounded.
  EXPECT_TRUE(P("L*.G").MultipleRewriteOnce().Equals(P("L.L*.G")));
}

TEST(MultipleRewriteTest, RewriteIsNeverNullable) {
  // The rewrite forces the node to act as a PureRouter (Section 3.1.1).
  for (const char* text : {"L*1.G", "L*5.G", "L*2", "L*.G"}) {
    EXPECT_FALSE(P(text).MultipleRewriteOnce().ContainsNull()) << text;
  }
}

TEST(MultipleRewriteTest, LanguageDifferenceOnly) {
  // L(rewrite) = L(original) minus the paths of length-0 A prefix; union
  // with the logged subset language equals the original.
  const Pre original = P("L*3.G");
  const Pre rewrite = original.MultipleRewriteOnce();
  for (const auto& path : original.EnumeratePaths(4)) {
    const bool starts_with_l = !path.empty() && path[0] == L;
    EXPECT_EQ(rewrite.Matches(path), starts_with_l);
  }
}

// -- Log equivalence (Section 3.1.1 rules) -------------------------------------------

TEST(LogEquivalenceTest, IdenticalIsDuplicate) {
  const LogDecision d = ComparePreForLog(P("G.L*1"), P("G.L*1"));
  EXPECT_EQ(d.comparison, LogComparison::kDuplicate);
}

TEST(LogEquivalenceTest, AlternationOrderStillDuplicate) {
  const LogDecision d = ComparePreForLog(P("G | L"), P("L | G"));
  EXPECT_EQ(d.comparison, LogComparison::kDuplicate);
}

TEST(LogEquivalenceTest, SubsetBoundIsDuplicate) {
  // incoming L*1·G vs logged L*2·G: all paths covered.
  const LogDecision d = ComparePreForLog(P("L*1.G"), P("L*2.G"));
  EXPECT_EQ(d.comparison, LogComparison::kDuplicate);
}

TEST(LogEquivalenceTest, SupersetBoundRewrites) {
  // The paper's own example: logged L*2·G, incoming L*4·G.
  const LogDecision d = ComparePreForLog(P("L*4.G"), P("L*2.G"));
  EXPECT_EQ(d.comparison, LogComparison::kSupersetRewrite);
  ASSERT_TRUE(d.rewritten.has_value());
  EXPECT_TRUE(d.rewritten->Equals(P("L.L*3.G")));
}

TEST(LogEquivalenceTest, UnboundedLoggedCoversEverything) {
  EXPECT_EQ(ComparePreForLog(P("L*7.G"), P("L*.G")).comparison,
            LogComparison::kDuplicate);
}

TEST(LogEquivalenceTest, UnboundedIncomingIsSuperset) {
  const LogDecision d = ComparePreForLog(P("L*.G"), P("L*3.G"));
  EXPECT_EQ(d.comparison, LogComparison::kSupersetRewrite);
  EXPECT_TRUE(d.rewritten->Equals(P("L.L*.G")));
}

TEST(LogEquivalenceTest, DifferentLinkOrRestUnrelated) {
  EXPECT_EQ(ComparePreForLog(P("G*2.L"), P("L*2.L")).comparison,
            LogComparison::kUnrelated);
  EXPECT_EQ(ComparePreForLog(P("L*2.G"), P("L*3.I")).comparison,
            LogComparison::kUnrelated);
  EXPECT_EQ(ComparePreForLog(P("L"), P("G")).comparison,
            LogComparison::kUnrelated);
}

/// Parameterized grid over (m, n) pairs — the paper's case analysis.
class BoundGridTest
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(BoundGridTest, MatchesPaperRule) {
  const auto [m, n] = GetParam();
  const Pre incoming = P("L*" + std::to_string(m) + ".G");
  const Pre logged = P("L*" + std::to_string(n) + ".G");
  const LogDecision d = ComparePreForLog(incoming, logged);
  if (m <= n) {
    EXPECT_EQ(d.comparison, LogComparison::kDuplicate) << m << "," << n;
  } else {
    EXPECT_EQ(d.comparison, LogComparison::kSupersetRewrite) << m << "," << n;
    // The rewrite consumes exactly one leading L.
    EXPECT_TRUE(d.rewritten->Derive(L).Equals(
        P("L*" + std::to_string(m - 1) + ".G")));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BoundGridTest,
    ::testing::Values(std::make_pair(1u, 1u), std::make_pair(1u, 2u),
                      std::make_pair(2u, 1u), std::make_pair(3u, 3u),
                      std::make_pair(5u, 2u), std::make_pair(2u, 5u),
                      std::make_pair(6u, 5u), std::make_pair(1u, 6u)));

// -- EnumeratePaths ---------------------------------------------------------------

TEST(EnumeratePathsTest, ShortlexOrderAndLimit) {
  const Pre p = P("L*");
  const auto paths = p.EnumeratePaths(5);
  ASSERT_EQ(paths.size(), 6u);  // lengths 0..5
  for (size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(paths[i].size(), i);
  }
  EXPECT_EQ(p.EnumeratePaths(100, 10).size(), 10u);  // limit respected
}

TEST(EnumeratePathsTest, NeverHasNoPaths) {
  EXPECT_TRUE(Pre::Never().EnumeratePaths(3).empty());
}

// -- Randomized structural properties ----------------------------------------

/// Generates a random PRE AST of bounded depth.
Pre RandomPre(Rng* rng, int depth) {
  const uint64_t kind = depth <= 0 ? 0 : rng->Uniform(10);
  if (kind < 4) {  // link symbol
    const LinkType links[] = {I, L, G, LinkType::kNull};
    return Pre::Link(links[rng->Uniform(4)]);
  }
  if (kind < 6) {  // concat
    return Pre::Concat(RandomPre(rng, depth - 1), RandomPre(rng, depth - 1));
  }
  if (kind < 8) {  // alt
    return Pre::Alt(RandomPre(rng, depth - 1), RandomPre(rng, depth - 1));
  }
  if (kind < 9) {  // bounded repeat
    return Pre::Repeat(RandomPre(rng, depth - 1),
                       static_cast<uint32_t>(1 + rng->Uniform(4)));
  }
  return Pre::RepeatUnbounded(RandomPre(rng, depth - 1));
}

TEST(RandomPreTest, DerivativeEnumerationAndWireAgree) {
  Rng rng(20260704);
  for (int round = 0; round < 120; ++round) {
    const Pre p = RandomPre(&rng, 3);
    // (1) ToString round-trips through the parser.
    auto reparsed = Pre::Parse(p.ToString());
    ASSERT_TRUE(reparsed.ok()) << p.ToString();
    EXPECT_TRUE(p.Equals(reparsed.value())) << p.ToString();
    // (2) Wire round-trip.
    serialize::Encoder enc;
    p.EncodeTo(&enc);
    serialize::Decoder dec(enc.data());
    auto decoded = Pre::DecodeFrom(&dec);
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(p.Equals(decoded.value())) << p.ToString();
    // (3) Matches agrees with enumeration up to length 3.
    const auto paths = p.EnumeratePaths(3, 500);
    std::set<std::vector<LinkType>> in_language(paths.begin(), paths.end());
    std::vector<std::vector<LinkType>> all{{}};
    for (size_t len = 1; len <= 3; ++len) {
      const size_t before = all.size();
      for (size_t i = 0; i < before; ++i) {
        if (all[i].size() != len - 1) continue;
        for (LinkType t : {I, L, G}) {
          auto extended = all[i];
          extended.push_back(t);
          all.push_back(std::move(extended));
        }
      }
    }
    if (paths.size() < 500) {  // enumeration wasn't truncated
      for (const auto& path : all) {
        EXPECT_EQ(p.Matches(path), in_language.contains(path))
            << p.ToString();
      }
    }
    // (4) Nullability agrees with the empty path.
    EXPECT_EQ(p.ContainsNull(), p.Matches({})) << p.ToString();
    // (5) FirstLinks is exactly the set of viable first symbols.
    for (LinkType t : {I, L, G}) {
      const bool in_first = [&] {
        for (LinkType f : p.FirstLinks()) {
          if (f == t) return true;
        }
        return false;
      }();
      EXPECT_EQ(in_first, !p.Derive(t).IsNever()) << p.ToString();
    }
  }
}

TEST(RandomPreTest, LogEquivalenceDuplicateImpliesSubsetLanguage) {
  // If the rules call `incoming` a duplicate of `logged`, every path of
  // incoming (up to length 4) must be in logged's language.
  Rng rng(42424242);
  int duplicates_checked = 0;
  for (int round = 0; round < 300; ++round) {
    const Pre a = RandomPre(&rng, 2);
    const Pre b = RandomPre(&rng, 2);
    const LogDecision d = ComparePreForLog(a, b);
    if (d.comparison != LogComparison::kDuplicate) continue;
    ++duplicates_checked;
    for (const auto& path : a.EnumeratePaths(4, 200)) {
      EXPECT_TRUE(b.Matches(path))
          << a.ToString() << " vs " << b.ToString();
    }
  }
  EXPECT_GT(duplicates_checked, 5);
}

TEST(RandomPreTest, SupersetRewritePreservesUnion) {
  // For star-prefix pairs, L(rewrite) ∪ L(logged) == L(incoming) up to
  // bounded length: nothing is lost and only the difference is new.
  Rng rng(777);
  for (int round = 0; round < 100; ++round) {
    // n >= 1: A*0·B simplifies to B, which rightly has no star prefix.
    const uint32_t n = 1 + static_cast<uint32_t>(rng.Uniform(4));
    const uint32_t m =
        n + 1 + static_cast<uint32_t>(rng.Uniform(3));  // m > n
    const LinkType a = rng.Uniform(2) == 0 ? L : G;
    const Pre rest = rng.Uniform(2) == 0 ? Pre::Link(G) : Pre::Link(I);
    const Pre logged = Pre::Concat(Pre::Repeat(Pre::Link(a), n), rest);
    const Pre incoming = Pre::Concat(Pre::Repeat(Pre::Link(a), m), rest);
    const LogDecision d = ComparePreForLog(incoming, logged);
    ASSERT_EQ(d.comparison, LogComparison::kSupersetRewrite)
        << incoming.ToString() << " vs " << logged.ToString();
    for (const auto& path : incoming.EnumeratePaths(6, 500)) {
      EXPECT_TRUE(d.rewritten->Matches(path) || logged.Matches(path))
          << incoming.ToString();
    }
    for (const auto& path : d.rewritten->EnumeratePaths(6, 500)) {
      EXPECT_TRUE(incoming.Matches(path)) << incoming.ToString();
    }
  }
}

TEST(RandomPreTest, CachedFormDecisionMatchesDirectComparison) {
  // The log table compares precomputed LogPreForms (one canonicalization per
  // entry) instead of re-canonicalizing both PREs per arrival. The two
  // procedures must make the same decision on every pair — curated shapes
  // plus a random corpus.
  std::vector<std::pair<Pre, Pre>> pairs = {
      {P("G.L*1"), P("G.L*1")},   {P("G | L"), P("L | G")},
      {P("L*1.G"), P("L*2.G")},   {P("L*4.G"), P("L*2.G")},
      {P("L*7.G"), P("L*.G")},    {P("L*.G"), P("L*3.G")},
      {P("G*2.L"), P("L*2.L")},   {P("L*2.G"), P("L*3.I")},
      {P("L"), P("G")},           {P("L*.G"), P("L*.G")},
  };
  Rng rng(20260806);
  for (int round = 0; round < 400; ++round) {
    pairs.emplace_back(RandomPre(&rng, 2), RandomPre(&rng, 2));
  }
  int rewrites = 0;
  for (const auto& [incoming, logged] : pairs) {
    const LogDecision direct = ComparePreForLog(incoming, logged);
    const LogDecision cached = ComparePreForLog(
        incoming, MakeLogPreForm(incoming), MakeLogPreForm(logged));
    ASSERT_EQ(direct.comparison, cached.comparison)
        << incoming.ToString() << " vs " << logged.ToString();
    ASSERT_EQ(direct.rewritten.has_value(), cached.rewritten.has_value());
    if (direct.rewritten.has_value()) {
      ++rewrites;
      EXPECT_TRUE(direct.rewritten->Equals(*cached.rewritten))
          << incoming.ToString() << " vs " << logged.ToString();
    }
  }
  // The corpus must exercise all three decisions for this to mean anything.
  EXPECT_GT(rewrites, 0);
}

}  // namespace
}  // namespace webdis::pre
