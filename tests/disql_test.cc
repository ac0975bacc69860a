#include <gtest/gtest.h>

#include "disql/ast.h"
#include "disql/compiler.h"
#include "disql/lexer.h"
#include "serialize/encoder.h"

namespace webdis::disql {
namespace {

// -- Lexer ----------------------------------------------------------------------

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto tokens = Lex("SELECT from Where DOCUMENT");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 5u);  // 4 + end
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ((*tokens)[static_cast<size_t>(i)].kind, TokenKind::kKeyword);
  }
  EXPECT_EQ((*tokens)[0].text, "select");
  EXPECT_EQ((*tokens)[3].text, "document");
}

TEST(LexerTest, IdentifiersKeepCase) {
  auto tokens = Lex("d0 myAlias");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[1].text, "myAlias");
}

TEST(LexerTest, StringsAndNumbers) {
  auto tokens = Lex("\"http://x/y\" 42");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kString);
  EXPECT_EQ((*tokens)[0].text, "http://x/y");
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kNumber);
  EXPECT_EQ((*tokens)[1].number, 42u);
}

TEST(LexerTest, OperatorsAndPunctuation) {
  auto tokens = Lex(", . * | ( ) = != <> < <= > >=");
  ASSERT_TRUE(tokens.ok());
  const std::vector<TokenKind> expected{
      TokenKind::kComma, TokenKind::kDot,   TokenKind::kStar,
      TokenKind::kPipe,  TokenKind::kLParen, TokenKind::kRParen,
      TokenKind::kEq,    TokenKind::kNe,    TokenKind::kNe,
      TokenKind::kLt,    TokenKind::kLe,    TokenKind::kGt,
      TokenKind::kGe,    TokenKind::kEnd};
  ASSERT_EQ(tokens->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*tokens)[i].kind, expected[i]) << i;
  }
}

TEST(LexerTest, MiddleDotIsDot) {
  auto tokens = Lex("G\xC2\xB7L");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 4u);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kDot);
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Lex("select -- this is a comment\n d0");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 3u);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Lex("\"unterminated").ok());
  EXPECT_FALSE(Lex("a ! b").ok());
  EXPECT_FALSE(Lex("$").ok());
  EXPECT_FALSE(Lex("99999999999999999999").ok());
}

// -- Parser ---------------------------------------------------------------------

constexpr const char* kExample1 =
    "select a.base, a.href\n"
    "from document d such that \"http://dsl.serc.iisc.ernet.in\" L* d\n"
    "     anchor a\n"
    "where a.ltype = \"G\"\n";

constexpr const char* kExample2 =
    "select d0.url, d1.url, r.text\n"
    "from document d0 such that \"http://csa.iisc.ernet.in\" L d0,\n"
    "where d0.title contains \"lab\"\n"
    "    document d1 such that d0 G.(L*1) d1,\n"
    "    relinfon r such that r.delimiter = \"hr\",\n"
    "where (r.text contains \"convener\")\n";

TEST(ParserTest, PaperExampleQuery1) {
  auto q = ParseDisql(kExample1);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->select.size(), 2u);
  EXPECT_EQ(q->select[0].Label(), "a.base");
  ASSERT_EQ(q->steps.size(), 1u);
  const Step& step = q->steps[0];
  EXPECT_EQ(step.doc_alias, "d");
  ASSERT_EQ(step.start_urls.size(), 1u);
  EXPECT_EQ(step.start_urls[0], "http://dsl.serc.iisc.ernet.in");
  EXPECT_TRUE(step.pre.Equals(pre::Pre::Parse("L*").value()));
  ASSERT_EQ(step.aux.size(), 1u);
  EXPECT_EQ(step.aux[0].relation, "anchor");
  EXPECT_EQ(step.aux[0].alias, "a");
  ASSERT_NE(step.where, nullptr);
  EXPECT_EQ(step.where->ToString(), "(a.ltype = \"G\")");
}

TEST(ParserTest, PaperExampleQuery2) {
  auto q = ParseDisql(kExample2);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->steps.size(), 2u);
  const Step& s0 = q->steps[0];
  EXPECT_EQ(s0.doc_alias, "d0");
  EXPECT_TRUE(s0.pre.Equals(pre::Pre::Parse("L").value()));
  EXPECT_EQ(s0.where->ToString(), "(d0.title contains \"lab\")");
  const Step& s1 = q->steps[1];
  EXPECT_EQ(s1.doc_alias, "d1");
  EXPECT_EQ(s1.source_alias, "d0");
  EXPECT_TRUE(s1.pre.Equals(pre::Pre::Parse("G.(L*1)").value()));
  ASSERT_EQ(s1.aux.size(), 1u);
  EXPECT_EQ(s1.aux[0].relation, "relinfon");
  EXPECT_EQ(s1.aux[0].such_that->ToString(), "(r.delimiter = \"hr\")");
  EXPECT_EQ(s1.where->ToString(), "(r.text contains \"convener\")");
}

TEST(ParserTest, MultipleStartNodes) {
  auto q = ParseDisql(
      "select d.url from document d such that "
      "(\"http://a/\", \"http://b/\") L*1 d");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->steps[0].start_urls,
            (std::vector<std::string>{"http://a/", "http://b/"}));
}

TEST(ParserTest, ToStringReparses) {
  for (const char* text : {kExample1, kExample2}) {
    auto q = ParseDisql(text);
    ASSERT_TRUE(q.ok());
    auto again = ParseDisql(q->ToString());
    ASSERT_TRUE(again.ok()) << q->ToString() << "\n"
                            << again.status().ToString();
    EXPECT_EQ(q->ToString(), again->ToString());
  }
}

TEST(ParserTest, ErrorMissingSelect) {
  EXPECT_FALSE(ParseDisql("from document d such that \"u\" L d").ok());
}

TEST(ParserTest, ErrorTargetAliasMismatch) {
  auto q = ParseDisql("select d.url from document d such that \"u\" L e");
  EXPECT_FALSE(q.ok());
  EXPECT_NE(q.status().message().find("does not match"), std::string::npos);
}

TEST(ParserTest, ErrorLinkSymbolAlias) {
  EXPECT_FALSE(
      ParseDisql("select L.url from document L such that \"u\" G L").ok());
}

// -- Nesting caps -------------------------------------------------------------
//
// The parser refuses what the wire decoders would refuse, so every query it
// accepts can be shipped, and deep input is refused before it can overflow
// the stack.

constexpr char kCapPrefix[] =
    "select d.url from document d such that \"http://a/\" L d where ";

TEST(ParserCapTest, DeeplyNestedWhereIsInvalidArgument) {
  const std::string text = kCapPrefix + std::string(100000, '(') +
                           "d.title contains \"x\"" +
                           std::string(100000, ')');
  auto q = ParseDisql(text);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserCapTest, LongNotChainIsInvalidArgument) {
  std::string text = kCapPrefix;
  for (int i = 0; i < 100000; ++i) text += "not ";
  auto q = ParseDisql(text + "d.title contains \"x\"");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserCapTest, DeeplyNestedPreIsInvalidArgument) {
  auto q = ParseDisql("select d.url from document d such that \"http://a/\" " +
                      std::string(10000, '(') + "L" +
                      std::string(10000, ')') + " d");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParserCapTest, EveryAcceptedWhereClauseRoundTrips) {
  // A chain of `and`s is a left-deep tree one level deeper per term.
  int accepted = 0;
  for (int terms = 1; terms <= 80; ++terms) {
    SCOPED_TRACE("terms=" + std::to_string(terms));
    std::string where = "d.title contains \"x\"";
    for (int i = 1; i < terms; ++i) where += " and d.title contains \"x\"";
    auto q = ParseDisql(kCapPrefix + where);
    if (!q.ok()) {
      EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ++accepted;
    serialize::Encoder enc;
    q->steps[0].where->EncodeTo(&enc);
    serialize::Decoder dec(enc.data());
    auto decoded = relational::Expr::DecodeFrom(&dec);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value()->ToString(), q->steps[0].where->ToString());
  }
  // The root `and` sits at depth 0, the first comparison `terms - 1`
  // levels below it and its operands one level further, so 64 terms reach
  // depth 64: the deepest that decodes.
  EXPECT_EQ(accepted, 64);
}

TEST(ParserTest, ErrorNoSteps) {
  EXPECT_FALSE(ParseDisql("select a.b from").ok());
}

TEST(ParserTest, ErrorTrailingGarbage) {
  EXPECT_FALSE(
      ParseDisql("select d.url from document d such that \"u\" L d banana")
          .ok());
}

// -- Compiler ---------------------------------------------------------------------

TEST(CompilerTest, Example2SplitsSelectAcrossNodeQueries) {
  auto compiled = CompileDisql(kExample2);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const query::WebQuery& wq = compiled->web_query;
  ASSERT_EQ(wq.remaining_queries.size(), 2u);
  ASSERT_EQ(wq.future_pres.size(), 1u);
  // q1 projects only d0.url.
  EXPECT_EQ(wq.remaining_queries[0].select.select.size(), 1u);
  EXPECT_EQ(wq.remaining_queries[0].select.select[0].Label(), "d0.url");
  // q2 projects d1.url and r.text.
  ASSERT_EQ(wq.remaining_queries[1].select.select.size(), 2u);
  EXPECT_EQ(wq.remaining_queries[1].select.select[0].Label(), "d1.url");
  EXPECT_EQ(wq.remaining_queries[1].select.select[1].Label(), "r.text");
  // q2's where merges the relinfon such-that with the step where.
  EXPECT_NE(wq.remaining_queries[1].select.where, nullptr);
  const std::string where = wq.remaining_queries[1].select.where->ToString();
  EXPECT_NE(where.find("r.delimiter"), std::string::npos);
  EXPECT_NE(where.find("convener"), std::string::npos);
  // PRE pipeline: rem = L, future = G.(L*1).
  EXPECT_TRUE(wq.rem_pre.Equals(pre::Pre::Parse("L").value()));
  EXPECT_TRUE(wq.future_pres[0].Equals(pre::Pre::Parse("G.(L*1)").value()));
  // The formal notation renders.
  EXPECT_NE(compiled->ToString().find("Q = {http://csa.iisc.ernet.in}"),
            std::string::npos);
}

TEST(CompilerTest, StepWithNoSelectedColumnsProjectsUrl) {
  auto compiled = CompileDisql(
      "select d1.url\n"
      "from document d0 such that \"http://a/\" L d0,\n"
      "where d0.title contains \"x\"\n"
      "     document d1 such that d0 G d1\n");
  ASSERT_TRUE(compiled.ok());
  // d0 has no user columns; the compiler projects d0.url so the
  // answer-found test is meaningful.
  EXPECT_EQ(compiled->web_query.remaining_queries[0].select.select[0].Label(),
            "d0.url");
}

TEST(CompilerTest, ErrorChainBroken) {
  auto compiled = CompileDisql(
      "select d1.url\n"
      "from document d0 such that \"http://a/\" L d0,\n"
      "     document d1 such that dX G d1\n");
  EXPECT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("chain"), std::string::npos);
}

TEST(CompilerTest, ErrorDuplicateAlias) {
  EXPECT_FALSE(CompileDisql(
                   "select d.url\n"
                   "from document d such that \"http://a/\" L d,\n"
                   "     anchor d\n")
                   .ok());
}

TEST(CompilerTest, ErrorCrossStepPredicate) {
  // d0 referenced in step 2's where: node-queries must be locally evaluable.
  auto compiled = CompileDisql(
      "select d1.url\n"
      "from document d0 such that \"http://a/\" L d0,\n"
      "     document d1 such that d0 G d1,\n"
      "where d0.title contains \"x\"\n");
  EXPECT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("locally"), std::string::npos);
}

TEST(CompilerTest, ErrorUnknownColumn) {
  EXPECT_FALSE(CompileDisql(
                   "select d.bogus\n"
                   "from document d such that \"http://a/\" L d\n")
                   .ok());
  EXPECT_FALSE(CompileDisql(
                   "select d.url\n"
                   "from document d such that \"http://a/\" L d,\n"
                   "where d.nope = \"x\"\n")
                   .ok());
}

TEST(CompilerTest, ErrorSelectUndeclaredAlias) {
  EXPECT_FALSE(CompileDisql(
                   "select z.url\n"
                   "from document d such that \"http://a/\" L d\n")
                   .ok());
}

TEST(CompilerTest, ExplainRendersEveryStage) {
  auto compiled = CompileDisql(kExample2);
  ASSERT_TRUE(compiled.ok());
  const std::string plan = ExplainQuery(compiled.value());
  EXPECT_NE(plan.find("StartNodes (1)"), std::string::npos);
  EXPECT_NE(plan.find("stage 1"), std::string::npos);
  EXPECT_NE(plan.find("stage 2"), std::string::npos);
  EXPECT_NE(plan.find("PRE: L"), std::string::npos);
  EXPECT_NE(plan.find("PRE: G.L*1"), std::string::npos);
  // Stage 1's PRE L is not nullable; stage 2's G.(L*1) is not either.
  EXPECT_NE(plan.find("evaluated at traversal distance zero: no"),
            std::string::npos);
  EXPECT_NE(plan.find("fans out on link types: {L}"), std::string::npos);
  EXPECT_NE(plan.find("clone wire size"), std::string::npos);
}

TEST(CompilerTest, ExplainShowsNullableStage) {
  auto compiled = CompileDisql(
      "select d.url from document d such that \"http://a/\" L*2 d");
  ASSERT_TRUE(compiled.ok());
  const std::string plan = ExplainQuery(compiled.value());
  EXPECT_NE(plan.find("evaluated at traversal distance zero: yes"),
            std::string::npos);
}

TEST(CompilerTest, CompiledWebQuerySerializes) {
  auto compiled = CompileDisql(kExample2);
  ASSERT_TRUE(compiled.ok());
  query::WebQuery wq = compiled->web_query.Clone();
  wq.dest_urls.push_back("http://csa.iisc.ernet.in/");
  serialize::Encoder enc;
  wq.EncodeTo(&enc);
  serialize::Decoder dec(enc.data());
  query::WebQuery out;
  ASSERT_TRUE(query::WebQuery::DecodeFrom(&dec, &out).ok());
  EXPECT_EQ(out.remaining_queries.size(), 2u);
  EXPECT_TRUE(out.rem_pre.Equals(wq.rem_pre));
  EXPECT_EQ(out.remaining_queries[1].ToString(),
            wq.remaining_queries[1].ToString());
}

}  // namespace
}  // namespace webdis::disql
