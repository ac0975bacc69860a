#include <optional>

#include "common/strings.h"
#include "disql/ast.h"
#include "disql/lexer.h"
#include "serialize/encoder.h"

namespace webdis::disql {

namespace {

using relational::CompareOp;
using relational::Expr;
using relational::ExprPtr;
using relational::Value;

bool IsLinkSymbolIdent(const Token& t) {
  return t.kind == TokenKind::kIdent && t.text.size() == 1 &&
         (t.text[0] == 'I' || t.text[0] == 'L' || t.text[0] == 'G' ||
          t.text[0] == 'N');
}

/// Recursive-descent DISQL parser over the token stream. Every PRE and
/// expression node built is checked with CheckEncodable, and parentheses
/// and `not` nest at most serialize::kMaxTreeDepth deep, so neither the
/// recursion here nor any later walk of the result can run out of stack.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ParsedQuery> Parse() {
    ParsedQuery query;
    WEBDIS_RETURN_IF_ERROR(ExpectKeyword("select"));
    WEBDIS_RETURN_IF_ERROR(ParseSelectList(&query.select));
    WEBDIS_RETURN_IF_ERROR(ExpectKeyword("from"));
    while (!Peek().IsKeyword("document") && Peek().kind != TokenKind::kEnd) {
      return Error("expected 'document' to start a traversal step");
    }
    while (Peek().IsKeyword("document")) {
      Step step;
      WEBDIS_RETURN_IF_ERROR(ParseStep(&step));
      query.steps.push_back(std::move(step));
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected input after query");
    }
    if (query.steps.empty()) {
      return Error("query has no traversal steps");
    }
    return query;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }

  const Token& Advance() {
    const Token& t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }

  Status Error(std::string message) const {
    return Status::ParseError(StringPrintf(
        "%s (near offset %zu, at %s '%s')", message.c_str(), Peek().offset,
        std::string(TokenKindToString(Peek().kind)).c_str(),
        Peek().text.c_str()));
  }

  Status ExpectKeyword(std::string_view kw) {
    if (!Peek().IsKeyword(kw)) {
      return Error(StringPrintf("expected '%s'", std::string(kw).c_str()));
    }
    Advance();
    return Status::OK();
  }

  Status Expect(TokenKind kind, std::string* text_out = nullptr) {
    if (Peek().kind != kind) {
      return Error(StringPrintf(
          "expected %s", std::string(TokenKindToString(kind)).c_str()));
    }
    if (text_out != nullptr) *text_out = Peek().text;
    Advance();
    return Status::OK();
  }

  /// Enters one level of parentheses or `not`; InvalidArgument past the
  /// limit. Leave() undoes it on the way out.
  Status Enter() {
    if (++nesting_ > serialize::kMaxTreeDepth) {
      return Status::InvalidArgument(StringPrintf(
          "nested deeper than %d levels (near offset %zu)",
          serialize::kMaxTreeDepth, Peek().offset));
    }
    return Status::OK();
  }
  void Leave() { --nesting_; }

  static Result<pre::Pre> Checked(pre::Pre pre) {
    WEBDIS_RETURN_IF_ERROR(pre.CheckEncodable());
    return pre;
  }
  static Result<ExprPtr> Checked(ExprPtr expr) {
    WEBDIS_RETURN_IF_ERROR(expr->CheckEncodable());
    return expr;
  }

  void SkipOptionalComma() {
    if (Peek().kind == TokenKind::kComma) Advance();
  }

  Status ParseSelectList(std::vector<relational::OutputColumn>* out) {
    while (true) {
      relational::OutputColumn col;
      WEBDIS_RETURN_IF_ERROR(Expect(TokenKind::kIdent, &col.alias));
      WEBDIS_RETURN_IF_ERROR(Expect(TokenKind::kDot));
      WEBDIS_RETURN_IF_ERROR(Expect(TokenKind::kIdent, &col.column));
      out->push_back(std::move(col));
      if (Peek().kind != TokenKind::kComma) break;
      Advance();
    }
    if (out->empty()) return Error("empty select list");
    return Status::OK();
  }

  Status ParseStep(Step* step) {
    WEBDIS_RETURN_IF_ERROR(ExpectKeyword("document"));
    WEBDIS_RETURN_IF_ERROR(Expect(TokenKind::kIdent, &step->doc_alias));
    if (step->doc_alias.size() == 1 &&
        std::string("ILGN").find(step->doc_alias) != std::string::npos) {
      return Error("document alias collides with a PRE link symbol");
    }
    WEBDIS_RETURN_IF_ERROR(ExpectKeyword("such"));
    WEBDIS_RETURN_IF_ERROR(ExpectKeyword("that"));
    // Source: StartNode string(s) or a previous document alias.
    if (Peek().kind == TokenKind::kString) {
      step->start_urls.push_back(Advance().text);
    } else if (Peek().kind == TokenKind::kLParen &&
               Peek(1).kind == TokenKind::kString) {
      Advance();  // '('
      while (true) {
        std::string url;
        WEBDIS_RETURN_IF_ERROR(Expect(TokenKind::kString, &url));
        step->start_urls.push_back(std::move(url));
        if (Peek().kind == TokenKind::kComma) {
          Advance();
          continue;
        }
        break;
      }
      WEBDIS_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
    } else if (Peek().kind == TokenKind::kIdent &&
               !IsLinkSymbolIdent(Peek())) {
      step->source_alias = Advance().text;
    } else {
      return Error(
          "expected a StartNode URL string or a previous document alias");
    }
    WEBDIS_ASSIGN_OR_RETURN(step->pre, ParsePreAlt());
    // Target alias: must repeat the declared document alias.
    std::string target;
    WEBDIS_RETURN_IF_ERROR(Expect(TokenKind::kIdent, &target));
    if (target != step->doc_alias) {
      return Error(StringPrintf(
          "traversal target '%s' does not match declared alias '%s'",
          target.c_str(), step->doc_alias.c_str()));
    }
    SkipOptionalComma();
    // Auxiliary relation declarations.
    while (Peek().IsKeyword("anchor") || Peek().IsKeyword("relinfon")) {
      AuxDecl aux;
      aux.relation = Advance().text;
      WEBDIS_RETURN_IF_ERROR(Expect(TokenKind::kIdent, &aux.alias));
      if (Peek().IsKeyword("such")) {
        Advance();
        WEBDIS_RETURN_IF_ERROR(ExpectKeyword("that"));
        WEBDIS_ASSIGN_OR_RETURN(aux.such_that, ParseExpr());
      }
      step->aux.push_back(std::move(aux));
      SkipOptionalComma();
    }
    if (Peek().IsKeyword("where")) {
      Advance();
      WEBDIS_ASSIGN_OR_RETURN(step->where, ParseExpr());
    }
    SkipOptionalComma();
    return Status::OK();
  }

  // -- PRE over tokens -----------------------------------------------------

  Result<pre::Pre> ParsePreAlt() {
    std::vector<pre::Pre> parts;
    pre::Pre first;
    WEBDIS_ASSIGN_OR_RETURN(first, ParsePreConcat());
    parts.push_back(std::move(first));
    while (Peek().kind == TokenKind::kPipe) {
      Advance();
      pre::Pre next;
      WEBDIS_ASSIGN_OR_RETURN(next, ParsePreConcat());
      parts.push_back(std::move(next));
    }
    return Checked(pre::Pre::AltAll(parts));
  }

  Result<pre::Pre> ParsePreConcat() {
    std::vector<pre::Pre> parts;
    pre::Pre first;
    WEBDIS_ASSIGN_OR_RETURN(first, ParsePreRepeat());
    parts.push_back(std::move(first));
    while (Peek().kind == TokenKind::kDot) {
      Advance();
      pre::Pre next;
      WEBDIS_ASSIGN_OR_RETURN(next, ParsePreRepeat());
      parts.push_back(std::move(next));
    }
    return Checked(pre::Pre::ConcatAll(parts));
  }

  Result<pre::Pre> ParsePreRepeat() {
    pre::Pre base;
    WEBDIS_ASSIGN_OR_RETURN(base, ParsePreAtom());
    while (Peek().kind == TokenKind::kStar) {
      Advance();
      if (Peek().kind == TokenKind::kNumber) {
        const uint64_t bound = Advance().number;
        base = pre::Pre::Repeat(base, static_cast<uint32_t>(bound));
      } else {
        base = pre::Pre::RepeatUnbounded(base);
      }
      WEBDIS_RETURN_IF_ERROR(base.CheckEncodable());
    }
    return base;
  }

  Result<pre::Pre> ParsePreAtom() {
    if (Peek().kind == TokenKind::kLParen) {
      WEBDIS_RETURN_IF_ERROR(Enter());
      Advance();
      pre::Pre inner;
      WEBDIS_ASSIGN_OR_RETURN(inner, ParsePreAlt());
      WEBDIS_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      Leave();
      return inner;
    }
    if (IsLinkSymbolIdent(Peek())) {
      const char symbol = Advance().text[0];
      auto link = html::LinkTypeFromSymbol(symbol);
      WEBDIS_RETURN_IF_ERROR(link.status());
      return pre::Pre::Link(link.value());
    }
    return Error("expected PRE link symbol (I, L, G, N) or '('");
  }

  // -- Expressions ---------------------------------------------------------

  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    ExprPtr lhs;
    WEBDIS_ASSIGN_OR_RETURN(lhs, ParseAnd());
    while (Peek().IsKeyword("or")) {
      Advance();
      ExprPtr rhs;
      WEBDIS_ASSIGN_OR_RETURN(rhs, ParseAnd());
      WEBDIS_ASSIGN_OR_RETURN(
          lhs, Checked(Expr::Or(std::move(lhs), std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    ExprPtr lhs;
    WEBDIS_ASSIGN_OR_RETURN(lhs, ParseNot());
    while (Peek().IsKeyword("and")) {
      Advance();
      ExprPtr rhs;
      WEBDIS_ASSIGN_OR_RETURN(rhs, ParseNot());
      WEBDIS_ASSIGN_OR_RETURN(
          lhs, Checked(Expr::And(std::move(lhs), std::move(rhs))));
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    if (Peek().IsKeyword("not")) {
      WEBDIS_RETURN_IF_ERROR(Enter());
      Advance();
      ExprPtr operand;
      WEBDIS_ASSIGN_OR_RETURN(operand, ParseNot());
      Leave();
      return Checked(Expr::Not(std::move(operand)));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    if (Peek().kind == TokenKind::kLParen) {
      WEBDIS_RETURN_IF_ERROR(Enter());
      Advance();
      ExprPtr inner;
      WEBDIS_ASSIGN_OR_RETURN(inner, ParseExpr());
      WEBDIS_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      Leave();
      return inner;
    }
    ExprPtr lhs;
    WEBDIS_ASSIGN_OR_RETURN(lhs, ParseOperand());
    std::optional<CompareOp> op;
    switch (Peek().kind) {
      case TokenKind::kEq:
        op = CompareOp::kEq;
        break;
      case TokenKind::kNe:
        op = CompareOp::kNe;
        break;
      case TokenKind::kLt:
        op = CompareOp::kLt;
        break;
      case TokenKind::kLe:
        op = CompareOp::kLe;
        break;
      case TokenKind::kGt:
        op = CompareOp::kGt;
        break;
      case TokenKind::kGe:
        op = CompareOp::kGe;
        break;
      default:
        break;
    }
    if (op.has_value()) {
      Advance();
      ExprPtr rhs;
      WEBDIS_ASSIGN_OR_RETURN(rhs, ParseOperand());
      return Expr::Compare(*op, std::move(lhs), std::move(rhs));
    }
    if (Peek().IsKeyword("contains")) {
      Advance();
      ExprPtr rhs;
      WEBDIS_ASSIGN_OR_RETURN(rhs, ParseOperand());
      return Expr::Contains(std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ExprPtr> ParseOperand() {
    if (Peek().kind == TokenKind::kString) {
      return Expr::Literal(Value(Advance().text));
    }
    if (Peek().kind == TokenKind::kNumber) {
      return Expr::Literal(Value(static_cast<int64_t>(Advance().number)));
    }
    if (Peek().kind == TokenKind::kIdent) {
      std::string alias;
      WEBDIS_RETURN_IF_ERROR(Expect(TokenKind::kIdent, &alias));
      WEBDIS_RETURN_IF_ERROR(Expect(TokenKind::kDot));
      std::string column;
      WEBDIS_RETURN_IF_ERROR(Expect(TokenKind::kIdent, &column));
      return Expr::ColumnRef(std::move(alias), std::move(column));
    }
    return Error("expected string, number, or alias.column");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int nesting_ = 0;  // open parentheses and `not`s around the cursor
};

}  // namespace

std::string ParsedQuery::ToString() const {
  std::string out = "select ";
  for (size_t i = 0; i < select.size(); ++i) {
    if (i > 0) out += ", ";
    out += select[i].Label();
  }
  out += "\nfrom ";
  for (size_t k = 0; k < steps.size(); ++k) {
    const Step& step = steps[k];
    if (k > 0) out += "     ";
    out += "document " + step.doc_alias + " such that ";
    if (!step.start_urls.empty()) {
      if (step.start_urls.size() == 1) {
        out += "\"" + step.start_urls[0] + "\"";
      } else {
        out += "(";
        for (size_t i = 0; i < step.start_urls.size(); ++i) {
          if (i > 0) out += ", ";
          out += "\"" + step.start_urls[i] + "\"";
        }
        out += ")";
      }
    } else {
      out += step.source_alias;
    }
    out += " " + step.pre.ToString() + " " + step.doc_alias;
    for (const AuxDecl& aux : step.aux) {
      out += ",\n       " + aux.relation + " " + aux.alias;
      if (aux.such_that != nullptr) {
        out += " such that " + aux.such_that->ToString();
      }
    }
    if (step.where != nullptr) {
      out += "\nwhere " + step.where->ToString();
    }
    out += "\n";
  }
  return out;
}

Result<ParsedQuery> ParseDisql(std::string_view input) {
  std::vector<Token> tokens;
  WEBDIS_ASSIGN_OR_RETURN(tokens, Lex(input));
  return Parser(std::move(tokens)).Parse();
}

}  // namespace webdis::disql
