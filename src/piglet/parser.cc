#include "piglet/parser.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <type_traits>

#include "piglet/lexer.h"

namespace stark {
namespace piglet {

namespace {

std::string Upper(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::toupper(c));
  });
  return s;
}

/// Whether truncating \p value toward zero gives a representable T. A
/// static_cast from a double outside that range is undefined behaviour.
/// False for NaN.
template <typename T>
bool TruncatesInto(double value) {
  const double upper = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const bool above_lower =
      std::is_signed_v<T> ? value >= -upper : value > -1.0;
  return above_lower && value < upper;
}

/// Token-stream cursor with keyword helpers.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Program> ParseProgram() {
    Program program;
    while (Peek().type != TokenType::kEnd) {
      STARK_ASSIGN_OR_RETURN(Statement stmt, ParseStatement());
      STARK_RETURN_NOT_OK(ExpectSemi());
      program.statements.push_back(std::move(stmt));
    }
    if (program.statements.empty()) {
      return Status::ParseError("piglet: empty program");
    }
    return program;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  Token Next() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }

  bool PeekKeyword(const std::string& kw, size_t ahead = 0) const {
    const Token& t = Peek(ahead);
    return t.type == TokenType::kIdent && Upper(t.text) == kw;
  }

  Status Error(const std::string& msg) const {
    return Status::ParseError("piglet:" + std::to_string(Peek().line) + ": " +
                              msg);
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!PeekKeyword(kw)) return Error("expected " + kw);
    Next();
    return Status::OK();
  }

  Status Expect(TokenType type, const char* what) {
    if (Peek().type != type) return Error(std::string("expected ") + what);
    Next();
    return Status::OK();
  }

  Status ExpectSemi() { return Expect(TokenType::kSemi, "';'"); }

  Result<std::string> ExpectIdent(const char* what) {
    if (Peek().type != TokenType::kIdent) {
      return Error(std::string("expected ") + what);
    }
    return Next().text;
  }

  Result<std::string> ExpectString(const char* what) {
    if (Peek().type != TokenType::kString) {
      return Error(std::string("expected ") + what);
    }
    return Next().text;
  }

  Result<double> ExpectNumber(const char* what) {
    if (Peek().type != TokenType::kNumber) {
      return Error(std::string("expected ") + what);
    }
    return Next().number;
  }

  /// Reads a number as an integer argument: the fraction is truncated, a
  /// value below \p min or one that does not fit in T is a ParseError.
  template <typename T>
  Result<T> ExpectInteger(const char* what,
                          T min = std::numeric_limits<T>::lowest()) {
    STARK_ASSIGN_OR_RETURN(const double value, ExpectNumber(what));
    if (value < static_cast<double>(min)) {
      return Error(std::string(what) + " must be >= " + std::to_string(min));
    }
    if (!TruncatesInto<T>(value)) {
      return Error(std::string(what) + " is out of range");
    }
    return static_cast<T>(value);
  }

  Result<Statement> ParseStatement() {
    // Non-assignment statements.
    if (PeekKeyword("DUMP") || PeekKeyword("STORE") || PeekKeyword("DESCRIBE")) {
      return ParseOutputStatement();
    }
    if (PeekKeyword("SET")) return ParseSetStatement();
    if (PeekKeyword("STREAM")) return ParseStreamStatement();
    if (PeekKeyword("EMIT")) return ParseEmitStatement();
    // target = OPERATOR ...
    Statement stmt;
    stmt.line = Peek().line;
    STARK_ASSIGN_OR_RETURN(stmt.target, ExpectIdent("relation name"));
    STARK_RETURN_NOT_OK(Expect(TokenType::kEquals, "'='"));
    if (Peek().type != TokenType::kIdent) return Error("expected operator");
    const std::string op = Upper(Next().text);

    if (op == "LOAD") {
      stmt.kind = Statement::Kind::kLoad;
      STARK_ASSIGN_OR_RETURN(stmt.path, ExpectString("file path"));
      return stmt;
    }
    if (op == "SPATIALIZE") {
      stmt.kind = Statement::Kind::kSpatialize;
      STARK_ASSIGN_OR_RETURN(stmt.input, ExpectIdent("relation"));
      return stmt;
    }
    if (op == "FILTER") {
      stmt.kind = Statement::Kind::kFilter;
      STARK_ASSIGN_OR_RETURN(stmt.input, ExpectIdent("relation"));
      STARK_RETURN_NOT_OK(ExpectKeyword("BY"));
      STARK_ASSIGN_OR_RETURN(stmt.filter, ParseOrExpr());
      return stmt;
    }
    if (op == "PARTITION") {
      stmt.kind = Statement::Kind::kPartition;
      STARK_ASSIGN_OR_RETURN(stmt.input, ExpectIdent("relation"));
      STARK_RETURN_NOT_OK(ExpectKeyword("BY"));
      if (PeekKeyword("GRID")) {
        Next();
        stmt.partitioner = PartitionerKind::kGrid;
      } else if (PeekKeyword("BSP")) {
        Next();
        stmt.partitioner = PartitionerKind::kBsp;
      } else {
        return Error("expected GRID or BSP");
      }
      STARK_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
      STARK_ASSIGN_OR_RETURN(
          stmt.partitioner_param,
          ExpectInteger<size_t>("partitioner parameter", 0));
      STARK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      // Optional TIME(k): spatio-temporal partitioning (GRID only).
      if (PeekKeyword("TIME")) {
        if (stmt.partitioner != PartitionerKind::kGrid) {
          return Error("TIME buckets require the GRID partitioner");
        }
        Next();
        STARK_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
        STARK_ASSIGN_OR_RETURN(stmt.time_buckets,
                               ExpectInteger<size_t>("time buckets", 1));
        STARK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      }
      return stmt;
    }
    if (op == "AGGREGATE") {
      stmt.kind = Statement::Kind::kAggregate;
      STARK_ASSIGN_OR_RETURN(stmt.input, ExpectIdent("relation"));
      STARK_RETURN_NOT_OK(ExpectKeyword("BY"));
      STARK_ASSIGN_OR_RETURN(stmt.aggregate_column, ExpectIdent("column"));
      STARK_RETURN_NOT_OK(ExpectKeyword("COUNT"));
      return stmt;
    }
    if (op == "INDEX") {
      stmt.kind = Statement::Kind::kIndex;
      STARK_ASSIGN_OR_RETURN(stmt.input, ExpectIdent("relation"));
      STARK_RETURN_NOT_OK(ExpectKeyword("ORDER"));
      STARK_ASSIGN_OR_RETURN(stmt.index_order,
                             ExpectInteger<size_t>("index order", 2));
      return stmt;
    }
    if (op == "JOIN") {
      stmt.kind = Statement::Kind::kJoin;
      STARK_ASSIGN_OR_RETURN(stmt.input, ExpectIdent("left relation"));
      STARK_RETURN_NOT_OK(Expect(TokenType::kComma, "','"));
      STARK_ASSIGN_OR_RETURN(stmt.input2, ExpectIdent("right relation"));
      STARK_RETURN_NOT_OK(ExpectKeyword("ON"));
      STARK_ASSIGN_OR_RETURN(auto pred, ParsePredicateName());
      stmt.join_pred = pred;
      if (pred == PredicateType::kWithinDistance) {
        STARK_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
        STARK_ASSIGN_OR_RETURN(stmt.join_distance,
                               ExpectNumber("distance"));
        STARK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      }
      return stmt;
    }
    if (op == "KNN") {
      stmt.kind = Statement::Kind::kKnn;
      STARK_ASSIGN_OR_RETURN(stmt.input, ExpectIdent("relation"));
      STARK_RETURN_NOT_OK(ExpectKeyword("QUERY"));
      STARK_ASSIGN_OR_RETURN(std::string wkt, ExpectString("WKT literal"));
      STARK_ASSIGN_OR_RETURN(STObject query, STObject::FromWkt(wkt));
      stmt.knn_query = std::move(query);
      STARK_RETURN_NOT_OK(ExpectKeyword("K"));
      STARK_ASSIGN_OR_RETURN(stmt.knn_k, ExpectInteger<size_t>("K", 1));
      return stmt;
    }
    if (op == "CLUSTER") {
      stmt.kind = Statement::Kind::kCluster;
      STARK_ASSIGN_OR_RETURN(stmt.input, ExpectIdent("relation"));
      STARK_RETURN_NOT_OK(ExpectKeyword("USING"));
      STARK_RETURN_NOT_OK(ExpectKeyword("DBSCAN"));
      STARK_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
      STARK_ASSIGN_OR_RETURN(stmt.dbscan_eps, ExpectNumber("eps"));
      STARK_RETURN_NOT_OK(Expect(TokenType::kComma, "','"));
      STARK_ASSIGN_OR_RETURN(stmt.dbscan_min_pts,
                             ExpectInteger<size_t>("min_pts", 1));
      STARK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      if (PeekKeyword("GRID")) {
        Next();
        STARK_ASSIGN_OR_RETURN(stmt.cluster_grid,
                               ExpectInteger<size_t>("grid cells", 1));
      }
      return stmt;
    }
    if (op == "WINDOW") {
      stmt.kind = Statement::Kind::kWindow;
      STARK_ASSIGN_OR_RETURN(stmt.input, ExpectIdent("stream"));
      STARK_RETURN_NOT_OK(ExpectKeyword("SIZE"));
      STARK_ASSIGN_OR_RETURN(stmt.window_size,
                             ExpectInteger<int64_t>("window size", 1));
      if (PeekKeyword("SLIDE")) {
        Next();
        STARK_ASSIGN_OR_RETURN(stmt.window_slide,
                               ExpectInteger<int64_t>("window slide", 1));
        if (stmt.window_slide > stmt.window_size) {
          return Error("window slide must be <= SIZE");
        }
      }
      if (PeekKeyword("LATENESS")) {
        Next();
        STARK_ASSIGN_OR_RETURN(stmt.window_lateness,
                               ExpectInteger<int64_t>("lateness bound", 0));
      }
      return stmt;
    }
    if (op == "PATTERN") return ParsePatternStatement(std::move(stmt));
    if (op == "LIMIT") {
      stmt.kind = Statement::Kind::kLimit;
      STARK_ASSIGN_OR_RETURN(stmt.input, ExpectIdent("relation"));
      STARK_ASSIGN_OR_RETURN(stmt.limit, ExpectInteger<size_t>("limit", 0));
      return stmt;
    }
    return Error("unknown operator '" + op + "'");
  }

  /// SET <ident>(.<ident>)* <number>;  — engine config knobs, e.g.
  /// `SET job.deadline_ms 2000;` (Pig's own `set` statement shape).
  Result<Statement> ParseSetStatement() {
    Statement stmt;
    stmt.kind = Statement::Kind::kSet;
    stmt.line = Peek().line;
    Next();  // SET
    STARK_ASSIGN_OR_RETURN(stmt.set_key, ExpectIdent("config key"));
    while (Peek().type == TokenType::kDot) {
      Next();
      STARK_ASSIGN_OR_RETURN(const std::string part,
                             ExpectIdent("config key part"));
      stmt.set_key += "." + part;
    }
    STARK_ASSIGN_OR_RETURN(stmt.set_value, ExpectNumber("config value"));
    return stmt;
  }

  /// STREAM <name> FROM GENERATOR '(' count ',' seed ',' step ')'
  ///               | TAIL '(' 'file.csv' ')'
  Result<Statement> ParseStreamStatement() {
    Statement stmt;
    stmt.kind = Statement::Kind::kStream;
    stmt.line = Peek().line;
    Next();  // STREAM
    STARK_ASSIGN_OR_RETURN(stmt.target, ExpectIdent("stream name"));
    STARK_RETURN_NOT_OK(ExpectKeyword("FROM"));
    if (PeekKeyword("GENERATOR")) {
      Next();
      stmt.stream_source = StreamSourceKind::kGenerator;
      STARK_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
      STARK_ASSIGN_OR_RETURN(stmt.gen_count,
                             ExpectInteger<int64_t>("event count", 0));
      STARK_RETURN_NOT_OK(Expect(TokenType::kComma, "','"));
      STARK_ASSIGN_OR_RETURN(stmt.gen_seed, ExpectInteger<int64_t>("seed"));
      STARK_RETURN_NOT_OK(Expect(TokenType::kComma, "','"));
      STARK_ASSIGN_OR_RETURN(stmt.gen_step,
                             ExpectInteger<int64_t>("time step", 1));
      STARK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      return stmt;
    }
    if (PeekKeyword("TAIL")) {
      Next();
      stmt.stream_source = StreamSourceKind::kTail;
      STARK_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
      STARK_ASSIGN_OR_RETURN(stmt.path, ExpectString("file path"));
      STARK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      return stmt;
    }
    return Error("expected GENERATOR or TAIL");
  }

  /// EMIT <window-or-pattern>  — the streaming sink: runs the continuous
  /// query to completion and prints every fired window.
  Result<Statement> ParseEmitStatement() {
    Statement stmt;
    stmt.kind = Statement::Kind::kEmit;
    stmt.line = Peek().line;
    Next();  // EMIT
    STARK_ASSIGN_OR_RETURN(stmt.input, ExpectIdent("window or pattern"));
    return stmt;
  }

  // PATTERN <window> SEQ 'a','b'[,...] [WITHIN n] [WHERE <region>]
  //                | ABSENT 'a' [WHERE <region>]
  //                | COUNT 'a' <cmp> n [WHERE <region>]
  // region := PREDNAME '(' 'wkt' [, dist] [, begin, end] ')'
  Result<Statement> ParsePatternStatement(Statement stmt) {
    stmt.kind = Statement::Kind::kPattern;
    STARK_ASSIGN_OR_RETURN(stmt.input, ExpectIdent("window"));
    if (PeekKeyword("SEQ")) {
      Next();
      stmt.pattern_kind = StreamPatternKind::kSequence;
      STARK_ASSIGN_OR_RETURN(std::string first, ExpectString("category"));
      stmt.pattern_categories.push_back(std::move(first));
      while (Peek().type == TokenType::kComma) {
        Next();
        STARK_ASSIGN_OR_RETURN(std::string cat, ExpectString("category"));
        stmt.pattern_categories.push_back(std::move(cat));
      }
      if (stmt.pattern_categories.size() < 2) {
        return Error("SEQ needs at least two categories");
      }
      if (PeekKeyword("WITHIN")) {
        Next();
        STARK_ASSIGN_OR_RETURN(stmt.pattern_within,
                               ExpectInteger<int64_t>("WITHIN bound", 1));
      }
    } else if (PeekKeyword("ABSENT")) {
      Next();
      stmt.pattern_kind = StreamPatternKind::kAbsence;
      STARK_ASSIGN_OR_RETURN(std::string cat, ExpectString("category"));
      stmt.pattern_categories.push_back(std::move(cat));
    } else if (PeekKeyword("COUNT")) {
      Next();
      stmt.pattern_kind = StreamPatternKind::kCount;
      STARK_ASSIGN_OR_RETURN(std::string cat, ExpectString("category"));
      stmt.pattern_categories.push_back(std::move(cat));
      if (Peek().type != TokenType::kCompare) {
        return Error("expected comparison operator after COUNT category");
      }
      stmt.pattern_cmp = Next().text;
      if (stmt.pattern_cmp == "!=") {
        return Error("COUNT supports ==, <, <=, >, >=");
      }
      STARK_ASSIGN_OR_RETURN(stmt.pattern_threshold,
                             ExpectInteger<int64_t>("threshold"));
    } else {
      return Error("expected SEQ, ABSENT or COUNT");
    }
    if (PeekKeyword("WHERE")) {
      Next();
      STARK_ASSIGN_OR_RETURN(PredicateType pred, ParsePredicateName());
      stmt.pattern_region_pred = pred;
      STARK_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
      STARK_ASSIGN_OR_RETURN(std::string wkt, ExpectString("WKT literal"));
      if (pred == PredicateType::kWithinDistance) {
        STARK_RETURN_NOT_OK(Expect(TokenType::kComma, "','"));
        STARK_ASSIGN_OR_RETURN(stmt.pattern_region_distance,
                               ExpectNumber("distance"));
      }
      std::optional<std::pair<Instant, Instant>> window;
      if (Peek().type == TokenType::kComma) {
        Next();
        STARK_ASSIGN_OR_RETURN(const Instant begin,
                               ExpectInteger<Instant>("window begin"));
        STARK_RETURN_NOT_OK(Expect(TokenType::kComma, "','"));
        STARK_ASSIGN_OR_RETURN(const Instant end,
                               ExpectInteger<Instant>("window end"));
        if (end < begin) return Error("window end before begin");
        window = {begin, end};
      }
      STARK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      Result<STObject> region =
          window.has_value()
              ? STObject::FromWkt(wkt, window->first, window->second)
              : STObject::FromWkt(wkt);
      if (!region.ok()) {
        return Error("bad WKT literal: " + region.status().message());
      }
      stmt.pattern_region = std::move(region).ValueOrDie();
    }
    return stmt;
  }

  Result<Statement> ParseOutputStatement() {
    Statement stmt;
    stmt.line = Peek().line;
    const std::string op = Upper(Next().text);
    if (op == "DUMP") {
      stmt.kind = Statement::Kind::kDump;
      STARK_ASSIGN_OR_RETURN(stmt.input, ExpectIdent("relation"));
      return stmt;
    }
    if (op == "DESCRIBE") {
      stmt.kind = Statement::Kind::kDescribe;
      STARK_ASSIGN_OR_RETURN(stmt.input, ExpectIdent("relation"));
      return stmt;
    }
    stmt.kind = Statement::Kind::kStore;
    STARK_ASSIGN_OR_RETURN(stmt.input, ExpectIdent("relation"));
    STARK_RETURN_NOT_OK(ExpectKeyword("INTO"));
    STARK_ASSIGN_OR_RETURN(stmt.path, ExpectString("file path"));
    return stmt;
  }

  Result<PredicateType> ParsePredicateName() {
    if (Peek().type != TokenType::kIdent) {
      return Error("expected predicate name");
    }
    const std::string name = Upper(Next().text);
    if (name == "INTERSECTS") return PredicateType::kIntersects;
    if (name == "CONTAINS") return PredicateType::kContains;
    if (name == "CONTAINEDBY") return PredicateType::kContainedBy;
    if (name == "WITHINDISTANCE") return PredicateType::kWithinDistance;
    return Error("unknown predicate '" + name + "'");
  }

  // expr := and_expr (OR and_expr)*
  Result<std::unique_ptr<Expr>> ParseOrExpr() {
    STARK_ASSIGN_OR_RETURN(auto lhs, ParseAndExpr());
    while (PeekKeyword("OR")) {
      Next();
      STARK_ASSIGN_OR_RETURN(auto rhs, ParseAndExpr());
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kOr;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  // and_expr := unary_expr (AND unary_expr)*
  Result<std::unique_ptr<Expr>> ParseAndExpr() {
    STARK_ASSIGN_OR_RETURN(auto lhs, ParseUnaryExpr());
    while (PeekKeyword("AND")) {
      Next();
      STARK_ASSIGN_OR_RETURN(auto rhs, ParseUnaryExpr());
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kAnd;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  // unary := NOT unary | '(' expr ')' | spatial_pred | comparison
  Result<std::unique_ptr<Expr>> ParseUnaryExpr() {
    if (PeekKeyword("NOT")) {
      Next();
      STARK_ASSIGN_OR_RETURN(auto inner, ParseUnaryExpr());
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kNot;
      node->lhs = std::move(inner);
      return node;
    }
    if (Peek().type == TokenType::kLParen) {
      Next();
      STARK_ASSIGN_OR_RETURN(auto inner, ParseOrExpr());
      STARK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));
      return inner;
    }
    if (PeekKeyword("INTERSECTS") || PeekKeyword("CONTAINS") ||
        PeekKeyword("CONTAINEDBY") || PeekKeyword("WITHINDISTANCE")) {
      return ParseSpatialPred();
    }
    return ParseComparison();
  }

  // spatial_pred := NAME '(' 'wkt' [, num, num] ')'
  //               | WITHINDISTANCE '(' 'wkt', dist [, num, num] ')'
  Result<std::unique_ptr<Expr>> ParseSpatialPred() {
    STARK_ASSIGN_OR_RETURN(PredicateType pred, ParsePredicateName());
    STARK_RETURN_NOT_OK(Expect(TokenType::kLParen, "'('"));
    STARK_ASSIGN_OR_RETURN(std::string wkt, ExpectString("WKT literal"));

    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kSpatialPred;
    node->pred = pred;

    if (pred == PredicateType::kWithinDistance) {
      STARK_RETURN_NOT_OK(Expect(TokenType::kComma, "','"));
      STARK_ASSIGN_OR_RETURN(node->max_distance, ExpectNumber("distance"));
    }
    // Optional temporal window: , begin, end
    std::optional<std::pair<Instant, Instant>> window;
    if (Peek().type == TokenType::kComma) {
      Next();
      STARK_ASSIGN_OR_RETURN(const Instant begin,
                             ExpectInteger<Instant>("window begin"));
      STARK_RETURN_NOT_OK(Expect(TokenType::kComma, "','"));
      STARK_ASSIGN_OR_RETURN(const Instant end,
                             ExpectInteger<Instant>("window end"));
      if (end < begin) return Error("window end before begin");
      window = {begin, end};
    }
    STARK_RETURN_NOT_OK(Expect(TokenType::kRParen, "')'"));

    Result<STObject> query =
        window.has_value()
            ? STObject::FromWkt(wkt, window->first, window->second)
            : STObject::FromWkt(wkt);
    if (!query.ok()) {
      return Error("bad WKT literal: " + query.status().message());
    }
    node->query = std::move(query).ValueOrDie();
    return node;
  }

  // comparison := IDENT op literal | literal op IDENT
  Result<std::unique_ptr<Expr>> ParseComparison() {
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kCompare;
    if (Peek().type != TokenType::kIdent) {
      return Error("expected column name");
    }
    node->column = Next().text;
    if (Peek().type != TokenType::kCompare) {
      return Error("expected comparison operator");
    }
    node->op = Next().text;
    if (Peek().type == TokenType::kNumber) {
      const Token t = Next();
      // Integral literals compare as int64, others (and integers too big
      // for int64) as double.
      if (t.text.find('.') == std::string::npos &&
          t.text.find('e') == std::string::npos &&
          t.text.find('E') == std::string::npos &&
          TruncatesInto<int64_t>(t.number) &&
          t.number == static_cast<double>(static_cast<int64_t>(t.number))) {
        node->literal = static_cast<int64_t>(t.number);
      } else {
        node->literal = t.number;
      }
    } else if (Peek().type == TokenType::kString) {
      node->literal = Next().text;
    } else {
      return Error("expected literal after comparison operator");
    }
    return node;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Program> Parse(const std::string& source) {
  STARK_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  Parser parser(std::move(tokens));
  return parser.ParseProgram();
}

}  // namespace piglet
}  // namespace stark
