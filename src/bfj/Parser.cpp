//===- Parser.cpp - BFJ parser ---------------------------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "bfj/Parser.h"

#include "bfj/Lexer.h"

#include <cstdio>
#include <cstdlib>

using namespace bigfoot;

namespace {

/// The recursive-descent parser. Errors are recorded once and abort the
/// parse (all later productions early-exit).
class Parser {
public:
  explicit Parser(std::vector<Token> Tokens) : Tokens(std::move(Tokens)) {}

  ParseResult run() {
    auto Prog = std::make_unique<Program>();
    while (!failed() && !at(TokenKind::Eof)) {
      if (atKeyword("class")) {
        if (auto C = parseClass())
          Prog->Classes.push_back(std::move(C));
      } else if (atKeyword("thread")) {
        advance();
        Prog->Threads.push_back(parseBracedBlock());
      } else {
        error("expected 'class' or 'thread'");
      }
    }
    ParseResult Result;
    if (failed()) {
      Result.Error = ErrorMsg;
      return Result;
    }
    Result.Prog = std::move(Prog);
    return Result;
  }

private:
  std::vector<Token> Tokens;
  size_t Pos = 0;
  std::string ErrorMsg;
  /// The target of a call or fork whose result is discarded.
  const VarName Discarded = VarName::intern("_");

  bool failed() const { return !ErrorMsg.empty(); }

  const Token &peek(size_t Ahead = 0) const {
    size_t I = Pos + Ahead;
    if (I >= Tokens.size())
      I = Tokens.size() - 1;
    return Tokens[I];
  }

  Token advance() {
    Token T = peek();
    if (Pos + 1 < Tokens.size())
      ++Pos;
    return T;
  }

  bool at(TokenKind K) const { return peek().Kind == K; }

  bool atKeyword(const char *KW) const {
    return peek().Kind == TokenKind::Ident && peek().Text == KW;
  }

  void error(const std::string &Msg) {
    if (failed())
      return;
    ErrorMsg = "line " + std::to_string(peek().Line) + ": " + Msg;
    if (peek().Kind == TokenKind::Error)
      ErrorMsg += " (" + peek().Text + ")";
  }

  bool expect(TokenKind K, const char *What) {
    if (at(K)) {
      advance();
      return true;
    }
    error(std::string("expected ") + What);
    return false;
  }

  bool expectKeyword(const char *KW) {
    if (atKeyword(KW)) {
      advance();
      return true;
    }
    error(std::string("expected '") + KW + "'");
    return false;
  }

  std::string expectIdent(const char *What) {
    if (at(TokenKind::Ident)) {
      return advance().Text;
    }
    error(std::string("expected ") + What);
    return "";
  }

  /// A local or field name, interned here once for every later pass; the
  /// null handle after an error.
  VarName expectName(const char *What) {
    if (at(TokenKind::Ident))
      return VarName::intern(advance().Text);
    error(std::string("expected ") + What);
    return VarName();
  }

  //===--------------------------------------------------------------------===
  // Declarations.
  //===--------------------------------------------------------------------===

  std::unique_ptr<ClassDecl> parseClass() {
    expectKeyword("class");
    auto C = std::make_unique<ClassDecl>();
    C->Name = expectIdent("class name");
    expect(TokenKind::LBrace, "'{'");
    while (!failed() && !at(TokenKind::RBrace)) {
      if (atKeyword("fields")) {
        advance();
        parseFieldList(*C, /*Volatile=*/false);
      } else if (atKeyword("volatile")) {
        advance();
        expectKeyword("fields");
        parseFieldList(*C, /*Volatile=*/true);
      } else if (atKeyword("method")) {
        if (auto M = parseMethod())
          C->Methods.push_back(std::move(M));
      } else {
        error("expected 'fields', 'volatile fields', or 'method'");
      }
    }
    expect(TokenKind::RBrace, "'}'");
    return failed() ? nullptr : std::move(C);
  }

  void parseFieldList(ClassDecl &C, bool Volatile) {
    while (!failed()) {
      std::string F = expectIdent("field name");
      C.Fields.push_back(F);
      if (Volatile)
        C.VolatileFields.insert(F);
      if (at(TokenKind::Comma)) {
        advance();
        continue;
      }
      break;
    }
    expect(TokenKind::Semi, "';'");
  }

  std::unique_ptr<MethodDecl> parseMethod() {
    expectKeyword("method");
    auto M = std::make_unique<MethodDecl>();
    M->Name = expectIdent("method name");
    expect(TokenKind::LParen, "'('");
    if (!at(TokenKind::RParen)) {
      while (!failed()) {
        M->Params.push_back(expectIdent("parameter name"));
        if (at(TokenKind::Comma)) {
          advance();
          continue;
        }
        break;
      }
    }
    expect(TokenKind::RParen, "')'");
    expect(TokenKind::LBrace, "'{'");
    auto Body = std::make_unique<BlockStmt>();
    while (!failed() && !at(TokenKind::RBrace) && !atKeyword("return"))
      Body->append(parseStmt());
    if (atKeyword("return")) {
      advance();
      M->ReturnVar = expectIdent("return variable");
      expect(TokenKind::Semi, "';'");
    }
    expect(TokenKind::RBrace, "'}'");
    M->Body = std::move(Body);
    return failed() ? nullptr : std::move(M);
  }

  //===--------------------------------------------------------------------===
  // Statements.
  //===--------------------------------------------------------------------===

  StmtPtr parseBracedBlock() {
    expect(TokenKind::LBrace, "'{'");
    auto Block = std::make_unique<BlockStmt>();
    while (!failed() && !at(TokenKind::RBrace))
      Block->append(parseStmt());
    expect(TokenKind::RBrace, "'}'");
    return Block;
  }

  StmtPtr bail() { return std::make_unique<SkipStmt>(); }

  StmtPtr parseStmt() {
    if (failed())
      return bail();
    if (at(TokenKind::LBrace))
      return parseBracedBlock();
    if (atKeyword("skip")) {
      advance();
      expect(TokenKind::Semi, "';'");
      return std::make_unique<SkipStmt>();
    }
    if (atKeyword("if"))
      return parseIf();
    if (atKeyword("while"))
      return parseWhile();
    if (atKeyword("do"))
      return parseDoWhile();
    if (atKeyword("loop"))
      return parseLoop();
    if (atKeyword("acq") || atKeyword("rel")) {
      bool IsAcq = peek().Text == "acq";
      advance();
      expect(TokenKind::LParen, "'('");
      VarName Var = expectName("lock variable");
      expect(TokenKind::RParen, "')'");
      expect(TokenKind::Semi, "';'");
      if (IsAcq)
        return std::make_unique<AcquireStmt>(Var);
      return std::make_unique<ReleaseStmt>(Var);
    }
    if (atKeyword("fork"))
      return parseFork();
    if (atKeyword("join")) {
      advance();
      VarName H = expectName("thread handle");
      expect(TokenKind::Semi, "';'");
      return std::make_unique<JoinStmt>(H);
    }
    if (atKeyword("await")) {
      advance();
      VarName B = expectName("barrier variable");
      expect(TokenKind::Semi, "';'");
      return std::make_unique<AwaitStmt>(B);
    }
    if (atKeyword("print")) {
      advance();
      auto E = parseExpr();
      expect(TokenKind::Semi, "';'");
      return std::make_unique<PrintStmt>(std::move(E));
    }
    if (atKeyword("assert")) {
      advance();
      auto E = parseExpr();
      expect(TokenKind::Semi, "';'");
      return std::make_unique<AssertStmtNode>(std::move(E));
    }
    if (atKeyword("check"))
      return parseCheck();
    if (at(TokenKind::Ident))
      return parseIdentLedStmt();
    error("expected a statement");
    return bail();
  }

  StmtPtr parseIf() {
    expectKeyword("if");
    expect(TokenKind::LParen, "'('");
    auto Cond = parseExpr();
    expect(TokenKind::RParen, "')'");
    auto Then = parseBracedBlock();
    StmtPtr Else = std::make_unique<SkipStmt>();
    if (atKeyword("else")) {
      advance();
      if (atKeyword("if"))
        Else = parseIf();
      else
        Else = parseBracedBlock();
    }
    return std::make_unique<IfStmt>(std::move(Cond), std::move(Then),
                                    std::move(Else));
  }

  StmtPtr parseWhile() {
    // while (c) { body }  ==  if (c) { do { body } while (c); }
    // This is the loop rotation StaticBF performs (Section 5): with the
    // exit test after the body, the loop head anticipates the body's
    // accesses, which is what lets checks hoist out of loops.
    expectKeyword("while");
    expect(TokenKind::LParen, "'('");
    auto Cond = parseExpr();
    expect(TokenKind::RParen, "')'");
    auto Body = parseBracedBlock();
    auto ExitCond = unary(UnaryOp::Not, Cond->clone());
    auto Loop = std::make_unique<LoopStmt>(std::move(Body),
                                           std::move(ExitCond),
                                           std::make_unique<SkipStmt>());
    return std::make_unique<IfStmt>(std::move(Cond), std::move(Loop),
                                    std::make_unique<SkipStmt>());
  }

  StmtPtr parseDoWhile() {
    // do { body } while (c);  ==  loop { body; exit_if (!c); skip }
    expectKeyword("do");
    auto Body = parseBracedBlock();
    expectKeyword("while");
    expect(TokenKind::LParen, "'('");
    auto Cond = parseExpr();
    expect(TokenKind::RParen, "')'");
    expect(TokenKind::Semi, "';'");
    auto ExitCond = unary(UnaryOp::Not, std::move(Cond));
    return std::make_unique<LoopStmt>(std::move(Body), std::move(ExitCond),
                                      std::make_unique<SkipStmt>());
  }

  StmtPtr parseLoop() {
    // loop { s1* exit_if (be); s2* }
    expectKeyword("loop");
    expect(TokenKind::LBrace, "'{'");
    auto Pre = std::make_unique<BlockStmt>();
    while (!failed() && !at(TokenKind::RBrace) && !atKeyword("exit_if"))
      Pre->append(parseStmt());
    if (!atKeyword("exit_if")) {
      error("loop body must contain 'exit_if (cond);'");
      return bail();
    }
    advance();
    expect(TokenKind::LParen, "'('");
    auto Cond = parseExpr();
    expect(TokenKind::RParen, "')'");
    expect(TokenKind::Semi, "';'");
    auto Post = std::make_unique<BlockStmt>();
    while (!failed() && !at(TokenKind::RBrace))
      Post->append(parseStmt());
    expect(TokenKind::RBrace, "'}'");
    return std::make_unique<LoopStmt>(std::move(Pre), std::move(Cond),
                                      std::move(Post));
  }

  StmtPtr parseFork() {
    expectKeyword("fork");
    VarName Target = Discarded;
    // fork x = y.m(args);  or  fork y.m(args);
    VarName First = expectName("identifier");
    VarName Receiver;
    if (at(TokenKind::Assign)) {
      advance();
      Target = First;
      Receiver = expectName("receiver");
    } else {
      Receiver = First;
    }
    expect(TokenKind::Dot, "'.'");
    std::string Method = expectIdent("method name");
    auto Args = parseArgs();
    expect(TokenKind::Semi, "';'");
    return std::make_unique<ForkStmt>(Target, Receiver, Method,
                                      std::move(Args));
  }

  std::vector<std::unique_ptr<Expr>> parseArgs() {
    std::vector<std::unique_ptr<Expr>> Args;
    expect(TokenKind::LParen, "'('");
    if (!at(TokenKind::RParen)) {
      while (!failed()) {
        Args.push_back(parseExpr());
        if (at(TokenKind::Comma)) {
          advance();
          continue;
        }
        break;
      }
    }
    expect(TokenKind::RParen, "')'");
    return Args;
  }

  StmtPtr parseCheck() {
    expectKeyword("check");
    expect(TokenKind::LParen, "'('");
    std::vector<Path> Paths;
    if (!at(TokenKind::RParen)) {
      while (!failed()) {
        Paths.push_back(parsePath());
        if (at(TokenKind::Comma)) {
          advance();
          continue;
        }
        break;
      }
    }
    expect(TokenKind::RParen, "')'");
    expect(TokenKind::Semi, "';'");
    return std::make_unique<CheckStmt>(std::move(Paths));
  }

  AffineExpr parseAffine() {
    auto E = parseExpr();
    if (failed())
      return AffineExpr();
    std::optional<AffineExpr> A = toAffine(E.get());
    if (!A) {
      error("expression '" + E->str() + "' in a check path is not affine");
      return AffineExpr();
    }
    return *A;
  }

  Path parsePath() {
    AccessKind Access = AccessKind::Read;
    if (atKeyword("R")) {
      advance();
    } else if (atKeyword("W")) {
      Access = AccessKind::Write;
      advance();
    } else {
      error("check path must start with R or W");
      return Path();
    }
    VarName Designator = expectName("path designator");
    if (at(TokenKind::Dot)) {
      advance();
      std::vector<VarName> Fields;
      Fields.push_back(expectName("field name"));
      while (at(TokenKind::Slash)) {
        advance();
        Fields.push_back(expectName("field name"));
      }
      return Path::fieldGroup(Access, Designator, std::move(Fields));
    }
    if (at(TokenKind::LBracket)) {
      advance();
      AffineExpr Begin = parseAffine();
      if (at(TokenKind::DotDot)) {
        advance();
        AffineExpr End = parseAffine();
        int64_t Stride = 1;
        if (at(TokenKind::Colon)) {
          advance();
          if (!at(TokenKind::Int))
            error("stride must be an integer literal");
          else
            Stride = advance().IntValue;
          // A strided range divides by its stride when it is checked.
          if (Stride < 1)
            error("stride must be at least 1");
        }
        expect(TokenKind::RBracket, "']'");
        return Path::array(Access, Designator,
                           SymbolicRange(Begin, End, Stride));
      }
      expect(TokenKind::RBracket, "']'");
      if (SymbolicRange::singleton(Begin).overflowed()) {
        error("check index '" + Begin.str() +
              "' has no int64 end bound (index + 1 overflows)");
        return Path();
      }
      return Path::arrayIndex(Access, Designator, Begin);
    }
    error("path must be x.f or x[range]");
    return Path();
  }

  /// Statements beginning with an identifier: assignment forms, renames,
  /// heap writes, and target-less calls.
  StmtPtr parseIdentLedStmt() {
    VarName First = expectName("identifier");
    if (at(TokenKind::ColonEq)) {
      advance();
      VarName Source = expectName("rename source");
      expect(TokenKind::Semi, "';'");
      return std::make_unique<RenameStmt>(First, Source);
    }
    if (at(TokenKind::Dot)) {
      advance();
      std::string Member = expectIdent("member name");
      if (at(TokenKind::LParen)) {
        // Target-less call: y.m(args);
        auto Args = parseArgs();
        expect(TokenKind::Semi, "';'");
        return std::make_unique<CallStmt>(Discarded, First, Member,
                                          std::move(Args));
      }
      expect(TokenKind::Assign, "'='");
      auto Value = parseExpr();
      expect(TokenKind::Semi, "';'");
      return std::make_unique<FieldWriteStmt>(First, VarName::intern(Member),
                                              std::move(Value));
    }
    if (at(TokenKind::LBracket)) {
      advance();
      auto Index = parseExpr();
      expect(TokenKind::RBracket, "']'");
      expect(TokenKind::Assign, "'='");
      auto Value = parseExpr();
      expect(TokenKind::Semi, "';'");
      return std::make_unique<ArrayWriteStmt>(First, std::move(Index),
                                              std::move(Value));
    }
    expect(TokenKind::Assign, "'='");
    return parseAssignRhs(First);
  }

  /// The right-hand side of `x = ...`.
  StmtPtr parseAssignRhs(VarName Target) {
    if (atKeyword("new")) {
      advance();
      std::string ClassName = expectIdent("class name");
      expect(TokenKind::Semi, "';'");
      return std::make_unique<NewStmt>(Target, ClassName);
    }
    if (atKeyword("new_array")) {
      advance();
      expect(TokenKind::LParen, "'('");
      auto Size = parseExpr();
      expect(TokenKind::RParen, "')'");
      expect(TokenKind::Semi, "';'");
      return std::make_unique<NewArrayStmt>(Target, std::move(Size));
    }
    if (atKeyword("new_barrier")) {
      advance();
      expect(TokenKind::LParen, "'('");
      auto Parties = parseExpr();
      expect(TokenKind::RParen, "')'");
      expect(TokenKind::Semi, "';'");
      return std::make_unique<NewBarrierStmt>(Target, std::move(Parties));
    }
    if (atKeyword("len") && peek(1).Kind == TokenKind::LParen) {
      advance();
      advance();
      VarName Arr = expectName("array variable");
      expect(TokenKind::RParen, "')'");
      expect(TokenKind::Semi, "';'");
      return std::make_unique<ArrayLenStmt>(Target, Arr);
    }
    // Heap reads and calls start with IDENT '.' or IDENT '['.
    if (at(TokenKind::Ident)) {
      if (peek(1).Kind == TokenKind::Dot) {
        VarName Receiver = VarName::intern(advance().Text);
        advance(); // '.'
        std::string Member = expectIdent("member name");
        if (at(TokenKind::LParen)) {
          auto Args = parseArgs();
          expect(TokenKind::Semi, "';'");
          return std::make_unique<CallStmt>(Target, Receiver, Member,
                                            std::move(Args));
        }
        expect(TokenKind::Semi, "';'");
        return std::make_unique<FieldReadStmt>(Target, Receiver,
                                               VarName::intern(Member));
      }
      if (peek(1).Kind == TokenKind::LBracket) {
        VarName Arr = VarName::intern(advance().Text);
        advance(); // '['
        auto Index = parseExpr();
        expect(TokenKind::RBracket, "']'");
        expect(TokenKind::Semi, "';'");
        return std::make_unique<ArrayReadStmt>(Target, Arr,
                                               std::move(Index));
      }
    }
    auto Value = parseExpr();
    expect(TokenKind::Semi, "';'");
    return std::make_unique<AssignStmt>(Target, std::move(Value));
  }

  //===--------------------------------------------------------------------===
  // Expressions (precedence climbing).
  //===--------------------------------------------------------------------===

  std::unique_ptr<Expr> parseExpr() { return parseOr(); }

  std::unique_ptr<Expr> parseOr() {
    auto L = parseAnd();
    while (!failed() && at(TokenKind::OrOr)) {
      advance();
      L = binary(BinaryOp::Or, std::move(L), parseAnd());
    }
    return L;
  }

  std::unique_ptr<Expr> parseAnd() {
    auto L = parseCompare();
    while (!failed() && at(TokenKind::AndAnd)) {
      advance();
      L = binary(BinaryOp::And, std::move(L), parseCompare());
    }
    return L;
  }

  std::unique_ptr<Expr> parseCompare() {
    auto L = parseAdditive();
    while (!failed()) {
      BinaryOp Op;
      if (at(TokenKind::Lt))
        Op = BinaryOp::Lt;
      else if (at(TokenKind::Le))
        Op = BinaryOp::Le;
      else if (at(TokenKind::Gt))
        Op = BinaryOp::Gt;
      else if (at(TokenKind::Ge))
        Op = BinaryOp::Ge;
      else if (at(TokenKind::EqEq))
        Op = BinaryOp::Eq;
      else if (at(TokenKind::NotEq))
        Op = BinaryOp::Ne;
      else
        break;
      advance();
      L = binary(Op, std::move(L), parseAdditive());
    }
    return L;
  }

  std::unique_ptr<Expr> parseAdditive() {
    auto L = parseMultiplicative();
    while (!failed()) {
      BinaryOp Op;
      if (at(TokenKind::Plus))
        Op = BinaryOp::Add;
      else if (at(TokenKind::Minus))
        Op = BinaryOp::Sub;
      else
        break;
      advance();
      L = binary(Op, std::move(L), parseMultiplicative());
    }
    return L;
  }

  std::unique_ptr<Expr> parseMultiplicative() {
    auto L = parseUnary();
    while (!failed()) {
      BinaryOp Op;
      if (at(TokenKind::Star))
        Op = BinaryOp::Mul;
      else if (at(TokenKind::Slash))
        Op = BinaryOp::Div;
      else if (at(TokenKind::Percent))
        Op = BinaryOp::Mod;
      else
        break;
      advance();
      L = binary(Op, std::move(L), parseUnary());
    }
    return L;
  }

  std::unique_ptr<Expr> parseUnary() {
    if (at(TokenKind::Minus)) {
      advance();
      return unary(UnaryOp::Neg, parseUnary());
    }
    if (at(TokenKind::Not)) {
      advance();
      return unary(UnaryOp::Not, parseUnary());
    }
    return parsePrimary();
  }

  std::unique_ptr<Expr> parsePrimary() {
    if (at(TokenKind::Int))
      return intLit(advance().IntValue);
    if (atKeyword("true")) {
      advance();
      return boolLit(true);
    }
    if (atKeyword("false")) {
      advance();
      return boolLit(false);
    }
    if (atKeyword("null")) {
      advance();
      return nullLit();
    }
    if (at(TokenKind::Ident))
      return var(VarName::intern(advance().Text));
    if (at(TokenKind::LParen)) {
      advance();
      auto E = parseExpr();
      expect(TokenKind::RParen, "')'");
      return E;
    }
    error("expected an expression");
    return intLit(0);
  }
};

} // namespace

ParseResult bigfoot::parseProgram(const std::string &Source) {
  std::vector<Token> Tokens = tokenize(Source);
  if (!Tokens.empty() && Tokens.back().Kind == TokenKind::Error) {
    ParseResult R;
    R.Error = "line " + std::to_string(Tokens.back().Line) + ": " +
              Tokens.back().Text;
    return R;
  }
  Parser P(std::move(Tokens));
  ParseResult R = P.run();
  if (R.ok()) {
    std::vector<std::string> Problems = validateProgram(*R.Prog);
    if (!Problems.empty()) {
      ParseResult Bad;
      Bad.Error = "validation: " + Problems.front();
      return Bad;
    }
    R.Prog->numberStatements();
    R.Prog->internSymbols();
  }
  return R;
}

std::unique_ptr<Program> bigfoot::parseProgramOrDie(const std::string &Source) {
  ParseResult R = parseProgram(Source);
  if (!R.ok()) {
    std::fprintf(stderr, "BFJ parse error: %s\n", R.Error.c_str());
    std::abort();
  }
  return std::move(R.Prog);
}
