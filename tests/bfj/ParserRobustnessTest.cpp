//===- ParserRobustnessTest.cpp - Lexer/parser edge and error cases ----------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "bfj/Lexer.h"
#include "bfj/Parser.h"
#include "bfj/Printer.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace bigfoot;

//===----------------------------------------------------------------------===
// Lexer.
//===----------------------------------------------------------------------===

TEST(Lexer, TokenKindsAndLines) {
  auto Tokens = tokenize("a\nb'2 := 3; // comment\n..:<= <-");
  // a, b'2, :=, 3, ;, .., :, <=, <, -, eof
  ASSERT_GE(Tokens.size(), 10u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Ident);
  EXPECT_EQ(Tokens[0].Line, 1);
  EXPECT_EQ(Tokens[1].Text, "b'2");
  EXPECT_EQ(Tokens[1].Line, 2);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::ColonEq);
  EXPECT_EQ(Tokens[3].IntValue, 3);
  // The comment is skipped entirely.
  EXPECT_EQ(Tokens[5].Kind, TokenKind::DotDot);
  EXPECT_EQ(Tokens[6].Kind, TokenKind::Colon);
  EXPECT_EQ(Tokens[7].Kind, TokenKind::Le);
  EXPECT_EQ(Tokens[8].Kind, TokenKind::Lt);
  EXPECT_EQ(Tokens[9].Kind, TokenKind::Minus);
}

TEST(Lexer, DollarIdentifiers) {
  auto Tokens = tokenize("$g.counter");
  ASSERT_GE(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Text, "$g");
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Dot);
  EXPECT_EQ(Tokens[2].Text, "counter");
}

TEST(Lexer, StrayCharactersAreErrors) {
  for (const char *Bad : {"a & b", "a | b", "a ? b", "a @ b", "a # b"}) {
    auto Tokens = tokenize(Bad);
    EXPECT_EQ(Tokens.back().Kind, TokenKind::Error) << Bad;
  }
}

TEST(Lexer, EmptyInputIsJustEof) {
  auto Tokens = tokenize("");
  ASSERT_EQ(Tokens.size(), 1u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Eof);
}

//===----------------------------------------------------------------------===
// Parser error handling.
//===----------------------------------------------------------------------===

TEST(ParserErrors, DiagnosesCommonMistakes) {
  struct Case {
    const char *Source;
    const char *ExpectSubstring;
  };
  const Case Cases[] = {
      {"thread { x = ; }", "expression"},
      {"thread { if x < 1 { skip; } }", "'('"},
      {"thread { loop { skip; } }", "exit_if"},
      {"class C fields x; thread { skip; }", "'{'"},
      {"thread { check(x.f); }", "R or W"},
      {"thread { check(R x); }", "x.f or x[range]"},
      {"thread { a = new_array(4); check(R a[0..4:0]); }",
       "stride must be at least 1"},
      {"banana { }", "expected 'class' or 'thread'"},
      {"thread { x = 1 }", "';'"},
  };
  for (const Case &C : Cases) {
    ParseResult R = parseProgram(C.Source);
    ASSERT_FALSE(R.ok()) << C.Source;
    EXPECT_NE(R.Error.find(C.ExpectSubstring), std::string::npos)
        << C.Source << " -> " << R.Error;
  }
}

TEST(ParserErrors, NeverCrashesOnRandomTokenSoup) {
  // Fuzz the parser with syntactically plausible garbage; it must return
  // an error (or, rarely, a valid parse) without crashing.
  const char *Pieces[] = {"thread", "class",  "{",  "}",   "(",     ")",
                          "x",      "=",      ";",  "if",  "while", "1",
                          "+",      "check",  "R",  "[",   "]",     "..",
                          ":",      "acq",    "<",  "new", "fork",  ".",
                          "await",  "exit_if"};
  Rng R(2026);
  for (int Trial = 0; Trial < 300; ++Trial) {
    std::string Source;
    int Len = 3 + static_cast<int>(R.nextBelow(40));
    for (int I = 0; I < Len; ++I) {
      Source += Pieces[R.nextBelow(sizeof(Pieces) / sizeof(Pieces[0]))];
      Source += ' ';
    }
    ParseResult Result = parseProgram(Source);
    if (Result.ok())
      EXPECT_NE(Result.Prog, nullptr);
    else
      EXPECT_FALSE(Result.Error.empty()) << Source;
  }
}

TEST(ParserRoundTrip, SuiteStaysStableThroughThreePasses) {
  // print(parse(print(parse(x)))) must be a fixed point.
  const char *Source = R"(
class C {
  fields f, g;
  volatile fields v;
  method m(x, y) {
    acq(this);
    t = this.f;
    this.g = t + x * y - 3;
    rel(this);
    loop {
      t = t - 1;
      exit_if (t <= 0);
      skip;
    }
    return t;
  }
}
thread {
  o = new C;
  b = new_barrier(2);
  a = new_array(7);
  n = len(a);
  check(R o.f/g, W a[0..n:2], R a[3]);
  r = o.m(2, 3);
  print r;
}
)";
  auto P1 = parseProgramOrDie(Source);
  std::string S1 = printProgram(*P1);
  auto P2 = parseProgramOrDie(S1.c_str());
  std::string S2 = printProgram(*P2);
  EXPECT_EQ(S1, S2);
  auto P3 = parseProgramOrDie(S2.c_str());
  EXPECT_EQ(printProgram(*P3), S2);
}

TEST(ParserRoundTrip, NegativeNumbersAndPrecedence) {
  ParseResult R = parseProgram(R"(
thread {
  x = 0 - 5;
  y = -x;
  z = 2 + 3 * 4 - 1;
  w = (2 + 3) * (4 - 1);
  b = x < y && y <= z || !(w == 15);
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  std::string Printed = printProgram(*R.Prog);
  EXPECT_TRUE(parseProgram(Printed).ok()) << Printed;
}
