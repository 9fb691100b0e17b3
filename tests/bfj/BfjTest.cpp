//===- BfjTest.cpp - Unit tests for the BFJ language ------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "bfj/Parser.h"
#include "bfj/Printer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <set>

using namespace bigfoot;

namespace {

VarName n(std::string_view Name) { return VarName::intern(Name); }

/// The name \p S defines, or "<none>".
std::string definedName(const Stmt *S) {
  VarName X = definedVar(S);
  return X ? X.name() : "<none>";
}

/// The names forEachVar visits in \p S, in order.
std::vector<std::string> varNames(const Stmt *S) {
  std::vector<std::string> Vars;
  forEachVar(S, [&Vars](VarName V) { Vars.push_back(V.name()); });
  return Vars;
}

const char *PointSource = R"(
class Point {
  fields x, y, z;
  method move(dx, dy, dz) {
    tmp = this.x;
    this.x = tmp + dx;
    tmp = this.y;
    this.y = tmp + dy;
    tmp = this.z;
    this.z = tmp + dz;
  }
}

thread {
  p = new Point;
  p.move(1, 1, 1);
}
)";

} // namespace

TEST(BfjParser, ParsesFigure1Point) {
  ParseResult R = parseProgram(PointSource);
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Prog->Classes.size(), 1u);
  EXPECT_EQ(R.Prog->Classes[0]->Name, "Point");
  EXPECT_EQ(R.Prog->Classes[0]->Fields.size(), 3u);
  ASSERT_EQ(R.Prog->Classes[0]->Methods.size(), 1u);
  EXPECT_EQ(R.Prog->Classes[0]->Methods[0]->Params.size(), 3u);
  ASSERT_EQ(R.Prog->Threads.size(), 1u);
}

TEST(BfjParser, RoundTripsThroughPrinter) {
  ParseResult R1 = parseProgram(PointSource);
  ASSERT_TRUE(R1.ok()) << R1.Error;
  std::string Printed = printProgram(*R1.Prog);
  ParseResult R2 = parseProgram(Printed);
  ASSERT_TRUE(R2.ok()) << R2.Error << "\n" << Printed;
  EXPECT_EQ(printProgram(*R2.Prog), Printed);
}

TEST(BfjParser, WhileDesugarsToRotatedLoop) {
  // while (c) { s }  ==  if (c) { do { s } while (c); } — the loop
  // rotation of Section 5 that puts the exit test after the body.
  ParseResult R = parseProgram(R"(
thread {
  i = 0;
  while (i < 10) {
    i = i + 1;
  }
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  const auto *Block = cast<BlockStmt>(R.Prog->Threads[0].get());
  ASSERT_EQ(Block->stmts().size(), 2u);
  const auto *If = dyn_cast<IfStmt>(Block->stmts()[1].get());
  ASSERT_NE(If, nullptr);
  const auto *Loop = dyn_cast<LoopStmt>(If->thenStmt());
  ASSERT_NE(Loop, nullptr);
  EXPECT_FALSE(isa<SkipStmt>(Loop->preBody()));
  EXPECT_TRUE(isa<SkipStmt>(Loop->postBody()));
  EXPECT_EQ(Loop->exitCond()->str(), "!((i < 10))");
}

TEST(BfjParser, DoWhilePutsBodyBeforeExit) {
  ParseResult R = parseProgram(R"(
thread {
  i = 0;
  do {
    i = i + 1;
  } while (i < 10);
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  const auto *Block = cast<BlockStmt>(R.Prog->Threads[0].get());
  const auto *Loop = dyn_cast<LoopStmt>(Block->stmts()[1].get());
  ASSERT_NE(Loop, nullptr);
  EXPECT_FALSE(isa<SkipStmt>(Loop->preBody()));
  EXPECT_TRUE(isa<SkipStmt>(Loop->postBody()));
}

TEST(BfjParser, MidTestLoopForm) {
  ParseResult R = parseProgram(R"(
thread {
  i = 0;
  loop {
    i = i + 1;
    exit_if (i == 5);
    i = i + 1;
  }
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(BfjParser, ChecksRoundTrip) {
  const char *Source = R"(
class C {
  fields f, g;
}

thread {
  o = new C;
  a = new_array(10);
  n = 10;
  i = 2;
  check(R o.f, W o.f/g, R a[0..n:2], W a[i]);
}
)";
  ParseResult R = parseProgram(Source);
  ASSERT_TRUE(R.ok()) << R.Error;
  std::string Printed = printProgram(*R.Prog);
  ParseResult R2 = parseProgram(Printed);
  ASSERT_TRUE(R2.ok()) << R2.Error << "\n" << Printed;

  // Dig out the check statement and inspect the parsed paths.
  const CheckStmt *Check = nullptr;
  R.Prog->forEachStmt([&Check](const Stmt *S) {
    if (const auto *C = dyn_cast<CheckStmt>(S))
      Check = C;
  });
  ASSERT_NE(Check, nullptr);
  ASSERT_EQ(Check->paths().size(), 4u);
  EXPECT_EQ(Check->paths()[0].Access, AccessKind::Read);
  EXPECT_TRUE(Check->paths()[0].isField());
  EXPECT_EQ(Check->paths()[1].Fields.size(), 2u);
  EXPECT_TRUE(Check->paths()[2].isArray());
  EXPECT_EQ(Check->paths()[2].Range.Stride, 2);
  EXPECT_TRUE(Check->paths()[3].Range.isSingleton());
}

TEST(BfjParser, SyncStatements) {
  ParseResult R = parseProgram(R"(
class Worker {
  fields dummy;
  method run(k) {
    x = k + 1;
  }
}

thread {
  w = new Worker;
  lock = new Worker;
  acq(lock);
  rel(lock);
  fork t = w.run(3);
  join t;
  b = new_barrier(2);
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
}

TEST(BfjParser, VolatileFields) {
  ParseResult R = parseProgram(R"(
class Flag {
  fields data;
  volatile fields ready;
}

thread {
  f = new Flag;
  f.ready = 1;
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.Prog->isFieldVolatileAnywhere("ready"));
  EXPECT_FALSE(R.Prog->isFieldVolatileAnywhere("data"));
}

TEST(BfjParser, RenameStatement) {
  ParseResult R = parseProgram(R"(
thread {
  i = 0;
  i' := i;
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  const auto *Block = cast<BlockStmt>(R.Prog->Threads[0].get());
  const auto *Ren = dyn_cast<RenameStmt>(Block->stmts()[1].get());
  ASSERT_NE(Ren, nullptr);
  EXPECT_EQ(Ren->target(), n("i'"));
  EXPECT_EQ(Ren->source(), n("i"));
}

TEST(BfjParser, RejectsNonAffineIndex) {
  ParseResult R = parseProgram(R"(
thread {
  a = new_array(10);
  i = 2;
  j = 3;
  a[i * j] = 1;
}
)");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("affine"), std::string::npos) << R.Error;
}

TEST(BfjParser, RejectsUnknownClass) {
  ParseResult R = parseProgram("thread { x = new Nope; }");
  EXPECT_FALSE(R.ok());
}

TEST(BfjParser, RejectsUnknownMethod) {
  ParseResult R = parseProgram(R"(
class C { fields f; }
thread {
  o = new C;
  x = o.nothing(1);
}
)");
  EXPECT_FALSE(R.ok());
}

TEST(BfjParser, ReportsLineNumbers) {
  ParseResult R = parseProgram("thread {\n  x = ;\n}\n");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("line 2"), std::string::npos) << R.Error;
}

TEST(BfjAst, CloneIsDeepAndPreservesIds) {
  ParseResult R = parseProgram(PointSource);
  ASSERT_TRUE(R.ok());
  unsigned Count = R.Prog->numberStatements();
  ASSERT_GT(Count, 0u);
  auto Copy = R.Prog->clone();
  EXPECT_EQ(printProgram(*Copy), printProgram(*R.Prog));
  // Ids survive the clone.
  std::vector<unsigned> A, B;
  R.Prog->forEachStmt([&A](const Stmt *S) { A.push_back(S->id()); });
  Copy->forEachStmt([&B](const Stmt *S) { B.push_back(S->id()); });
  EXPECT_EQ(A, B);
}

TEST(BfjAst, ExprMentions) {
  auto E = binary(BinaryOp::Add, var(n("i")), intLit(3));
  std::vector<VarName> Vars;
  E->forEachVar([&Vars](VarName V) { Vars.push_back(V); });
  EXPECT_EQ(Vars, std::vector<VarName>{n("i")}); // i, and not j.
}

TEST(BfjAst, StatementVarsAndAccessPaths) {
  auto Prog = parseProgramOrDie(R"(
class C {
  fields f;
  method id(v) {
    return v;
  }
}
thread {
  a = new_array(4);
  i = 1;
  x = a[i + i];
  a[i] = x + 2;
  o = new C;
  o.f = i;
  o.id(i);
  r = o.id(x);
  check(W a[i..x + 1]);
  assert i < x;
}
)");
  const auto &Body = cast<BlockStmt>(Prog->Threads[0].get())->stmts();
  ASSERT_EQ(Body.size(), 10u);
  auto PathOf = [](const Stmt *S) -> std::string {
    std::optional<Path> P = accessPath(S);
    return P ? std::string(accessKindName(P->Access)) + " " + P->str()
             : "<none>";
  };
  using Names = std::vector<std::string>;
  // x = a[i + i]: the target first, then each occurrence it reads.
  EXPECT_EQ(definedName(Body[2].get()), "x");
  EXPECT_EQ(varNames(Body[2].get()), (Names{"x", "a", "i", "i"}));
  EXPECT_EQ(PathOf(Body[2].get()), "read a[2*i]");
  // a[i] = x + 2 assigns no local.
  EXPECT_EQ(definedName(Body[3].get()), "<none>");
  EXPECT_EQ(varNames(Body[3].get()), (Names{"a", "i", "x"}));
  EXPECT_EQ(PathOf(Body[3].get()), "write a[i]");
  EXPECT_EQ(PathOf(Body[5].get()), "write o.f");
  // A discarded call result is no variable; a kept one is.
  EXPECT_EQ(definedName(Body[6].get()), "<none>");
  EXPECT_EQ(varNames(Body[6].get()), (Names{"o", "i"}));
  EXPECT_EQ(definedName(Body[7].get()), "r");
  EXPECT_EQ(varNames(Body[7].get()), (Names{"r", "o", "x"}));
  EXPECT_EQ(PathOf(Body[7].get()), "<none>");
  // A check names its designator and its bounds' variables.
  EXPECT_EQ(varNames(Body[8].get()), (Names{"a", "i", "x"}));
  EXPECT_EQ(varNames(Body[9].get()), (Names{"i", "x"}));
  EXPECT_EQ(definedName(Body[9].get()), "<none>");
}

TEST(BfjAst, RenameUsesRenamesWhatForEachVarReads) {
  // Every statement kind, with x as a local and also as a field and a
  // method name, which must stay.
  auto Prog = parseProgramOrDie(R"(
class C {
  fields f, x;
  method x(v) {
    return v;
  }
}
thread {
  skip;
  a = new_array(x + 4);
  x = 1;
  x' := x;
  o = new C;
  acq(x);
  rel(x);
  i = x.x;
  x.x = x + i;
  x = a[x + i];
  a[x] = x * 2;
  n = len(x);
  r = x.x(x, i);
  x.x(x);
  check(R x.f/x, W a[i + x..x + 4:2]);
  fork h = x.x(x);
  join x;
  x = new_barrier(x);
  await x;
  print x;
  assert x < 3;
  if (x < 2) {
    i = x;
  }
  loop {
    i = x;
    exit_if (x > i);
    i = i - x;
  }
}
)");
  auto Reads = [](const Stmt *S) {
    std::vector<std::string> Vars = varNames(S);
    if (definedVar(S))
      Vars.erase(Vars.begin());
    return Vars;
  };
  const std::regex Z("\\bz\\b");
  std::set<StmtKind> Kinds;
  walkStmt(Prog->Threads[0].get(), [&](const Stmt *S) {
    Kinds.insert(S->kind());
    StmtPtr Copy = S->clone();
    renameUses(Copy.get(), n("x"), n("z"));
    std::vector<std::string> Expected = Reads(S);
    size_t Renamed = std::count(Expected.begin(), Expected.end(), "x");
    std::replace(Expected.begin(), Expected.end(), std::string("x"),
                 std::string("z"));
    std::string Before = printStmt(S);
    std::string After = printStmt(Copy.get());
    EXPECT_EQ(Reads(Copy.get()), Expected) << Before;
    EXPECT_EQ(definedName(Copy.get()), definedName(S)) << Before;
    // Nothing else changed: z stands exactly where those reads were.
    EXPECT_EQ(static_cast<size_t>(std::distance(
                  std::sregex_iterator(After.begin(), After.end(), Z),
                  std::sregex_iterator())),
              Renamed)
        << After;
    EXPECT_EQ(std::regex_replace(After, Z, "x"), Before);
  });
  EXPECT_EQ(Kinds.size(), static_cast<size_t>(StmtKind::AssertStmt) + 1);
}

TEST(BfjAst, ToAffineHandlesLinearForms) {
  auto E = binary(BinaryOp::Add,
                  binary(BinaryOp::Mul, intLit(2), var(n("i"))),
                  binary(BinaryOp::Sub, var(n("j")), intLit(1)));
  auto A = toAffine(E.get());
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(*A, AffineExpr::variable(n("i")) * 2 +
                    AffineExpr::variable(n("j")) - 1);
}

TEST(BfjAst, ToAffineRejectsProducts) {
  auto E = binary(BinaryOp::Mul, var(n("i")), var(n("j")));
  EXPECT_FALSE(toAffine(E.get()).has_value());
}

TEST(BfjAst, TargetlessCallParses) {
  ParseResult R = parseProgram(R"(
class C {
  fields f;
  method poke() {
    z = 1;
  }
}
thread {
  o = new C;
  o.poke();
}
)");
  ASSERT_TRUE(R.ok()) << R.Error;
}
