//===- CheckPlacementTest.cpp - StaticBF placement tests --------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// These tests pin the analysis to the paper's own examples: Figure 1
// (Point.move and movePts), Figure 3 (the lock fragment with one check),
// and Figure 6 (if/loop placements).
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckPlacement.h"

#include "bfj/Parser.h"
#include "bfj/Printer.h"
#include "instrument/Instrumenters.h"
#include "vm/Vm.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace bigfoot;

namespace {

VarName n(std::string_view Name) { return VarName::intern(Name); }

/// Collects every check statement in the program, in pre-order.
std::vector<const CheckStmt *> allChecks(const Program &P) {
  std::vector<const CheckStmt *> Out;
  P.forEachStmt([&Out](const Stmt *S) {
    if (const auto *C = dyn_cast<CheckStmt>(S))
      Out.push_back(C);
  });
  return Out;
}

/// Total number of checked paths.
size_t totalPaths(const Program &P) {
  size_t N = 0;
  for (const CheckStmt *C : allChecks(P))
    N += C->paths().size();
  return N;
}

std::unique_ptr<Program> instrument(const char *Source,
                                    PlacementOptions Opts = {}) {
  auto Prog = parseProgramOrDie(Source);
  placeBigFootChecks(*Prog, Opts);
  return Prog;
}

} // namespace

TEST(CheckPlacement, Figure1PointMoveCoalesces) {
  auto Prog = instrument(R"(
class Point {
  fields x, y, z;
  method move(dx, dy, dz) {
    tmp = this.x;
    this.x = tmp + dx;
    tmp2 = this.y;
    this.y = tmp2 + dy;
    tmp3 = this.z;
    this.z = tmp3 + dz;
  }
}
thread {
  p = new Point;
  p.move(1, 1, 1);
}
)");
  // The six accesses should induce exactly one coalesced write check
  // covering this.x/y/z at the end of move (read checks are covered by
  // the anticipated writes).
  const MethodDecl *Move = Prog->Classes[0]->Methods[0].get();
  std::vector<const CheckStmt *> Checks;
  walkStmt(Move->Body.get(), [&Checks](Stmt *S) {
    if (auto *C = dyn_cast<CheckStmt>(S))
      Checks.push_back(C);
  });
  ASSERT_EQ(Checks.size(), 1u) << printProgram(*Prog);
  ASSERT_EQ(Checks[0]->paths().size(), 1u) << printProgram(*Prog);
  const Path &P = Checks[0]->paths()[0];
  EXPECT_EQ(P.Access, AccessKind::Write);
  EXPECT_TRUE(P.isField());
  EXPECT_EQ(P.Designator, n("this"));
  EXPECT_EQ(P.Fields.size(), 3u) << printProgram(*Prog);
}

TEST(CheckPlacement, Figure1MovePtsHoistsLoopCheck) {
  auto Prog = instrument(R"(
class Point {
  fields x, y, z;
  method move(dx, dy, dz) {
    tmp = this.x;
    this.x = tmp + dx;
  }
}
class Mover {
  fields dummy;
  method movePts(a, lo, hi) {
    i = lo;
    while (i < hi) {
      p = a[i];
      p.move(1, 1, 1);
      i = i + 1;
    }
  }
}
thread {
  m = new Mover;
}
)");
  const MethodDecl *MovePts = Prog->Classes[1]->Methods[0].get();
  // Expect exactly one check on array a, a read of a[lo..hi] (or an
  // equivalent range), placed outside the loop.
  std::vector<const CheckStmt *> Checks;
  walkStmt(MovePts->Body.get(), [&Checks](Stmt *S) {
    if (auto *C = dyn_cast<CheckStmt>(S))
      Checks.push_back(C);
  });
  size_t ArrayPaths = 0;
  bool InsideLoop = false;
  walkStmt(MovePts->Body.get(), [&](Stmt *S) {
    if (auto *Loop = dyn_cast<LoopStmt>(S)) {
      walkStmt(Loop->preBody(), [&](Stmt *Inner) {
        if (isa<CheckStmt>(Inner))
          InsideLoop = true;
      });
      walkStmt(Loop->postBody(), [&](Stmt *Inner) {
        if (isa<CheckStmt>(Inner))
          InsideLoop = true;
      });
    }
  });
  for (const CheckStmt *C : Checks)
    for (const Path &P : C->paths())
      if (P.isArray())
        ++ArrayPaths;
  EXPECT_FALSE(InsideLoop) << printProgram(*Prog);
  EXPECT_EQ(ArrayPaths, 1u) << printProgram(*Prog);
}

TEST(CheckPlacement, Figure3SingleCheckCoversThreeAccesses) {
  // The Figure 3 fragment: three reads of b.f around lock operations need
  // exactly one check, placed before the second acquire.
  auto Prog = instrument(R"(
class C {
  fields f;
}
thread {
  b = new C;
  lock = new C;
  acq(lock);
  x = b.f;
  rel(lock);
  y = b.f;
  acq(lock);
  z = b.f;
  rel(lock);
}
)");
  std::vector<const CheckStmt *> Checks = allChecks(*Prog);
  size_t FChecks = 0;
  for (const CheckStmt *C : Checks)
    for (const Path &P : C->paths())
      if (P.isField() && P.Fields[0] == n("f"))
        ++FChecks;
  EXPECT_EQ(FChecks, 1u) << printProgram(*Prog);
}

TEST(CheckPlacement, Figure6aIfPlacement) {
  // if (i<0) { y = b.g; } else { x = b.f; }  z = b.f;
  // The then-branch needs a check on b.g at its end; the else-branch's
  // access to b.f is anticipated by the later access, so it needs none.
  // i must be statically unknown (a parameter), else one branch is dead.
  auto Prog = instrument(R"(
class C {
  fields f, g;
  method fig6a(b, i) {
    if (i < 0) {
      y = b.g;
    } else {
      x = b.f;
    }
    z = b.f;
    acq(b);
    rel(b);
  }
}
thread {
  b = new C;
}
)");
  // Count checks on b.g vs b.f inside the if statement.
  size_t GChecks = 0, FChecksInsideIf = 0;
  Prog->forEachStmt([&](const Stmt *S) {
    const auto *If = dyn_cast<IfStmt>(S);
    if (!If)
      return;
    auto CountIn = [&](const Stmt *Branch) {
      walkStmt(Branch, [&](const Stmt *Inner) {
        if (const auto *C = dyn_cast<CheckStmt>(Inner))
          for (const Path &P : C->paths()) {
            if (P.isField() && P.Fields[0] == n("g"))
              ++GChecks;
            if (P.isField() && P.Fields[0] == n("f"))
              ++FChecksInsideIf;
          }
      });
    };
    CountIn(If->thenStmt());
    CountIn(If->elseStmt());
  });
  EXPECT_EQ(GChecks, 1u) << printProgram(*Prog);
  EXPECT_EQ(FChecksInsideIf, 0u) << printProgram(*Prog);
}

TEST(CheckPlacement, Figure6bLoopAccumulatesArrayRange) {
  // The Figure 6(b) loop: reads b.f and writes a[i] each iteration; all
  // checks should land after the loop: one W a[0..i]-style range and one
  // R b.f.
  auto Prog = instrument(R"(
class C {
  fields f;
}
thread {
  b = new C;
  n = 100;
  a = new_array(n);
  i = 0;
  while (i < n) {
    t = b.f;
    a[i] = t;
    i = i + 1;
  }
  acq(b);
  rel(b);
}
)");
  bool CheckInsideLoop = false;
  Prog->forEachStmt([&](const Stmt *S) {
    if (const auto *Loop = dyn_cast<LoopStmt>(S)) {
      walkStmt(static_cast<const Stmt *>(Loop->preBody()),
               [&](const Stmt *Inner) {
                 if (isa<CheckStmt>(Inner))
                   CheckInsideLoop = true;
               });
      walkStmt(static_cast<const Stmt *>(Loop->postBody()),
               [&](const Stmt *Inner) {
                 if (isa<CheckStmt>(Inner))
                   CheckInsideLoop = true;
               });
    }
  });
  EXPECT_FALSE(CheckInsideLoop) << printProgram(*Prog);
  // Exactly one array write path (the coalesced range) and one b.f read.
  size_t ArrayPaths = 0, FieldPaths = 0;
  for (const CheckStmt *C : allChecks(*Prog))
    for (const Path &P : C->paths()) {
      if (P.isArray()) {
        ++ArrayPaths;
        EXPECT_EQ(P.Access, AccessKind::Write);
        EXPECT_FALSE(P.Range.isSingleton()) << printProgram(*Prog);
      } else {
        ++FieldPaths;
      }
    }
  EXPECT_EQ(ArrayPaths, 1u) << printProgram(*Prog);
  EXPECT_EQ(FieldPaths, 1u) << printProgram(*Prog);
}

TEST(CheckPlacement, ReadModifyWriteNeedsOnlyWriteCheck) {
  auto Prog = instrument(R"(
class C {
  fields f;
}
thread {
  o = new C;
  t = o.f;
  o.f = t + 1;
}
)");
  std::vector<const CheckStmt *> Checks = allChecks(*Prog);
  ASSERT_EQ(Checks.size(), 1u) << printProgram(*Prog);
  ASSERT_EQ(Checks[0]->paths().size(), 1u);
  EXPECT_EQ(Checks[0]->paths()[0].Access, AccessKind::Write);
}

TEST(CheckPlacement, WriteThenReadStillNeedsWriteCheck) {
  // A read after a write: the write check covers the read too.
  auto Prog = instrument(R"(
class C {
  fields f;
}
thread {
  o = new C;
  o.f = 1;
  t = o.f;
}
)");
  std::vector<const CheckStmt *> Checks = allChecks(*Prog);
  ASSERT_EQ(Checks.size(), 1u) << printProgram(*Prog);
  ASSERT_EQ(Checks[0]->paths().size(), 1u);
  EXPECT_EQ(Checks[0]->paths()[0].Access, AccessKind::Write);
}

TEST(CheckPlacement, ReadCheckDoesNotCoverWrite) {
  // Read in both branches but write in one: the write branch needs its
  // own write check (a read check cannot cover a write access).
  auto Prog = instrument(R"(
class C {
  fields f;
}
thread {
  o = new C;
  c = 1;
  if (c < 2) {
    o.f = 5;
  } else {
    t = o.f;
  }
  u = o.f;
}
)");
  bool WriteCheckExists = false;
  for (const CheckStmt *C : allChecks(*Prog))
    for (const Path &P : C->paths())
      if (P.Access == AccessKind::Write)
        WriteCheckExists = true;
  EXPECT_TRUE(WriteCheckExists) << printProgram(*Prog);
}

TEST(CheckPlacement, ChecksBeforeAcquireNotAfter) {
  // An unchecked access must be checked before a later acquire (covering
  // range ends there).
  auto Prog = instrument(R"(
class C {
  fields f;
}
thread {
  o = new C;
  lock = new C;
  t = o.f;
  acq(lock);
  rel(lock);
}
)");
  // Find positions: the check for o.f must appear before the acquire.
  std::vector<std::string> Order;
  Prog->forEachStmt([&Order](const Stmt *S) {
    if (isa<CheckStmt>(S))
      Order.push_back("check");
    else if (isa<AcquireStmt>(S))
      Order.push_back("acq");
  });
  ASSERT_GE(Order.size(), 2u);
  EXPECT_EQ(Order[0], "check") << printProgram(*Prog);
  EXPECT_EQ(Order[1], "acq") << printProgram(*Prog);
}

TEST(CheckPlacement, AliasedReadsShareOneCheck) {
  // The Section 5 alias example: x = a.f; s = x.g; y = a.f; t = y.g.
  // Check on x.g covers the access to y.g because x = y is entailed.
  auto Prog = instrument(R"(
class C {
  fields f, g;
}
thread {
  a = new C;
  lock = new C;
  acq(lock);
  x = a.f;
  s = x.g;
  y = a.f;
  t = y.g;
  rel(lock);
}
)");
  size_t GPaths = 0;
  for (const CheckStmt *C : allChecks(*Prog))
    for (const Path &P : C->paths())
      if (P.isField() && P.Fields[0] == n("g"))
        ++GPaths;
  EXPECT_EQ(GPaths, 1u) << printProgram(*Prog);
}

TEST(CheckPlacement, AnticipationOffPlacesMoreChecks) {
  // The Figure 3 shape: with anticipation, the access before the release
  // needs no check there (the later covering check suffices); without it,
  // a check lands before the release too.
  const char *Source = R"(
class C {
  fields f;
}
thread {
  b = new C;
  lock = new C;
  acq(lock);
  x = b.f;
  rel(lock);
  y = b.f;
  acq(lock);
  rel(lock);
}
)";
  auto Full = instrument(Source);
  PlacementOptions NoAnt;
  NoAnt.UseAnticipation = false;
  auto Reduced = instrument(Source, NoAnt);
  EXPECT_GT(totalPaths(*Reduced), totalPaths(*Full));
}

TEST(CheckPlacement, VolatileWriteActsAsRelease) {
  // Accesses before a volatile write must be checked before it.
  auto Prog = instrument(R"(
class C {
  fields f;
  volatile fields ready;
}
thread {
  o = new C;
  o.f = 42;
  o.ready = 1;
}
)");
  std::vector<std::string> Order;
  Prog->forEachStmt([&Order](const Stmt *S) {
    if (isa<CheckStmt>(S))
      Order.push_back("check");
    else if (const auto *W = dyn_cast<FieldWriteStmt>(S))
      Order.push_back(W->field().name());
  });
  // Expected order: write f, check, write ready.
  ASSERT_EQ(Order.size(), 3u) << printProgram(*Prog);
  EXPECT_EQ(Order[0], "f");
  EXPECT_EQ(Order[1], "check");
  EXPECT_EQ(Order[2], "ready");
}

TEST(CheckPlacement, CallWithSyncForcesChecksBeforeCall) {
  auto Prog = instrument(R"(
class C {
  fields f;
  method locked() {
    acq(this);
    rel(this);
  }
}
thread {
  o = new C;
  t = o.f;
  o.locked();
}
)");
  std::vector<std::string> Order;
  Prog->forEachStmt([&Order](const Stmt *S) {
    if (isa<CheckStmt>(S))
      Order.push_back("check");
    else if (isa<CallStmt>(S))
      Order.push_back("call");
  });
  // In the thread body: check precedes the call.
  auto CallIt = std::find(Order.begin(), Order.end(), "call");
  ASSERT_NE(CallIt, Order.end());
  EXPECT_NE(std::find(Order.begin(), CallIt, "check"), CallIt)
      << printProgram(*Prog);
}

TEST(CheckPlacement, PureCallDoesNotForceChecks) {
  auto Prog = instrument(R"(
class C {
  fields f;
  method pure(k) {
    z = k + 1;
    return z;
  }
}
thread {
  o = new C;
  t = o.f;
  u = o.pure(3);
  v = o.f;
}
)");
  // Only one check on o.f in the thread (deferred to the end), since the
  // call performs no synchronization.
  size_t FPaths = 0;
  for (const CheckStmt *C : allChecks(*Prog))
    for (const Path &P : C->paths())
      if (P.isField() && P.Fields[0] == n("f"))
        ++FPaths;
  EXPECT_EQ(FPaths, 1u) << printProgram(*Prog);
}

TEST(CheckPlacement, StridedLoopProducesStridedRange) {
  auto Prog = instrument(R"(
thread {
  n = 64;
  a = new_array(n);
  i = 0;
  while (i < n) {
    a[i] = 7;
    i = i + 2;
  }
}
)");
  bool FoundStride2 = false;
  for (const CheckStmt *C : allChecks(*Prog))
    for (const Path &P : C->paths())
      if (P.isArray() && P.Range.Stride == 2)
        FoundStride2 = true;
  EXPECT_TRUE(FoundStride2) << printProgram(*Prog);
}

TEST(CheckPlacement, TraceContextsProducesFigureStyleOutput) {
  PlacementOptions Opts;
  Opts.TraceContexts = true;
  auto Prog = parseProgramOrDie(R"(
class C {
  fields f;
}
thread {
  b = new C;
  lock = new C;
  acq(lock);
  x = b.f;
  rel(lock);
  y = b.f;
  acq(lock);
  z = b.f;
  rel(lock);
}
)");
  PlacementStats Stats = placeBigFootChecks(*Prog, Opts);
  EXPECT_FALSE(Stats.ContextAfter.empty());
  // At least one context should mention a past access on b.f.
  bool SawAccess = false;
  for (const auto &[Id, Text] : Stats.ContextAfter)
    if (Text.find("b.f✁") != std::string::npos)
      SawAccess = true;
  EXPECT_TRUE(SawAccess);
}

TEST(CheckPlacement, MinIntQuotientLoopBoundIsNotFolded) {
  // toAffine folds constant quotients, but INT64_MIN / -1 has no int64
  // value: it declines the fold (dropping the loop-bound fact) instead of
  // trapping, and placement still covers the loop's array accesses.
  auto MinInt = binary(BinaryOp::Sub,
                       binary(BinaryOp::Sub, intLit(0),
                              intLit(9223372036854775807)),
                       intLit(1));
  auto Quotient = binary(BinaryOp::Div, std::move(MinInt),
                         binary(BinaryOp::Sub, intLit(0), intLit(1)));
  EXPECT_FALSE(toAffine(Quotient.get()).has_value());
  auto Folded = binary(BinaryOp::Div, intLit(-8), intLit(-1));
  EXPECT_EQ(toAffine(Folded.get()), AffineExpr::constant(8));

  auto Prog = instrument(R"(
thread {
  a = new_array(4);
  i = 0;
  while (i < (0 - 9223372036854775807 - 1) / (0 - 1)) {
    a[0] = i;
    i = i + 1;
  }
}
)");
  size_t ArrayPaths = 0;
  for (const CheckStmt *C : allChecks(*Prog))
    for (const Path &P : C->paths())
      if (P.isArray() && P.Designator == n("a"))
        ++ArrayPaths;
  EXPECT_GE(ArrayPaths, 1u) << printProgram(*Prog);
}

TEST(CheckPlacement, OverflowingFoldsAreDeclined) {
  // toAffine folds + - * and unary - over constants and coefficients. A
  // fold whose constant or coefficient int64 cannot hold is declined
  // instead of overflowing; the same folds one step inside the range
  // still happen.
  const int64_t Max = 9223372036854775807;
  auto minInt = [Max] { return sub(sub(intLit(0), intLit(Max)), intLit(1)); };
  auto mul = [](std::unique_ptr<Expr> L, std::unique_ptr<Expr> R) {
    return binary(BinaryOp::Mul, std::move(L), std::move(R));
  };
  EXPECT_FALSE(toAffine(add(intLit(Max), intLit(1)).get()));
  EXPECT_FALSE(toAffine(sub(minInt(), intLit(1)).get()));
  EXPECT_FALSE(toAffine(mul(intLit(Max), intLit(2)).get()));
  EXPECT_FALSE(toAffine(unary(UnaryOp::Neg, minInt()).get()));
  EXPECT_FALSE(toAffine(add(mul(var(n("i")), intLit(Max)), var(n("i"))).get()));
  EXPECT_FALSE(toAffine(sub(var(n("i")), mul(var(n("i")), minInt())).get()));

  EXPECT_EQ(toAffine(add(intLit(Max), intLit(0)).get()),
            AffineExpr::constant(Max));
  EXPECT_EQ(toAffine(sub(minInt(), intLit(0)).get()),
            AffineExpr::constant(-Max - 1));
  EXPECT_EQ(toAffine(mul(intLit(Max), intLit(-1)).get()),
            AffineExpr::constant(-Max));
  EXPECT_EQ(toAffine(unary(UnaryOp::Neg, intLit(Max)).get()),
            AffineExpr::constant(-Max));
  EXPECT_EQ(toAffine(sub(mul(var(n("i")), intLit(Max)), var(n("i"))).get()),
            AffineExpr::variable(VarName::intern("i")) * (Max - 1));

  // A loop bounded by an overflowing sum still gets its checks placed.
  auto Prog = instrument(R"(
thread {
  a = new_array(4);
  i = 0;
  while (i < 9223372036854775807 + 1) {
    a[0] = i;
    i = i + 1;
  }
}
)");
  size_t ArrayPaths = 0;
  for (const CheckStmt *C : allChecks(*Prog))
    for (const Path &P : C->paths())
      if (P.isArray() && P.Designator == n("a"))
        ++ArrayPaths;
  EXPECT_GE(ArrayPaths, 1u) << printProgram(*Prog);
}

TEST(CheckPlacement, EntailmentOverflowIsDeclined) {
  // The entailment engine's own arithmetic overflows on these programs:
  // canonicalizing x + 1 over the fact x = INT64_MAX, and solving the
  // fact x = INT64_MIN for x while guessing the loop's induction entry.
  // Each overflowing fact or guess is declined, never wrapped, and the
  // array accesses are still checked.
  for (const char *Source : {R"(
thread {
  a = new_array(4);
  x = 9223372036854775807;
  y = 5;
  if (x < y) {
    a[0] = 1;
  }
}
)",
                             R"(
thread {
  a = new_array(4);
  x = 0 - 9223372036854775807 - 1;
  i = 0;
  while (i < 4) {
    a[i - x] = i;
    i = i + 1;
  }
}
)"}) {
    auto Prog = instrument(Source);
    size_t ArrayPaths = 0;
    for (const CheckStmt *C : allChecks(*Prog))
      for (const Path &P : C->paths())
        if (P.isArray() && P.Designator == n("a"))
          ++ArrayPaths;
    EXPECT_GE(ArrayPaths, 1u) << printProgram(*Prog);
  }
}

TEST(CheckPlacement, IndexWithNoEndBoundIsRejected) {
  // A singleton check range [i, i + 1) needs i + 1 in int64: an index at
  // INT64_MAX is refused up front instead of yielding a range whose end
  // bound has no value.
  for (const char *Source :
       {"thread { a = new_array(4); a[9223372036854775807] = 1; }",
        "thread { a = new_array(4); t = a[i + 9223372036854775807]; }",
        "thread { a = new_array(4); check(W a[9223372036854775807]); }"}) {
    ParseResult PR = parseProgram(Source);
    EXPECT_FALSE(PR.ok()) << Source;
    EXPECT_NE(PR.Error.find("no int64 end bound"), std::string::npos)
        << PR.Error;
  }
  EXPECT_TRUE(
      parseProgram("thread { a = new_array(4); a[9223372036854775806] = 1; }")
          .ok());
}

TEST(CheckPlacement, OverflowedCheckRangeIsNeverBuilt) {
  // An overflowed bound has no terms and a zero constant, so a check over
  // it would check nothing. Debug builds stop instead of building one.
  Path P = Path::arrayIndex(AccessKind::Write, n("a"),
                            AffineExpr::constant(INT64_MAX));
  ASSERT_TRUE(P.Range.overflowed());
  EXPECT_DEBUG_DEATH(CheckStmt(std::vector<Path>{P}),
                     "check range overflows int64");
}

TEST(CheckPlacement, RenameTargetIsCopiedBeforeItsRangeCouldOverflow) {
  // y := x rewrites x as y in every fact, and would turn the access fact
  // a[2^62*x + 2^62*y] into a[2^63*y], which int64 cannot hold. Dropping
  // that fact would drop the obligation to check the access. The case
  // never arises: a fact mentions y, so the rename pass first copies it
  // (y' := y), and the access is checked as a[2^62*y + 2^62*y'].
  auto Prog = instrument(R"(
class W {
  fields pad;
  method run(a, x, y) {
    t = a[4611686018427387904 * x + 4611686018427387904 * y];
    y := x;
  }
}
thread {
  a = new_array(4);
  w = new W;
  r = w.run(a, 0, 0);
}
)");
  const auto &Body =
      cast<BlockStmt>(Prog->Classes[0]->Methods[0]->Body.get())->stmts();
  auto IsRename = [](const Stmt *S, const char *Target, const char *Source) {
    const auto *R = dyn_cast<RenameStmt>(S);
    return R && R->target() == n(Target) && R->source() == n(Source);
  };
  auto Source = std::find_if(Body.begin(), Body.end(), [&](const StmtPtr &S) {
    return IsRename(S.get(), "y", "x");
  });
  ASSERT_NE(Source, Body.end()) << printProgram(*Prog);
  ASSERT_NE(Source, Body.begin()) << printProgram(*Prog);
  EXPECT_TRUE(IsRename(std::prev(Source)->get(), "y'", "y"))
      << printProgram(*Prog);
  std::vector<std::string> ArrayPaths;
  for (const CheckStmt *C : allChecks(*Prog))
    for (const Path &P : C->paths()) {
      EXPECT_FALSE(P.Range.overflowed()) << P.str();
      if (P.isArray())
        ArrayPaths.push_back(P.str());
    }
  EXPECT_EQ(ArrayPaths,
            std::vector<std::string>{
                "a[4611686018427387904*y + 4611686018427387904*y']"})
      << printProgram(*Prog);
}

TEST(CheckPlacement, FreshNamesAvoidReadOnlyNames) {
  // i' is only read (an unset local reads as 0), so the rename before
  // i = i + 1 must not be named i', or the print would see i's old value.
  auto Prog = parseProgramOrDie(R"(
thread {
  i = 0;
  while (i < 3) {
    print i';
    i = i + 1;
  }
}
)");
  VmResult Base = runProgramBase(*Prog, VmOptions());
  ASSERT_TRUE(Base.Ok) << Base.Error;
  EXPECT_EQ(Base.Output, (std::vector<std::string>{"0", "0", "0"}));
  InstrumentedProgram IP = instrumentBigFoot(*Prog);
  VmResult Placed = runProgram(*IP.Prog, IP.Tool, VmOptions());
  ASSERT_TRUE(Placed.Ok) << Placed.Error;
  EXPECT_EQ(Placed.Output, Base.Output) << printProgram(*IP.Prog);
}

TEST(CheckPlacement, InstrumentedProgramStillPrintsAndParses) {
  auto Prog = instrument(R"(
class C {
  fields f;
}
thread {
  o = new C;
  n = 8;
  a = new_array(n);
  i = 0;
  while (i < n) {
    a[i] = i;
    i = i + 1;
  }
  t = o.f;
}
)");
  std::string Printed = printProgram(*Prog);
  ParseResult R = parseProgram(Printed);
  EXPECT_TRUE(R.ok()) << R.Error << "\n" << Printed;
}

TEST(CheckPlacement, GeneratedMethodCountsArePinned) {
  // The programs bench_staticbf_scaling --sizes=20,40 places at its
  // default seed: one method of 20 or 40 generated blocks. Placement is
  // deterministic, so its checks and entailment work are pinned here, and
  // a change to StaticBF or the solver that moves them shows up.
  struct Pin {
    unsigned Blocks, Checks, Queries, Systems, Refutations;
  };
  const Pin Pins[] = {{20, 20, 2700, 76, 320}, {40, 44, 7539, 178, 558}};
  for (const Pin &P : Pins) {
    SCOPED_TRACE(std::to_string(P.Blocks) + " blocks");
    auto Prog = parseProgramOrDie(generatedMethodProgram(P.Blocks, 1));
    PlacementStats S = placeBigFootChecks(*Prog);
    EXPECT_EQ(S.MethodsProcessed, 2u); // The method and the thread body.
    EXPECT_EQ(S.ChecksInserted, P.Checks);
    EXPECT_EQ(S.Entailment.Queries, P.Queries);
    EXPECT_EQ(S.Entailment.Systems, P.Systems);
    EXPECT_EQ(S.Entailment.Refutations, P.Refutations);
  }
}
