//===- CoalesceProxyTest.cpp - Coalescing / proxy / killset tests ------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "analysis/Coalesce.h"
#include "analysis/FieldProxy.h"
#include "analysis/KillSets.h"
#include "analysis/Rename.h"

#include "bfj/Parser.h"
#include "bfj/Printer.h"

#include <gtest/gtest.h>

using namespace bigfoot;

namespace {
VarName n(std::string_view Name) { return VarName::intern(Name); }
AffineExpr v(const char *Name) { return AffineExpr::variable(n(Name)); }
AffineExpr c(int64_t Value) { return AffineExpr::constant(Value); }
} // namespace

//===----------------------------------------------------------------------===
// mergeRanges.
//===----------------------------------------------------------------------===

TEST(MergeRanges, AdjacentUnitRangesChain) {
  // Exactness requires knowing the pieces do not degenerate: without
  // 0 <= m <= n the first range could be empty and the union would not
  // be [0..n).
  ConstraintSystem CS;
  CS.addLe(c(0), v("m"));
  CS.addLe(v("m"), v("n"));
  auto M = mergeRanges(SymbolicRange(c(0), v("m")),
                       SymbolicRange(v("m"), v("n")), CS);
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->Begin, c(0));
  EXPECT_EQ(M->End, v("n"));
}

TEST(MergeRanges, OverlappingUnitRanges) {
  ConstraintSystem CS;
  CS.addLe(v("a"), v("b"));
  CS.addLe(v("b"), v("c"));
  CS.addLe(v("c"), v("d"));
  auto M = mergeRanges(SymbolicRange(v("a"), v("c")),
                       SymbolicRange(v("b"), v("d")), CS);
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->Begin, v("a"));
  EXPECT_EQ(M->End, v("d"));
}

TEST(MergeRanges, GapBlocksMerge) {
  ConstraintSystem CS;
  EXPECT_FALSE(mergeRanges(SymbolicRange(c(0), c(4)),
                           SymbolicRange(c(6), c(9)), CS)
                   .has_value());
}

TEST(MergeRanges, SingletonExtendsStridedRangeUp) {
  // The Figure 6(b) fold: a[0..i':k] + a[i'] = a[0..i'+1:k] when i' is
  // congruent to 0 mod k.
  ConstraintSystem CS;
  CS.addCongruence(v("i'"), 2, 0);
  auto M = mergeRanges(SymbolicRange(c(0), v("i'"), 2),
                       SymbolicRange::singleton(v("i'")), CS);
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->Stride, 2);
  EXPECT_EQ(M->End, v("i'") + 1);
}

TEST(MergeRanges, MisalignedSingletonRejected) {
  ConstraintSystem CS;
  CS.addCongruence(v("i'"), 2, 1); // Odd: not aligned with base 0.
  EXPECT_FALSE(mergeRanges(SymbolicRange(c(0), v("i'"), 2),
                           SymbolicRange::singleton(v("i'")), CS)
                   .has_value());
}

TEST(MergeRanges, SingletonExtendsDown) {
  ConstraintSystem CS;
  auto M = mergeRanges(SymbolicRange(v("x") + 1, v("e")),
                       SymbolicRange::singleton(v("x")), CS);
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->Begin, v("x"));
}

TEST(MergeRanges, ConstantGapSingletonsGainStride) {
  ConstraintSystem CS;
  auto M = mergeRanges(SymbolicRange::singleton(v("i")),
                       SymbolicRange::singleton(v("i") + 3), CS);
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->Stride, 3);
}

TEST(MergeRanges, SymbolicGapSingletonsRejected) {
  ConstraintSystem CS;
  EXPECT_FALSE(mergeRanges(SymbolicRange::singleton(v("i")),
                           SymbolicRange::singleton(v("j")), CS)
                   .has_value());
}

TEST(MergeRanges, InterleavedStridesHalve) {
  ConstraintSystem CS;
  auto M = mergeRanges(SymbolicRange(c(0), v("n"), 4),
                       SymbolicRange(c(2), v("n") + 2, 4), CS);
  ASSERT_TRUE(M.has_value());
  EXPECT_EQ(M->Stride, 2);
}

//===----------------------------------------------------------------------===
// coalescePaths.
//===----------------------------------------------------------------------===

TEST(CoalescePaths, FieldsGroupByDesignator) {
  History H;
  std::vector<Path> Paths = {
      Path::field(AccessKind::Write, n("p"), n("x")),
      Path::field(AccessKind::Write, n("p"), n("y")),
      Path::field(AccessKind::Write, n("q"), n("x")),
  };
  std::vector<Path> Out = coalescePaths(Paths, H);
  ASSERT_EQ(Out.size(), 2u);
  EXPECT_EQ(Out[0].Fields.size(), 2u);
  EXPECT_EQ(Out[1].Designator, n("q"));
}

TEST(CoalescePaths, EquivalentDesignatorsMerge) {
  // x = a.f and y = a.f make x and y the same object, so x.g and y.g
  // coalesce.
  History H;
  AliasFact A1{false, n("x"), n("a"), n("f"), AffineExpr()};
  AliasFact A2{false, n("y"), n("a"), n("f"), AffineExpr()};
  H.addAlias(A1);
  H.addAlias(A2);
  std::vector<Path> Paths = {
      Path::field(AccessKind::Read, n("x"), n("g")),
      Path::field(AccessKind::Read, n("y"), n("h")),
  };
  std::vector<Path> Out = coalescePaths(Paths, H);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Fields.size(), 2u);
}

TEST(CoalescePaths, ReadAndWriteNeverMerge) {
  // A write check is only legitimate for write accesses (Section 5), so
  // R and W paths on the same object stay separate.
  History H;
  std::vector<Path> Paths = {
      Path::field(AccessKind::Read, n("p"), n("x")),
      Path::field(AccessKind::Write, n("p"), n("y")),
  };
  std::vector<Path> Out = coalescePaths(Paths, H);
  EXPECT_EQ(Out.size(), 2u);
}

TEST(CoalescePaths, ArrayChainMerges) {
  History H;
  H.addBool({RelOp::Le, c(0), v("m"), 0});
  H.addBool({RelOp::Le, v("m"), v("n"), 0});
  std::vector<Path> Paths = {
      Path::array(AccessKind::Read, n("a"), SymbolicRange(c(0), v("m"))),
      Path::array(AccessKind::Read, n("a"), SymbolicRange(v("m"), v("n"))),
  };
  std::vector<Path> Out = coalescePaths(Paths, H);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].Range.Begin, c(0));
  EXPECT_EQ(Out[0].Range.End, v("n"));
}

TEST(CoalescePaths, DistinctArraysStaySeparate) {
  History H;
  std::vector<Path> Paths = {
      Path::array(AccessKind::Read, n("a"), SymbolicRange(c(0), c(10))),
      Path::array(AccessKind::Read, n("b"), SymbolicRange(c(10), c(20))),
  };
  EXPECT_EQ(coalescePaths(Paths, H).size(), 2u);
}

//===----------------------------------------------------------------------===
// Field proxies.
//===----------------------------------------------------------------------===

namespace {

std::unique_ptr<Program> programWithChecks(const char *Source) {
  return parseProgramOrDie(Source);
}

} // namespace

TEST(FieldProxy, AlwaysCoCheckedFieldsShareAGroup) {
  auto Prog = programWithChecks(R"(
class C { fields x, y, z; }
thread {
  p = new C;
  check(W p.x/y/z);
  check(R p.x/y/z);
}
)");
  auto Proxies = computeFieldProxies(*Prog);
  ASSERT_EQ(Proxies.size(), 3u);
  EXPECT_EQ(Proxies.at("x"), Proxies.at("y"));
  EXPECT_EQ(Proxies.at("y"), Proxies.at("z"));
}

TEST(FieldProxy, OneLoneCheckBreaksTheGroup) {
  auto Prog = programWithChecks(R"(
class C { fields x, y; }
thread {
  p = new C;
  check(W p.x/y);
  check(W p.x);
}
)");
  auto Proxies = computeFieldProxies(*Prog);
  // y is always checked with x, but x appears alone, so the symmetric
  // group collapses.
  EXPECT_TRUE(Proxies.find("x") == Proxies.end() ||
              Proxies.at("x") != "y");
  EXPECT_TRUE(Proxies.find("y") == Proxies.end());
}

TEST(FieldProxy, PartialOverlapSplitsGroups) {
  auto Prog = programWithChecks(R"(
class C { fields x, y, z; }
thread {
  p = new C;
  check(W p.x/y);
  check(W p.y/z);
}
)");
  auto Proxies = computeFieldProxies(*Prog);
  // y co-occurs with both but x and z do not co-occur: no group contains
  // y together with either.
  EXPECT_TRUE(Proxies.empty());
}

TEST(FieldProxy, EmptyWithoutChecks) {
  auto Prog = programWithChecks(R"(
class C { fields x; }
thread {
  p = new C;
  p.x = 1;
}
)");
  EXPECT_TRUE(computeFieldProxies(*Prog).empty());
}

//===----------------------------------------------------------------------===
// Kill sets.
//===----------------------------------------------------------------------===

TEST(KillSets, DirectAndTransitiveEffects) {
  auto Prog = parseProgramOrDie(R"(
class C {
  fields f;
  volatile fields vf;
  method pure(k) {
    z = k;
    return z;
  }
  method locker() {
    acq(this);
    rel(this);
  }
  method indirect() {
    u = this.locker();
  }
  method volReader() {
    w = this.vf;
  }
}
thread {
  o = new C;
}
)");
  KillSets Kills(*Prog);
  EXPECT_FALSE(Kills.effectOf("pure").any());
  EXPECT_TRUE(Kills.effectOf("locker").Acquires);
  EXPECT_TRUE(Kills.effectOf("locker").Releases);
  EXPECT_TRUE(Kills.effectOf("indirect").Acquires)
      << "effects propagate through calls";
  EXPECT_TRUE(Kills.effectOf("volReader").Acquires);
  EXPECT_FALSE(Kills.effectOf("volReader").Releases);
  // Unknown methods are conservatively treated as full sync.
  EXPECT_TRUE(Kills.effectOf("no_such_method").any());
}

TEST(KillSets, RecursiveMethodsTerminate) {
  auto Prog = parseProgramOrDie(R"(
class C {
  fields f;
  method ping(n) {
    if (n > 0) {
      u = this.pong(n - 1);
    }
    return n;
  }
  method pong(n) {
    acq(this);
    rel(this);
    u = this.ping(n);
    return u;
  }
}
thread {
  o = new C;
}
)");
  KillSets Kills(*Prog);
  EXPECT_TRUE(Kills.effectOf("ping").Acquires);
  EXPECT_TRUE(Kills.effectOf("pong").Acquires);
}

//===----------------------------------------------------------------------===
// Rename insertion and cleanup.
//===----------------------------------------------------------------------===

TEST(Rename, InsertsBeforeSelfUpdate) {
  auto Prog = parseProgramOrDie(R"(
thread {
  a = new_array(4);
  i = 0;
  t = a[i];
  i = i + 1;
}
)");
  unsigned N = insertRenames(*Prog);
  EXPECT_GE(N, 1u);
  bool Found = false;
  Prog->forEachStmt([&Found](const Stmt *S) {
    if (const auto *R = dyn_cast<RenameStmt>(S))
      Found |= R->source() == n("i");
  });
  EXPECT_TRUE(Found) << printProgram(*Prog);
}

TEST(Rename, CleanupRemovesUnusedCopies) {
  auto Prog = parseProgramOrDie(R"(
thread {
  a = new_array(4);
  i = 0;
  t = a[i];
  i = i + 1;
  i = i + 1;
}
)");
  insertRenames(*Prog);
  unsigned Removed = cleanupRenames(Prog->Threads[0]);
  EXPECT_GE(Removed, 1u);
  // Semantics preserved: every rewritten assignment still refers to live
  // values (validated by the parser round trip).
  std::string Printed = printProgram(*Prog);
  EXPECT_TRUE(parseProgram(Printed).ok()) << Printed;
}

TEST(Rename, CleanupKeepsRenamesUsedByChecks) {
  auto Prog = parseProgramOrDie(R"(
thread {
  i = 0;
  i' := i;
  i = i' + 1;
  check(W i'.f);
}
)");
  unsigned Removed = cleanupRenames(Prog->Threads[0]);
  EXPECT_EQ(Removed, 0u);
}

TEST(Rename, CleanupFoldsRenameIntoCheck) {
  // Placement puts the check of b[y'] before the volatile read that
  // redefines y. Folding y' := y into the check must rename the check's
  // bound too, or no statement assigns the y' it reads.
  auto Prog = parseProgramOrDie(R"(
class O { volatile fields vf; }
thread {
  o = new O;
  b = new_array(4);
  y = 1;
  y' := y;
  check(W b[y']);
  y = o.vf;
}
)");
  EXPECT_EQ(cleanupRenames(Prog->Threads[0]), 1u);
  std::string Printed = printStmt(Prog->Threads[0].get());
  EXPECT_NE(Printed.find("check(W b[y]);"), std::string::npos) << Printed;
  EXPECT_EQ(Printed.find("y'"), std::string::npos) << Printed;
}

TEST(Rename, CleanupCountsFollowEachRemoval) {
  // Deleting the dead t := s leaves s two uses, its rename's target and
  // x = s, so s := w folds into x = s. Counts taken before the deletion
  // would still see three uses of s and keep s := w.
  auto Prog = parseProgramOrDie(R"(
thread {
  w = 2;
  t := s;
  s := w;
  x = s;
  print x;
}
)");
  normalizeBody(Prog->Threads[0]);
  EXPECT_EQ(cleanupRenames(Prog->Threads[0]), 2u);
  EXPECT_EQ(printStmt(Prog->Threads[0].get()), "w = 2;\nx = w;\nprint x;\n");
}

TEST(Rename, RenameUsesLeavesTargetAlone) {
  auto Prog = parseProgramOrDie(R"(
thread {
  x = x + 1;
}
)");
  auto *Block = cast<BlockStmt>(Prog->Threads[0].get());
  renameUses(Block->stmts()[0].get(), n("x"), n("y"));
  const auto *A = cast<AssignStmt>(Block->stmts()[0].get());
  EXPECT_EQ(A->target(), n("x"));
  std::vector<VarName> Vars;
  A->value()->forEachVar([&Vars](VarName V) { Vars.push_back(V); });
  EXPECT_EQ(Vars, std::vector<VarName>{n("y")}); // y, and not x.
}
