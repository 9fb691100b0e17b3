//===- ConstraintSystemTest.cpp - Entailment engine tests -------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "entail/ConstraintSystem.h"

#include "analysis/HistoryContext.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <string_view>

using namespace bigfoot;

namespace {
VarName n(std::string_view Name) { return VarName::intern(Name); }
AffineExpr v(const char *Name) { return AffineExpr::variable(n(Name)); }
AffineExpr c(int64_t Value) { return AffineExpr::constant(Value); }
} // namespace

TEST(ConstraintSystem, ProvesTautologies) {
  ConstraintSystem CS;
  EXPECT_TRUE(CS.proveLe(c(1), c(2)));
  EXPECT_TRUE(CS.proveEq(v("i"), v("i")));
  EXPECT_FALSE(CS.proveLe(c(2), c(1)));
  EXPECT_FALSE(CS.proveEq(v("i"), v("j")));
}

TEST(ConstraintSystem, EqualityPropagates) {
  // The paper's example: {z[i] accessed, i = j} |- z[j] accessed needs
  // i == j.
  ConstraintSystem CS;
  CS.addEquality(v("i"), v("j"));
  EXPECT_TRUE(CS.proveEq(v("i"), v("j")));
  EXPECT_TRUE(CS.proveEq(v("i") + 3, v("j") + 3));
  EXPECT_FALSE(CS.proveEq(v("i"), v("j") + 1));
}

TEST(ConstraintSystem, EqualityChains) {
  ConstraintSystem CS;
  CS.addEquality(v("a"), v("b"));
  CS.addEquality(v("b"), v("c"));
  EXPECT_TRUE(CS.equivVars(n("a"), n("c")));
}

TEST(ConstraintSystem, OffsetEqualities) {
  // The loop back-edge fact i = i' + 1 (Figure 6b).
  ConstraintSystem CS;
  CS.addEquality(v("i"), v("i'") + 1);
  EXPECT_TRUE(CS.proveEq(v("i") - 1, v("i'")));
  EXPECT_TRUE(CS.proveLe(v("i'"), v("i")));
  EXPECT_TRUE(CS.proveLt(v("i'"), v("i")));
  EXPECT_FALSE(CS.proveLe(v("i"), v("i'")));
}

TEST(ConstraintSystem, TransitiveBounds) {
  ConstraintSystem CS;
  CS.addLe(v("i"), v("j"));
  CS.addLe(v("j"), v("k"));
  EXPECT_TRUE(CS.proveLe(v("i"), v("k")));
  EXPECT_FALSE(CS.proveLe(v("k"), v("i")));
}

TEST(ConstraintSystem, StrictBoundArithmetic) {
  ConstraintSystem CS;
  CS.addLt(v("i"), v("n"));
  EXPECT_TRUE(CS.proveLe(v("i") + 1, v("n")));
  EXPECT_TRUE(CS.proveLt(v("i") - 2, v("n")));
}

TEST(ConstraintSystem, CombinesScaledFacts) {
  ConstraintSystem CS;
  CS.addLe(v("x") * 2, v("y"));
  CS.addLe(v("y"), c(10));
  EXPECT_TRUE(CS.proveLe(v("x"), c(5)));
}

TEST(ConstraintSystem, DetectsInconsistency) {
  ConstraintSystem CS;
  CS.addLt(v("i"), c(0));
  CS.addLe(c(0), v("i"));
  EXPECT_TRUE(CS.inconsistent());
}

TEST(ConstraintSystem, ConsistentSystemNotFlagged) {
  ConstraintSystem CS;
  CS.addLe(c(0), v("i"));
  CS.addLt(v("i"), v("n"));
  EXPECT_FALSE(CS.inconsistent());
}

TEST(ConstraintSystem, FieldAliasCongruence) {
  // x = a.f, y = a.f  |-  x = y (Section 5's alias-expression example).
  ConstraintSystem CS;
  CS.addFieldAlias(n("x"), n("a"), n("f"));
  CS.addFieldAlias(n("y"), n("a"), n("f"));
  EXPECT_TRUE(CS.equivVars(n("x"), n("y")));
  EXPECT_FALSE(CS.equivVars(n("x"), n("a")));
}

TEST(ConstraintSystem, FieldAliasDifferentFieldsDistinct) {
  ConstraintSystem CS;
  CS.addFieldAlias(n("x"), n("a"), n("f"));
  CS.addFieldAlias(n("y"), n("a"), n("g"));
  EXPECT_FALSE(CS.equivVars(n("x"), n("y")));
}

TEST(ConstraintSystem, AliasThroughEqualBases) {
  // a = b, x = a.f, y = b.f  |-  x = y (needs congruence).
  ConstraintSystem CS;
  CS.addEquality(v("a"), v("b"));
  CS.addFieldAlias(n("x"), n("a"), n("f"));
  CS.addFieldAlias(n("y"), n("b"), n("f"));
  EXPECT_TRUE(CS.equivVars(n("x"), n("y")));
}

TEST(ConstraintSystem, NestedAliasCongruence) {
  // x = a.f, y = a.f, s = x.g, t = y.g  |-  s = t (two-level chain, the
  // extended-path case RedCard and StaticBF track).
  ConstraintSystem CS;
  CS.addFieldAlias(n("x"), n("a"), n("f"));
  CS.addFieldAlias(n("y"), n("a"), n("f"));
  CS.addFieldAlias(n("s"), n("x"), n("g"));
  CS.addFieldAlias(n("t"), n("y"), n("g"));
  EXPECT_TRUE(CS.equivVars(n("s"), n("t")));
}

TEST(ConstraintSystem, ArrayAliasCongruence) {
  ConstraintSystem CS;
  CS.addArrayAlias(n("x"), n("arr"), v("i"));
  CS.addArrayAlias(n("y"), n("arr"), v("j"));
  EXPECT_FALSE(CS.equivVars(n("x"), n("y")));
  CS.addEquality(v("i"), v("j"));
  EXPECT_TRUE(CS.equivVars(n("x"), n("y")));
}

TEST(ConstraintSystem, DisequalityFromConstants) {
  ConstraintSystem CS;
  CS.addEquality(v("i"), c(3));
  CS.addEquality(v("j"), c(5));
  EXPECT_TRUE(CS.proveNe(v("i"), v("j")));
  EXPECT_FALSE(CS.proveEq(v("i"), v("j")));
}

TEST(ConstraintSystem, DisequalityFromRecordedFact) {
  ConstraintSystem CS;
  CS.addNe(v("i"), v("j"));
  EXPECT_TRUE(CS.proveNe(v("i"), v("j")));
  EXPECT_TRUE(CS.proveNe(v("j"), v("i")));
  EXPECT_FALSE(CS.proveNe(v("i"), v("k")));
}

TEST(ConstraintSystem, RangeSubsetBasicBounds) {
  // {i < n, 0 <= i}: [0..i] subset of [0..n].
  ConstraintSystem CS;
  CS.addLt(v("i"), v("n"));
  CS.addLe(c(0), v("i"));
  SymbolicRange Sub(c(0), v("i"));
  SymbolicRange Sup(c(0), v("n"));
  EXPECT_TRUE(CS.proveRangeSubset(Sub, Sup));
  EXPECT_FALSE(CS.proveRangeSubset(Sup, Sub));
}

TEST(ConstraintSystem, RangeSubsetPaperAnticipation) {
  // {i < 10} • {x[0..10]} |- x[0..i] (Section 3.4's example).
  ConstraintSystem CS;
  CS.addLt(v("i"), c(10));
  EXPECT_TRUE(
      CS.proveRangeSubset(SymbolicRange(c(0), v("i")),
                          SymbolicRange(c(0), c(10))));
}

TEST(ConstraintSystem, RangeSubsetEmptySubAlwaysHolds) {
  ConstraintSystem CS;
  CS.addEquality(v("i"), c(0));
  // [i..i) is empty, subset of anything, even a disjoint range.
  EXPECT_TRUE(CS.proveRangeSubset(SymbolicRange(v("i"), v("i")),
                                  SymbolicRange(c(100), c(200))));
}

TEST(ConstraintSystem, RangeSubsetStrideDivisibility) {
  ConstraintSystem CS;
  // Stride 4 range within stride 2 range: OK when aligned.
  EXPECT_TRUE(CS.proveRangeSubset(SymbolicRange(c(0), c(100), 4),
                                  SymbolicRange(c(0), c(100), 2)));
  // Stride 2 within stride 4: not a subset.
  EXPECT_FALSE(CS.proveRangeSubset(SymbolicRange(c(0), c(100), 2),
                                   SymbolicRange(c(0), c(100), 4)));
  // Misaligned same-stride: offset 1 not divisible by 2.
  EXPECT_FALSE(CS.proveRangeSubset(SymbolicRange(c(1), c(100), 2),
                                   SymbolicRange(c(0), c(100), 2)));
  // Aligned offset: offset 4 divisible by 2.
  EXPECT_TRUE(CS.proveRangeSubset(SymbolicRange(c(4), c(50), 2),
                                  SymbolicRange(c(0), c(100), 2)));
}

TEST(ConstraintSystem, RangeSubsetSymbolicStride1) {
  ConstraintSystem CS;
  CS.addLe(v("lo2"), v("lo1"));
  CS.addLe(v("hi1"), v("hi2"));
  EXPECT_TRUE(CS.proveRangeSubset(SymbolicRange(v("lo1"), v("hi1")),
                                  SymbolicRange(v("lo2"), v("hi2"))));
}

TEST(ConstraintSystem, UnprovableWithoutFacts) {
  ConstraintSystem CS;
  EXPECT_FALSE(CS.proveRangeSubset(SymbolicRange(c(0), v("i")),
                                   SymbolicRange(c(0), v("n"))));
  EXPECT_FALSE(CS.proveLe(v("i"), v("n")));
}

TEST(ConstraintSystem, LoopInvariantEntailmentScenario) {
  // The Figure 6(b) situation after the back edge: facts
  // {i = i' + 1}; query: [0..i) subset of [0..i') union [i'..i'+1).
  // The union piece is exercised at the history level; here we verify the
  // two bound queries the history layer issues.
  ConstraintSystem CS;
  CS.addEquality(v("i"), v("i'") + 1);
  // Chain condition: second range starts exactly where the first ends.
  EXPECT_TRUE(CS.proveLe(v("i'"), v("i'")));
  // Final bound: i <= i' + 1.
  EXPECT_TRUE(CS.proveLe(v("i"), v("i'") + 1));
}

TEST(ConstraintSystem, ScalesToManyFacts) {
  ConstraintSystem CS;
  for (int I = 0; I < 60; ++I)
    CS.addLe(v(("x" + std::to_string(I)).c_str()),
             v(("x" + std::to_string(I + 1)).c_str()));
  EXPECT_TRUE(CS.proveLe(v("x0"), v("x60")));
  EXPECT_FALSE(CS.proveLe(v("x60"), v("x0")));
}

TEST(ConstraintSystem, OverflowingRowsAreDeclined) {
  // The engine's arithmetic is checked: a fact whose row int64 cannot
  // hold is dropped and a question whose row it cannot hold is "not
  // provable", where unchecked arithmetic wrapped into a false fact.
  const int64_t Max = INT64_MAX, Min = -Max - 1;

  // x = INT64_MAX makes x + 1 unrepresentable once x is canonicalized.
  ConstraintSystem CS;
  CS.addEquality(v("x"), c(Max));
  CS.addLt(v("x"), v("y")); // x + 1 <= y: dropped.
  EXPECT_TRUE(CS.proveEq(v("x"), c(Max)));
  EXPECT_FALSE(CS.inconsistent());
  EXPECT_FALSE(CS.proveLt(v("x"), v("y")));
  EXPECT_FALSE(CS.proveLe(v("x") + 1, v("y")));
  EXPECT_FALSE(CS.proveLt(v("y"), v("x")));
  EXPECT_FALSE(CS.proveNe(v("x") + 1, v("y")));
  // An operand that already overflowed proves nothing.
  EXPECT_FALSE(CS.proveLe(v("x") * Max * 2, v("y")));
  EXPECT_FALSE(CS.proveEq(v("x") * Max * 2, v("x") * Max * 2));
  EXPECT_FALSE(CS.proveRangeSubset(SymbolicRange(v("y"), v("y") + 1),
                                   SymbolicRange(v("x"), v("x") + 1)));

  // z = INT64_MIN has no row (z - INT64_MIN overflows): the fact is
  // dropped, not wrapped into z = INT64_MIN + 2^64.
  ConstraintSystem M;
  M.addEquality(v("z"), c(Min));
  M.addLe(v("w"), v("z"));
  EXPECT_FALSE(M.proveEq(v("z"), c(Min)));
  EXPECT_FALSE(M.proveLe(v("z"), c(0)));
  EXPECT_TRUE(M.proveLe(v("w"), v("z")));

  // INT64_MIN coefficients: the gcd, the elimination and the congruence
  // rewrite all need the magnitude 2^63.
  ConstraintSystem K;
  K.addLe(v("p") * Min, c(0));
  K.addLe(v("q"), v("p"));
  K.addLt(v("q"), c(0));
  EXPECT_FALSE(K.inconsistent());
  EXPECT_TRUE(K.proveLe(c(0), v("p")));
  K.addCongruence(-v("u"), 3, 0);
  EXPECT_TRUE(K.proveCongruent(v("u") * Min, 2, 0));
  EXPECT_FALSE(K.proveCongruent(v("u") * Min, 3, 0)); // Declined rewrite.
  EXPECT_TRUE(K.proveCongruent(v("u") * 2, 3, 0));
}

//===----------------------------------------------------------------------===
// Memoized answers. A system computes its closure, base rows and verdicts
// once and drops them when a fact arrives after a query; every answer must
// be the one a fresh system of the same facts gives.
//===----------------------------------------------------------------------===

namespace {

/// Seeded random facts and queries over three variables, their fields f/g
/// and array cells, with small coefficients so that many queries are
/// decided by the facts rather than trivially.
class RandomFacts {
public:
  explicit RandomFacts(uint64_t Seed) : R(Seed) {}

  using Fact = std::function<void(ConstraintSystem &)>;
  using Query = std::function<bool(ConstraintSystem &)>;

  Fact fact() {
    AffineExpr L = expr(), Rhs = expr();
    VarName X = n(var()), Y = n(var()), F = n(R.chance(1, 2) ? "f" : "g");
    // Aliases make up half the facts: congruences are what an alias
    // added after a query has to rebuild.
    switch (R.nextBelow(10)) {
    case 0:
      return [L, Rhs](ConstraintSystem &CS) { CS.addEquality(L, Rhs); };
    case 1:
      return [L, Rhs](ConstraintSystem &CS) { CS.addLe(L, Rhs); };
    case 2:
      return [L, Rhs](ConstraintSystem &CS) { CS.addLt(L, Rhs); };
    case 3:
      return [L, Rhs](ConstraintSystem &CS) { CS.addNe(L, Rhs); };
    case 4: {
      int64_t M = R.nextInRange(2, 4), Rem = R.nextInRange(0, 3);
      return [L, M, Rem](ConstraintSystem &CS) {
        CS.addCongruence(L, M, Rem);
      };
    }
    case 5:
    case 6:
    case 7:
      return [X, Y, F](ConstraintSystem &CS) { CS.addFieldAlias(X, Y, F); };
    default: {
      // A variable or constant index, so that cells coincide often.
      AffineExpr I = R.chance(1, 2) ? v(var().c_str()) : c(R.nextBelow(2));
      return [X, Y, I](ConstraintSystem &CS) { CS.addArrayAlias(X, Y, I); };
    }
    }
  }

  Query query() {
    AffineExpr L = expr(), Rhs = expr();
    VarName X = n(var()), Y = n(var());
    switch (R.nextBelow(7)) {
    case 0:
      return [L, Rhs](ConstraintSystem &CS) { return CS.proveLe(L, Rhs); };
    case 1:
      return [L, Rhs](ConstraintSystem &CS) { return CS.proveEq(L, Rhs); };
    case 2:
      return [L, Rhs](ConstraintSystem &CS) { return CS.proveNe(L, Rhs); };
    case 3: {
      int64_t M = R.nextInRange(2, 4), Rem = R.nextInRange(0, 3);
      return [L, M, Rem](ConstraintSystem &CS) {
        return CS.proveCongruent(L, M, Rem);
      };
    }
    case 4: {
      SymbolicRange Sub(L, L + R.nextInRange(1, 3), R.nextInRange(1, 2));
      SymbolicRange Sup(Rhs, Rhs + expr(), R.nextInRange(1, 2));
      return [Sub, Sup](ConstraintSystem &CS) {
        return CS.proveRangeSubset(Sub, Sup);
      };
    }
    case 5:
      return [X, Y](ConstraintSystem &CS) { return CS.equivVars(X, Y); };
    default:
      return [](ConstraintSystem &CS) { return CS.inconsistent(); };
    }
  }

  Rng R;

private:
  std::string var() { return std::string(1, char('a' + R.nextBelow(3))); }

  AffineExpr expr() {
    AffineExpr E = c(R.nextInRange(-3, 3));
    for (int Terms = int(R.nextBelow(3)); Terms > 0; --Terms)
      E = E + v(var().c_str()) * R.nextInRange(-2, 2);
    return E;
  }
};

} // namespace

TEST(ConstraintSystem, CachedAnswersMatchFreshSystem) {
  for (uint64_t Seed = 1; Seed <= 100; ++Seed) {
    RandomFacts Gen(Seed);
    // A small pool, so that questions recur after facts arrive.
    std::vector<RandomFacts::Query> Pool;
    for (int I = 0; I < 10; ++I)
      Pool.push_back(Gen.query());
    std::vector<RandomFacts::Fact> Facts;
    ConstraintSystem Cached;
    for (int Step = 0; Step < 60; ++Step) {
      if (Gen.R.chance(1, 5) && Facts.size() < 10) {
        Facts.push_back(Gen.fact());
        Facts.back()(Cached);
        continue;
      }
      size_t Q = Gen.R.nextBelow(Pool.size());
      ConstraintSystem Fresh;
      for (const RandomFacts::Fact &F : Facts)
        F(Fresh);
      ASSERT_EQ(Pool[Q](Cached), Pool[Q](Fresh))
          << "seed " << Seed << ", step " << Step << ", query " << Q
          << " after " << Facts.size() << " facts";
    }
  }
}

TEST(ConstraintSystem, HistoryQueriesFollowFactChanges) {
  // Histories with equal facts share one prepared system through the
  // table; adding a fact, dropping one and an acquire each change the
  // facts, so each must flip an answer, while a copy taken earlier keeps
  // its own.
  EntailmentTable Table;
  History H(Table);
  BoolFact IBelowN{RelOp::Le, v("i"), v("n"), 0};
  EXPECT_FALSE(H.entailsBool(IBelowN));
  H.addBool({RelOp::Lt, v("i"), v("m"), 0});
  H.addBool({RelOp::Le, v("m"), v("n"), 0});
  History BeforeDrop = H;
  EXPECT_TRUE(H.entailsBool(IBelowN)); // Added fact flips it.
  H.dropMentions(n("m"));
  EXPECT_FALSE(H.entailsBool(IBelowN)); // Dropped fact flips it back.
  EXPECT_TRUE(BeforeDrop.entailsBool(IBelowN));

  // x = p.f and y = p.f make y.g covered by a check on x.g until an
  // acquire drops the aliases (the check itself persists, per [ACQ]).
  // With q = p they also entail x = q.f, which the alias query proves by
  // adding a probe alias to a copy of a system that has already answered.
  H.addAlias({false, n("x"), n("p"), n("f"), AffineExpr()});
  H.addAlias({false, n("y"), n("p"), n("f"), AffineExpr()});
  H.addBool({RelOp::Eq, v("q"), v("p"), 0});
  H.addCheck(Path::field(AccessKind::Read, n("x"), n("g")));
  Path YG = Path::field(AccessKind::Read, n("y"), n("g"));
  AliasFact XIsQF{false, n("x"), n("q"), n("f"), AffineExpr()};
  EXPECT_TRUE(H.entailsCheck(YG));
  EXPECT_TRUE(H.entailsAlias(XIsQF));
  History Acquired = H.afterAcquire();
  EXPECT_FALSE(Acquired.entailsCheck(YG)); // The acquire flips both.
  EXPECT_FALSE(Acquired.entailsAlias(XIsQF));
  EXPECT_TRUE(H.entailsCheck(YG));

  // A history built separately with the same facts reuses the system.
  unsigned Prepared = Table.Counts.Systems;
  History Same(Table);
  Same.addBool({RelOp::Lt, v("i"), v("m"), 0});
  Same.addBool({RelOp::Le, v("m"), v("n"), 0});
  EXPECT_TRUE(Same.entailsBool(IBelowN));
  EXPECT_EQ(Table.Counts.Systems, Prepared);
}

namespace {

/// A history with facts in all four lists, some about i, an alias of each
/// kind, and a prepared system.
History isolationHistory(EntailmentTable &Table) {
  History H(Table);
  H.addBool({RelOp::Le, c(0), v("i"), 0});
  H.addBool({RelOp::Lt, v("i"), v("n"), 0});
  H.addAlias({false, n("x"), n("p"), n("f"), AffineExpr()});
  H.addAlias({true, n("y"), n("a"), VarName(), v("i")});
  H.addAccess(Path::arrayIndex(AccessKind::Read, n("a"), v("i")));
  H.addAccess(Path::field(AccessKind::Write, n("p"), n("g")));
  H.addCheck(Path::field(AccessKind::Read, n("x"), n("h")));
  H.addCheck(Path::array(AccessKind::Write, n("b"),
                         SymbolicRange(c(0), v("n"))));
  H.entailsBool({RelOp::Le, v("i"), v("n"), 0});
  return H;
}

/// What a history says: its printed facts and its answers to questions
/// that every one of its lists decides.
std::string facts(const History &H) {
  std::string S = H.str();
  auto Answer = [&S](bool B) { S += B ? " 1" : " 0"; };
  Answer(H.entailsBool({RelOp::Le, v("i"), v("n"), 0}));
  Answer(H.entailsAlias({false, n("x"), n("p"), n("f"), AffineExpr()}));
  Answer(H.entailsAlias({true, n("y"), n("a"), VarName(), v("i")}));
  Answer(H.entailsAccess(Path::arrayIndex(AccessKind::Read, n("a"), v("i"))));
  Answer(H.entailsAccess(Path::field(AccessKind::Read, n("p"), n("g"))));
  Answer(H.entailsCheck(Path::field(AccessKind::Read, n("x"), n("h"))));
  Answer(H.entailsCheck(Path::arrayIndex(AccessKind::Read, n("b"), v("i"))));
  return S;
}

} // namespace

TEST(ConstraintSystem, HistoryCopiesChangeIndependently) {
  // Copies share their fact lists until one changes; every mutator must
  // leave the other history's facts and answers as they were, whichever
  // of the two it changes.
  const std::vector<std::pair<const char *, std::function<void(History &)>>>
      Mutators = {
          {"addBool",
           [](History &H) { H.addBool({RelOp::Le, v("n"), c(64), 0}); }},
          {"addAlias",
           [](History &H) {
             H.addAlias({false, n("z"), n("p"), n("g"), AffineExpr()});
           }},
          {"addAccess",
           [](History &H) {
             H.addAccess(Path::field(AccessKind::Read, n("q"), n("f")));
           }},
          {"addCheck",
           [](History &H) {
             H.addCheck(Path::arrayIndex(AccessKind::Read, n("a"), c(3)));
           }},
          {"dropMentions", [](History &H) { H.dropMentions(n("i")); }},
          {"invalidateAliasesForFieldWrite",
           [](History &H) { H.invalidateAliasesForFieldWrite(n("f")); }},
          {"invalidateAliasesForArrayWrite",
           [](History &H) { H.invalidateAliasesForArrayWrite(); }},
          {"afterAcquire", [](History &H) { H = H.afterAcquire(); }},
          {"afterRelease", [](History &H) { H = H.afterRelease(); }},
          {"renamed", [](History &H) { H = H.renamed(n("i"), n("k")); }},
          {"Accesses.edit",
           [](History &H) {
             H.Accesses.edit().push_back(
                 Path::field(AccessKind::Write, n("q"), n("g")));
           }},
          {"Checks.edit", [](History &H) { H.Checks.edit().pop_back(); }},
          {"Accesses.clear", [](History &H) { H.Accesses.clear(); }},
          {"Checks.clear", [](History &H) { H.Checks.clear(); }},
      };
  EntailmentTable Table;
  const std::string Original = facts(isolationHistory(Table));
  for (const auto &[Name, Mutate] : Mutators) {
    History H = isolationHistory(Table);
    History Copy = H;
    Mutate(Copy);
    EXPECT_NE(facts(Copy), Original) << Name << " changed nothing";
    EXPECT_EQ(facts(H), Original) << Name << " on a copy";

    History Source = isolationHistory(Table);
    History Kept = Source;
    Mutate(Source);
    EXPECT_EQ(facts(Kept), Original) << Name << " on the original";
  }
}

TEST(ConstraintSystem, LiteralPathsNeedNoSystem) {
  // A path that is one of the facts, of a kind that covers the query, is
  // entailed before any system is prepared; the solver agrees.
  EntailmentTable Table;
  History H(Table);
  H.addBool({RelOp::Le, c(0), v("i"), 0});
  H.addBool({RelOp::Lt, v("i"), v("n"), 0});
  Path Row =
      Path::array(AccessKind::Write, n("a"), SymbolicRange(c(0), v("n")));
  Path Field = Path::fieldGroup(AccessKind::Read, n("o"), {n("f"), n("g")});
  H.addAccess(Row);
  H.addCheck(Row);
  H.addCheck(Field);
  Path RowRead = Row;
  RowRead.Access = AccessKind::Read;
  Anticipated Ahead;
  Ahead.addNew(Row);
  const EntailmentCounts Before = Table.Counts;
  EXPECT_TRUE(H.entailsAccess(Row));
  EXPECT_TRUE(H.entailsAccess(RowRead)); // A write fact covers a read.
  EXPECT_TRUE(H.entailsCheck(Row));
  EXPECT_TRUE(H.entailsCheck(Field));
  EXPECT_TRUE(H.entailsAnticipated(Ahead, RowRead));
  EXPECT_EQ(Table.Counts.Queries, Before.Queries + 5);
  EXPECT_EQ(Table.Counts.Systems, Before.Systems);
  EXPECT_EQ(Table.Counts.Refutations, Before.Refutations);

  // A covered range that is not a fact goes to the solver, which proves
  // it, and a read fact does not answer for a write.
  EXPECT_TRUE(
      H.entailsAccess(Path::arrayIndex(AccessKind::Write, n("a"), v("i"))));
  EXPECT_EQ(Table.Counts.Systems, Before.Systems + 1);
  EXPECT_GT(Table.Counts.Refutations, Before.Refutations);
  Path FieldWrite = Field;
  FieldWrite.Access = AccessKind::Write;
  EXPECT_FALSE(H.entailsCheck(FieldWrite));
  EXPECT_TRUE(H.constraints().proveRangeSubset(Row.Range, Row.Range));

  // The one case the solver declines: rewritten by the history's
  // equalities, the path's terms overflow int64 (i = 2 turns 2^62 * i into
  // 2^63), so it proves nothing about the path, while the fact still
  // answers for itself.
  History Big(Table);
  Big.addBool({RelOp::Eq, v("i"), c(2), 0});
  Path Far =
      Path::arrayIndex(AccessKind::Read, n("a"), v("i") * 4611686018427387904);
  Big.addAccess(Far);
  EXPECT_TRUE(Big.entailsAccess(Far));
  EXPECT_FALSE(Big.constraints().proveRangeSubset(Far.Range, Far.Range));
}

namespace {

/// A model-side affine form over x, y, z: Coef . (x, y, z) + Const.
struct Form {
  int64_t Coef[3] = {0, 0, 0};
  int64_t Const = 0;

  int64_t at(const int64_t *P) const {
    return Coef[0] * P[0] + Coef[1] * P[1] + Coef[2] * P[2] + Const;
  }

  AffineExpr expr() const {
    static const char *Names[] = {"mx", "my", "mz"};
    AffineExpr E = c(Const);
    for (int I = 0; I < 3; ++I)
      E = E + v(Names[I]) * Coef[I];
    return E;
  }

  /// Coefficients in [-3, 3], constant in [-6, 6].
  static Form random(Rng &R) {
    Form F;
    for (int64_t &K : F.Coef)
      K = R.nextInRange(-3, 3);
    F.Const = R.nextInRange(-6, 6);
    return F;
  }
};

/// X mod M in [0, M).
int64_t residue(int64_t X, int64_t M) { return ((X % M) + M) % M; }

/// One fact or question: L op R, or L ≡ Res (mod M), or the elements of
/// [L, R):Stride against those of [L2, R2):Stride2.
struct Relation {
  enum Kind { Eq, Le, Ne, Cong, Subset } K = Eq;
  Form L, R, L2, R2;
  int64_t M = 2, Res = 0, Stride = 1, Stride2 = 1;

  static Relation random(Rng &Rand, bool AllowSubset) {
    Relation Q;
    Q.K = Kind(Rand.nextBelow(AllowSubset ? 5 : 4));
    Q.L = Form::random(Rand);
    Q.R = Form::random(Rand);
    Q.M = Rand.nextInRange(2, 4);
    Q.Res = Rand.nextInRange(0, Q.M - 1);
    Q.L2 = Form::random(Rand);
    Q.R2 = Form::random(Rand);
    Q.Stride = Rand.nextInRange(1, 3);
    Q.Stride2 = Rand.nextInRange(1, 3);
    return Q;
  }

  bool holdsAt(const int64_t *P) const {
    switch (K) {
    case Eq:
      return L.at(P) == R.at(P);
    case Le:
      return L.at(P) <= R.at(P);
    case Ne:
      return L.at(P) != R.at(P);
    case Cong:
      return residue(L.at(P) - Res, M) == 0;
    case Subset: {
      int64_t SupBegin = L2.at(P), SupEnd = R2.at(P);
      for (int64_t I = L.at(P), End = R.at(P); I < End; I += Stride)
        if (I < SupBegin || I >= SupEnd || (I - SupBegin) % Stride2 != 0)
          return false;
      return true;
    }
    }
    return false;
  }

  void addTo(ConstraintSystem &CS) const {
    switch (K) {
    case Eq:
      return CS.addEquality(L.expr(), R.expr());
    case Le:
      return CS.addLe(L.expr(), R.expr());
    case Ne:
      return CS.addNe(L.expr(), R.expr());
    case Cong:
      return CS.addCongruence(L.expr(), M, Res);
    case Subset:
      return;
    }
  }

  bool proveIn(ConstraintSystem &CS) const {
    switch (K) {
    case Eq:
      return CS.proveEq(L.expr(), R.expr());
    case Le:
      return CS.proveLe(L.expr(), R.expr());
    case Ne:
      return CS.proveNe(L.expr(), R.expr());
    case Cong:
      return CS.proveCongruent(L.expr(), M, Res);
    case Subset:
      return CS.proveRangeSubset(
          SymbolicRange(L.expr(), R.expr(), Stride),
          SymbolicRange(L2.expr(), R2.expr(), Stride2));
    }
    return false;
  }
};

} // namespace

// A model check of the engine (DESIGN.md Sec. 1): seeded random systems
// of one to six =, <=, != and congruence facts over three variables, each
// asked twelve random questions. Every "proved" answer must hold, and
// every inconsistent() verdict must be true, at every integer point of
// [-9, 9]^3 that satisfies the facts (an answer that holds on all integer
// models holds on those). As a floor on completeness, a system with such
// a point must prove each of its own =, <= and != facts back. Congruence
// facts are left out of that floor: after an equality rewrites a
// congruence's form, proveCongruent can miss the fact itself (29
// congruence facts of these 2000 systems), which costs a check, never a
// race.
TEST(ConstraintSystem, AnswersHoldOnEveryIntegerModel) {
  constexpr int64_t kBox = 9;
  std::vector<std::array<int64_t, 3>> Box;
  for (int64_t X = -kBox; X <= kBox; ++X)
    for (int64_t Y = -kBox; Y <= kBox; ++Y)
      for (int64_t Z = -kBox; Z <= kBox; ++Z)
        Box.push_back({X, Y, Z});
  Rng Rand(20261019);
  unsigned Proved = 0, Inconsistent = 0, Questions = 0;
  for (int System = 0; System < 2000; ++System) {
    std::vector<Relation> Facts(Rand.nextInRange(1, 6));
    ConstraintSystem CS;
    for (Relation &F : Facts) {
      F = Relation::random(Rand, /*AllowSubset=*/false);
      F.addTo(CS);
    }
    std::vector<const int64_t *> Models;
    for (const auto &P : Box)
      if (std::all_of(Facts.begin(), Facts.end(), [&](const Relation &F) {
            return F.holdsAt(P.data());
          }))
        Models.push_back(P.data());
    std::string Tag = "system " + std::to_string(System);
    if (CS.inconsistent()) {
      ++Inconsistent;
      EXPECT_TRUE(Models.empty()) << Tag << " is not inconsistent";
    }
    for (int Q = 0; Q < 12; ++Q) {
      Relation Ask = Relation::random(Rand, /*AllowSubset=*/true);
      ++Questions;
      if (!Ask.proveIn(CS))
        continue;
      ++Proved;
      for (const int64_t *P : Models)
        if (!Ask.holdsAt(P)) {
          ADD_FAILURE() << Tag << " question " << Q << " (kind " << Ask.K
                        << ") fails at (" << P[0] << ", " << P[1] << ", "
                        << P[2] << ")";
          break;
        }
    }
    if (Models.empty())
      continue;
    for (size_t I = 0; I < Facts.size(); ++I)
      EXPECT_TRUE(Facts[I].K == Relation::Cong || Facts[I].proveIn(CS))
          << Tag << " does not prove its fact " << I << " (kind "
          << Facts[I].K << ")";
  }
  // The questions must not all be trivial either way.
  EXPECT_EQ(Questions, 24000u);
  EXPECT_GT(Proved, 1000u);
  EXPECT_GT(Inconsistent, 100u);
}
