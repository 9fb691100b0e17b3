//===- ExtensionsTest.cpp - Section 5 extensions and property sweeps ---------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "analysis/CheckPlacement.h"
#include "bfj/Parser.h"
#include "bfj/Printer.h"
#include "entail/ConstraintSystem.h"
#include "instrument/Instrumenters.h"
#include "runtime/ArrayShadow.h"
#include "support/Rng.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

using namespace bigfoot;

namespace {
AffineExpr v(const char *Name) {
  return AffineExpr::variable(VarName::intern(Name));
}
AffineExpr c(int64_t Value) { return AffineExpr::constant(Value); }
} // namespace

//===----------------------------------------------------------------------===
// Static fields ($g) as potential synchronization (Section 5).
//===----------------------------------------------------------------------===

TEST(StaticFields, FlagStopsDeferralAcrossGlobalAccess) {
  const char *Source = R"(
class C { fields f; }
thread {
  o = new C;
  t = o.f;
  g = $g.initState;
  u = o.f;
}
)";
  auto CountChecksBefore = [](const Program &P) {
    // Count checks appearing before the $g access.
    int Before = 0;
    bool SeenGlobal = false;
    P.forEachStmt([&](const Stmt *S) {
      if (const auto *F = dyn_cast<FieldReadStmt>(S))
        if (F->object().name() == "$g")
          SeenGlobal = true;
      if (isa<CheckStmt>(S) && !SeenGlobal)
        ++Before;
    });
    return Before;
  };

  // Default: checks defer past the global read to the end.
  auto P1 = parseProgramOrDie(Source);
  placeBigFootChecks(*P1);
  EXPECT_EQ(CountChecksBefore(*P1), 0) << printProgram(*P1);

  // With the Section 5 flag, the access acts as synchronization: the
  // first o.f read is checked before it.
  auto P2 = parseProgramOrDie(Source);
  PlacementOptions Opts;
  Opts.Sync.GlobalFieldsSynchronize = true;
  placeBigFootChecks(*P2, Opts);
  EXPECT_GE(CountChecksBefore(*P2), 1) << printProgram(*P2);
}

TEST(StaticFields, GlobalAccessesStillRaceChecked) {
  // Even under the flag, $g fields are real shared state: concurrent
  // unordered writes to them must be detected.
  auto Prog = parseProgramOrDie(R"(
class W {
  fields dummy;
  method run() {
    $g.shared = 1;
  }
}
thread {
  w1 = new W;
  w2 = new W;
  fork t1 = w1.run();
  fork t2 = w2.run();
  join t1;
  join t2;
}
)");
  InstrumentedProgram Bf = instrumentBigFoot(*Prog);
  VmOptions Opts;
  Opts.EnableGroundTruth = true;
  VmResult Run = runProgram(*Bf.Prog, Bf.Tool, Opts);
  ASSERT_TRUE(Run.Ok) << Run.Error;
  EXPECT_FALSE(Run.GroundTruthRaces.empty());
  EXPECT_FALSE(Run.ToolRaces.empty());
}

//===----------------------------------------------------------------------===
// Congruence prover.
//===----------------------------------------------------------------------===

TEST(Congruence, ConstantResidues) {
  ConstraintSystem CS;
  EXPECT_TRUE(CS.proveCongruent(c(6), 3, 0));
  EXPECT_TRUE(CS.proveCongruent(c(7), 3, 1));
  EXPECT_FALSE(CS.proveCongruent(c(7), 3, 0));
  EXPECT_TRUE(CS.proveCongruent(c(-2), 3, 1));
  EXPECT_TRUE(CS.proveCongruent(v("x") - v("x"), 5, 0));
}

TEST(Congruence, ThroughEqualityChain) {
  ConstraintSystem CS;
  CS.addEquality(v("i"), v("j") + 4);
  CS.addCongruence(v("j"), 2, 0);
  EXPECT_TRUE(CS.proveCongruent(v("i"), 2, 0));
  EXPECT_FALSE(CS.proveCongruent(v("i") + 1, 2, 0));
}

TEST(Congruence, InductionStepPreservesResidue) {
  // The Figure 6(b)-style fact pattern for stride 3.
  ConstraintSystem CS;
  CS.addEquality(v("i"), v("i'") + 3);
  CS.addCongruence(v("i'"), 3, 1);
  EXPECT_TRUE(CS.proveCongruent(v("i"), 3, 1));
  EXPECT_FALSE(CS.proveCongruent(v("i"), 3, 0));
}

TEST(Congruence, CompatibleModuli) {
  ConstraintSystem CS;
  CS.addCongruence(v("x"), 6, 0); // Divisible by 6 implies by 2 and 3.
  EXPECT_TRUE(CS.proveCongruent(v("x"), 2, 0));
  EXPECT_TRUE(CS.proveCongruent(v("x"), 3, 0));
  // The reverse is not derivable.
  ConstraintSystem CS2;
  CS2.addCongruence(v("x"), 2, 0);
  EXPECT_FALSE(CS2.proveCongruent(v("x"), 6, 0));
}

TEST(Congruence, ScaledVariablesReduce) {
  ConstraintSystem CS;
  EXPECT_TRUE(CS.proveCongruent(v("k") * 4, 2, 0))
      << "4k is even with no facts at all";
  EXPECT_FALSE(CS.proveCongruent(v("k") * 3, 2, 0));
}

//===----------------------------------------------------------------------===
// Adaptive shadow ≡ fine-grained shadow (differential property).
//===----------------------------------------------------------------------===

namespace {

/// Replays a random stream of range checks against an adaptive and a
/// fine-grained shadow and compares the race verdicts.
void replayAndCompare(uint64_t Seed) {
  Rng R(Seed);
  const int64_t Len = 48;
  ClockPool Pool;
  ArrayShadow Adaptive(Len, /*Adaptive=*/true, Pool);
  ArrayShadow Fine(Len, /*Adaptive=*/false, Pool);

  VectorClock Clocks[3];
  for (ThreadId T = 0; T < 3; ++T)
    Clocks[T].set(T, 1);

  bool AdaptiveRaced = false, FineRaced = false;
  for (int Op = 0; Op < 40; ++Op) {
    ThreadId T = static_cast<ThreadId>(R.nextBelow(3));
    AccessKind K = R.chance(1, 2) ? AccessKind::Read : AccessKind::Write;
    int64_t B = R.nextInRange(0, Len - 1);
    int64_t E = R.nextInRange(B + 1, Len);
    int64_t Stride = R.chance(1, 4) ? 2 : 1;
    StridedRange Range(B, E, Stride);
    // Occasionally synchronize a thread with another (join their clocks)
    // to vary the HB structure.
    if (R.chance(1, 5)) {
      ThreadId U = static_cast<ThreadId>(R.nextBelow(3));
      Clocks[T].joinWith(Clocks[U]);
      Clocks[T].increment(T);
    }
    AdaptiveRaced |= !Adaptive.apply(Range, K, T, Clocks[T]).Races.empty();
    FineRaced |= !Fine.apply(Range, K, T, Clocks[T]).Races.empty();
  }
  // Compression must never change the trace-level verdict.
  EXPECT_EQ(AdaptiveRaced, FineRaced) << "seed " << Seed;
}

} // namespace

class ShadowEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShadowEquivalence, AdaptiveMatchesFineGrainedVerdict) {
  for (uint64_t Inner = 0; Inner < 25; ++Inner)
    replayAndCompare(GetParam() * 100 + Inner);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShadowEquivalence,
                         ::testing::Values(1u, 2u, 3u, 4u));

//===----------------------------------------------------------------------===
// Scheduler robustness: semantic results stable across seeds.
//===----------------------------------------------------------------------===

TEST(SchedulerProperty, LockedCounterExactUnderManySchedules) {
  const char *Source = R"(
class Counter { fields n; }
class W {
  fields dummy;
  method bump(c, lock, times) {
    i = 0;
    while (i < times) {
      acq(lock);
      u = c.n;
      c.n = u + 1;
      rel(lock);
      i = i + 1;
    }
  }
}
thread {
  c = new Counter;
  lock = new Counter;
  w1 = new W;
  w2 = new W;
  w3 = new W;
  fork t1 = w1.bump(c, lock, 30);
  fork t2 = w2.bump(c, lock, 30);
  fork t3 = w3.bump(c, lock, 30);
  join t1;
  join t2;
  join t3;
  total = c.n;
  print total;
  assert total == 90;
}
)";
  auto Prog = parseProgramOrDie(Source);
  InstrumentedProgram Bf = instrumentBigFoot(*Prog);
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    VmOptions Opts;
    Opts.Seed = Seed;
    Opts.Quantum = 1 + static_cast<unsigned>(Seed % 5);
    VmResult Run = runProgram(*Bf.Prog, Bf.Tool, Opts);
    ASSERT_TRUE(Run.Ok) << Run.Error;
    EXPECT_EQ(Run.Output, (std::vector<std::string>{"90"})) << Seed;
    EXPECT_TRUE(Run.ToolRaces.empty()) << Seed;
  }
}
