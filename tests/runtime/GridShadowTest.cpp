//===- GridShadowTest.cpp - Two-level grid shadow tests ----------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
// The segments × residue-classes grid: SlimState-style compression for
// block-strided patterns like sor's per-worker red/black chunks.
//
//===----------------------------------------------------------------------===//

#include "runtime/ArrayShadow.h"

#include <gtest/gtest.h>

using namespace bigfoot;

namespace {
struct Clocks {
  ClockPool Pool;
  VectorClock T0, T1;
  Clocks() {
    T0.set(0, 1);
    T1.set(1, 1);
  }
};
} // namespace

TEST(GridShadow, SorPatternStaysCompressed) {
  // Two workers, red/black phases over disjoint halves: four (segment,
  // class) locations, one op per phase sweep.
  Clocks C;
  ArrayShadow S(12000, /*Adaptive=*/true, C.Pool);
  const int64_t Mid = 6000, N = 12000;
  // Worker 0, red phase: writes odds in [0, Mid).
  auto R0 = S.apply(StridedRange(1, Mid, 2), AccessKind::Write, 0, C.T0);
  EXPECT_EQ(R0.ShadowOps, 1u);
  EXPECT_EQ(S.mode(), ArrayShadow::Mode::Strided);
  // Worker 1, red phase: writes odds in [Mid, N).
  auto R1 = S.apply(StridedRange(Mid + 1, N, 2), AccessKind::Write, 1, C.T1);
  EXPECT_EQ(R1.ShadowOps, 1u);
  EXPECT_TRUE(R1.Races.empty()) << "disjoint halves";
  // Black phases: evens.
  auto B0 = S.apply(StridedRange(2, Mid, 2), AccessKind::Write, 0, C.T0);
  auto B1 = S.apply(StridedRange(Mid + 2, N, 2), AccessKind::Write, 1, C.T1);
  EXPECT_EQ(B0.ShadowOps, 1u);
  EXPECT_EQ(B1.ShadowOps, 1u);
  EXPECT_TRUE(B0.Races.empty() && B1.Races.empty());
  // A handful of (segment, class) locations — the two boundary-halo
  // elements (0 and Mid) get their own slivers, which exactness requires
  // — instead of 12000 fine-grained ones.
  EXPECT_LE(S.locationCount(), 8u);
}

TEST(GridShadow, CrossHalfOverlapStillRaces) {
  Clocks C;
  ArrayShadow S(1000, true, C.Pool);
  S.apply(StridedRange(1, 600, 2), AccessKind::Write, 0, C.T0);
  // Unordered overlapping stride sweep by another thread.
  auto R = S.apply(StridedRange(401, 800, 2), AccessKind::Write, 1, C.T1);
  EXPECT_FALSE(R.Races.empty());
}

TEST(GridShadow, UnitRangeOverAlignedWindowsTouchesAllClasses) {
  Clocks C;
  ArrayShadow S(100, true, C.Pool);
  S.apply(StridedRange(0, 100, 2), AccessKind::Read, 0, C.T0); // K=2 grid.
  // A unit-stride read of an aligned window covers both classes.
  auto R = S.apply(StridedRange(20, 40), AccessKind::Read, 0, C.T0);
  EXPECT_NE(S.mode(), ArrayShadow::Mode::Fine);
  EXPECT_EQ(R.ShadowOps, 2u);
}

TEST(GridShadow, MisalignedUnitRangeFallsBackToFine) {
  Clocks C;
  ArrayShadow S(100, true, C.Pool);
  S.apply(StridedRange(0, 100, 2), AccessKind::Read, 0, C.T0);
  auto R = S.apply(StridedRange(21, 40), AccessKind::Read, 0, C.T0);
  EXPECT_EQ(S.mode(), ArrayShadow::Mode::Fine);
  EXPECT_EQ(R.ShadowOps, 19u);
}

TEST(GridShadow, MismatchedStrideFallsBackToFine) {
  Clocks C;
  ArrayShadow S(90, true, C.Pool);
  S.apply(StridedRange(0, 90, 2), AccessKind::Write, 0, C.T0);
  S.apply(StridedRange(0, 90, 3), AccessKind::Write, 0, C.T0);
  EXPECT_EQ(S.mode(), ArrayShadow::Mode::Fine);
}

TEST(GridShadow, RaggedTailHandled) {
  // Length not divisible by the stride: the last window is short.
  Clocks C;
  ArrayShadow S(11, true, C.Pool);
  auto R = S.apply(StridedRange(0, 11, 2), AccessKind::Write, 0, C.T0);
  EXPECT_EQ(R.ShadowOps, 1u); // {0,2,4,6,8,10} = class 0 entirely.
  auto R2 = S.apply(StridedRange(1, 11, 2), AccessKind::Write, 0, C.T0);
  EXPECT_EQ(R2.ShadowOps, 1u); // {1,3,5,7,9} = class 1 entirely.
  EXPECT_EQ(S.locationCount(), 2u);
}

TEST(GridShadow, NegativeBeginClippedPhaseCorrectly) {
  // Clipping [-3..9:2) must keep the odd phase: {1,3,5,7} not {0,2,...}.
  Clocks C;
  ArrayShadow S(10, true, C.Pool);
  S.apply(StridedRange(1, 10, 2), AccessKind::Write, 0, C.T0); // K=2, class 1.
  auto R = S.apply(StridedRange(-3, 9, 2), AccessKind::Write, 1, C.T1);
  // Same (odd) class: unordered threads race.
  EXPECT_FALSE(R.Races.empty());
}

TEST(GridShadow, FarNegativeBeginClipsWithoutOverflow) {
  // The range's begin is within one stride of INT64_MIN: clipping it to
  // the array keeps the residue 1 mod 10 and touches a[1] alone.
  Clocks C;
  ArrayShadow S(8, false, C.Pool);
  auto W = S.apply(StridedRange(INT64_MIN + 9, 8, 10), AccessKind::Write, 0,
                   C.T0);
  EXPECT_EQ(W.ShadowOps, 1u);
  EXPECT_FALSE(S.apply(StridedRange(1, 2), AccessKind::Write, 1, C.T1)
                   .Races.empty());
  EXPECT_TRUE(S.apply(StridedRange(0, 1), AccessKind::Write, 1, C.T1)
                  .Races.empty());
}

TEST(GridShadow, RefinementPreservesHistoryAcrossSplits) {
  Clocks C;
  ArrayShadow S(64, true, C.Pool);
  S.apply(StridedRange(0, 64), AccessKind::Write, 0, C.T0); // Coarse op.
  // A later strided sweep by an unordered thread must still see T0's
  // write even though the representation re-grids.
  auto R = S.apply(StridedRange(0, 64, 4), AccessKind::Write, 1, C.T1);
  EXPECT_FALSE(R.Races.empty());
}
