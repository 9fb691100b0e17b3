//===- StridedRangeTest.cpp - Unit tests for strided ranges ----------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "support/StridedRange.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace bigfoot;

TEST(StridedRange, EmptyCanonical) {
  StridedRange Empty;
  EXPECT_TRUE(Empty.empty());
  EXPECT_EQ(Empty.size(), 0);
  EXPECT_EQ(StridedRange(5, 5), Empty);
  EXPECT_EQ(StridedRange(7, 3), Empty);
}

TEST(StridedRange, SingletonNormalizesStride) {
  // A one-element range is canonically stride 1 regardless of the input
  // stride, so equal sets compare equal.
  EXPECT_EQ(StridedRange(4, 5, 3), StridedRange::singleton(4));
  EXPECT_EQ(StridedRange(4, 5, 3).stride(), 1);
}

TEST(StridedRange, EndTrimming) {
  // 0..10:4 covers {0,4,8}; canonical end is 9.
  StridedRange R(0, 10, 4);
  EXPECT_EQ(R.size(), 3);
  EXPECT_EQ(R.end(), 9);
  EXPECT_EQ(R, StridedRange(0, 9, 4));
}

TEST(StridedRange, WidthOfInt64MaxCountsWithoutOverflow) {
  // The widest range int64 allows: its end minus its begin is INT64_MAX,
  // which E - B + K - 1 would overflow. The last element below 8 with
  // begin's residue (1 mod 10) is 1, so the trimmed end is 2.
  StridedRange R(INT64_MIN + 9, 8, 10);
  EXPECT_EQ(R.begin(), INT64_MIN + 9);
  EXPECT_EQ(R.end(), 2);
  EXPECT_EQ(R.stride(), 10);
  EXPECT_EQ(R.size(), 922337203685477581);
  EXPECT_TRUE(R.contains(1));
  EXPECT_FALSE(R.contains(0));
  // Unit stride keeps the end as given.
  StridedRange Unit(INT64_MIN, -1, 1);
  EXPECT_EQ(Unit.end(), -1);
  EXPECT_EQ(Unit.size(), INT64_MAX);
}

TEST(StridedRange, ContainsRespectsStrideAndBounds) {
  StridedRange R(2, 20, 3); // {2,5,8,11,14,17}
  for (int64_t I : {2, 5, 8, 11, 14, 17})
    EXPECT_TRUE(R.contains(I)) << I;
  for (int64_t I : {0, 1, 3, 4, 18, 20, 23})
    EXPECT_FALSE(R.contains(I)) << I;
}

TEST(StridedRange, ElementsMatchesDefinition) {
  StridedRange R(3, 12, 2);
  std::vector<int64_t> Expected = {3, 5, 7, 9, 11};
  EXPECT_EQ(R.elements(), Expected);
}

TEST(StridedRange, CoversSubsetStride) {
  StridedRange Fine(0, 100, 2);
  StridedRange Coarse(0, 100, 4); // subset: stride multiple, aligned
  EXPECT_TRUE(Fine.covers(Coarse));
  EXPECT_FALSE(Coarse.covers(Fine));
  // Misaligned: 1..100:4 not contained in evens.
  EXPECT_FALSE(Fine.covers(StridedRange(1, 100, 4)));
  // Everything covers empty.
  EXPECT_TRUE(Coarse.covers(StridedRange()));
}

TEST(StridedRange, UnionAdjacentUnitRanges) {
  auto U = StridedRange(0, 5).unionWith(StridedRange(5, 9));
  ASSERT_TRUE(U.has_value());
  EXPECT_EQ(*U, StridedRange(0, 9));
}

TEST(StridedRange, UnionOverlappingUnitRanges) {
  auto U = StridedRange(0, 6).unionWith(StridedRange(4, 10));
  ASSERT_TRUE(U.has_value());
  EXPECT_EQ(*U, StridedRange(0, 10));
}

TEST(StridedRange, UnionDisjointFails) {
  EXPECT_FALSE(StridedRange(0, 4).unionWith(StridedRange(6, 9)).has_value());
}

TEST(StridedRange, UnionStridedExtension) {
  // {0,3,6} + {9} = 0..10:3.
  auto U = StridedRange(0, 7, 3).unionWith(StridedRange::singleton(9));
  ASSERT_TRUE(U.has_value());
  EXPECT_EQ(U->elements(), (std::vector<int64_t>{0, 3, 6, 9}));
}

TEST(StridedRange, UnionPrependSingleton) {
  auto U = StridedRange(6, 13, 3).unionWith(StridedRange::singleton(3));
  ASSERT_TRUE(U.has_value());
  EXPECT_EQ(U->elements(), (std::vector<int64_t>{3, 6, 9, 12}));
}

TEST(StridedRange, UnionTwoSingletonsMakesStride) {
  auto U = StridedRange::singleton(4).unionWith(StridedRange::singleton(7));
  ASSERT_TRUE(U.has_value());
  EXPECT_EQ(U->elements(), (std::vector<int64_t>{4, 7}));
}

TEST(StridedRange, UnionInterleavedStrides) {
  // Evens + odds = everything.
  auto U = StridedRange(0, 10, 2).unionWith(StridedRange(1, 10, 2));
  ASSERT_TRUE(U.has_value());
  EXPECT_EQ(U->size(), 10);
  EXPECT_EQ(U->stride(), 1);
}

TEST(StridedRange, IntersectsBasic) {
  EXPECT_TRUE(StridedRange(0, 10, 2).intersects(StridedRange(4, 6)));
  EXPECT_FALSE(StridedRange(0, 10, 2).intersects(StridedRange(1, 10, 2)));
  EXPECT_FALSE(StridedRange(0, 5).intersects(StridedRange(5, 10)));
  EXPECT_FALSE(StridedRange().intersects(StridedRange(0, 10)));
}

// Property sweep: union, when it succeeds, denotes exactly the set union;
// covers/contains/intersects agree with the element sets.
class StridedRangeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StridedRangeProperty, UnionSoundAndOpsAgree) {
  Rng R(GetParam());
  for (int Trial = 0; Trial < 200; ++Trial) {
    StridedRange A(R.nextInRange(0, 20), R.nextInRange(0, 40),
                   R.nextInRange(1, 5));
    StridedRange B(R.nextInRange(0, 20), R.nextInRange(0, 40),
                   R.nextInRange(1, 5));
    std::set<int64_t> SetA, SetB, SetU;
    for (int64_t I : A.elements())
      SetA.insert(I);
    for (int64_t I : B.elements())
      SetB.insert(I);
    SetU = SetA;
    SetU.insert(SetB.begin(), SetB.end());

    if (auto U = A.unionWith(B)) {
      std::vector<int64_t> Got = U->elements();
      std::vector<int64_t> Want(SetU.begin(), SetU.end());
      EXPECT_EQ(Got, Want) << A.str() << " u " << B.str();
    }
    bool Covers = std::includes(SetA.begin(), SetA.end(), SetB.begin(),
                                SetB.end());
    EXPECT_EQ(A.covers(B), Covers) << A.str() << " covers " << B.str();
    bool Inter = false;
    for (int64_t I : SetB)
      Inter = Inter || SetA.count(I);
    EXPECT_EQ(A.intersects(B), Inter) << A.str() << " ^ " << B.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StridedRangeProperty,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

TEST(RangeSet, AddCoalescesAdjacent) {
  RangeSet S;
  S.add(StridedRange(0, 4));
  S.add(StridedRange(4, 8));
  EXPECT_EQ(S.fragments(), 1u);
  EXPECT_EQ(S.cardinality(), 8);
}

TEST(RangeSet, AddKeepsDisjointFragments) {
  RangeSet S;
  S.add(StridedRange(0, 4));
  S.add(StridedRange(10, 14));
  EXPECT_EQ(S.fragments(), 2u);
  EXPECT_TRUE(S.contains(2));
  EXPECT_TRUE(S.contains(12));
  EXPECT_FALSE(S.contains(7));
}

TEST(RangeSet, AddBridgingRangeMergesAll) {
  RangeSet S;
  S.add(StridedRange(0, 4));
  S.add(StridedRange(8, 12));
  S.add(StridedRange(4, 8));
  EXPECT_EQ(S.fragments(), 1u);
  EXPECT_EQ(S.cardinality(), 12);
}

TEST(RangeSet, CoversAcrossFragments) {
  RangeSet S;
  S.add(StridedRange(0, 5));
  S.add(StridedRange(7, 10));
  EXPECT_TRUE(S.covers(StridedRange(1, 4)));
  EXPECT_TRUE(S.covers(StridedRange(7, 10)));
  EXPECT_FALSE(S.covers(StridedRange(4, 8)));
}

TEST(RangeSet, StridedCommitPattern) {
  // Typical SlimState pattern: a thread touches a[i], a[i+2], ... and the
  // footprint stays one fragment.
  RangeSet S;
  for (int64_t I = 0; I < 64; I += 2)
    S.add(StridedRange::singleton(I));
  EXPECT_EQ(S.fragments(), 1u);
  EXPECT_EQ(S.cardinality(), 32);
  EXPECT_EQ(S.ranges()[0].stride(), 2);
}

TEST(RangeSet, SequentialCommitPattern) {
  RangeSet S;
  for (int64_t I = 0; I < 100; ++I)
    S.add(StridedRange::singleton(I));
  EXPECT_EQ(S.fragments(), 1u);
  EXPECT_EQ(S.cardinality(), 100);
}
