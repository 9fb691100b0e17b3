//===- AffineExprTest.cpp - Unit tests for affine expressions --------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "support/AffineExpr.h"

#include <gtest/gtest.h>

using namespace bigfoot;

namespace {
AffineExpr v(const char *Name) { return AffineExpr::variable(Name); }
} // namespace

TEST(AffineExpr, ConstantsFold) {
  AffineExpr E = AffineExpr::constant(3) + AffineExpr::constant(4);
  EXPECT_TRUE(E.isConstant());
  EXPECT_EQ(E.constantValue(), 7);
}

TEST(AffineExpr, TermsCancel) {
  AffineExpr E = v("i") + v("j") - v("i");
  EXPECT_EQ(E, v("j"));
  EXPECT_FALSE(E.mentions("i"));
}

TEST(AffineExpr, ZeroCoefficientNotStored) {
  AffineExpr E = v("i") * 0;
  EXPECT_TRUE(E.isConstant());
  EXPECT_EQ(E.constantValue(), 0);
}

TEST(AffineExpr, ScalingDistributes) {
  AffineExpr E = (v("i") + AffineExpr::constant(2)) * 3;
  EXPECT_EQ(E, v("i") * 3 + AffineExpr::constant(6));
}

TEST(AffineExpr, SubstituteVariable) {
  // (2i + j + 1)[i := k - 1] == 2k + j - 1.
  AffineExpr E = v("i") * 2 + v("j") + 1;
  AffineExpr S = E.substitute("i", v("k") - 1);
  EXPECT_EQ(S, v("k") * 2 + v("j") - 1);
}

TEST(AffineExpr, SubstituteAbsentVariableIsIdentity) {
  AffineExpr E = v("i") + 5;
  EXPECT_EQ(E.substitute("zz", v("q")), E);
}

TEST(AffineExpr, RenamePreservesStructure) {
  AffineExpr E = v("i") * 4 - 2;
  EXPECT_EQ(E.rename("i", "i'"), v("i'") * 4 - 2);
}

TEST(AffineExpr, StrIsReadable) {
  EXPECT_EQ((v("i") + 1).str(), "i + 1");
  EXPECT_EQ((v("i") - v("j")).str(), "i - j");
  EXPECT_EQ((v("i") * 2 - 1).str(), "2*i - 1");
  EXPECT_EQ(AffineExpr::constant(0).str(), "0");
  EXPECT_EQ((-v("i")).str(), "-i");
}

TEST(SymbolicRange, SingletonDetection) {
  SymbolicRange R = SymbolicRange::singleton(v("i"));
  EXPECT_TRUE(R.isSingleton());
  EXPECT_EQ(R.str(), "[i]");
  SymbolicRange Wide(AffineExpr::constant(0), v("n"));
  EXPECT_FALSE(Wide.isSingleton());
  EXPECT_EQ(Wide.str(), "[0..n]");
}

TEST(SymbolicRange, SubstitutionHitsBothBounds) {
  SymbolicRange R(v("lo"), v("hi"), 2);
  SymbolicRange S = R.substitute("lo", AffineExpr::constant(0))
                        .substitute("hi", v("n") + 1);
  EXPECT_EQ(S.Begin, AffineExpr::constant(0));
  EXPECT_EQ(S.End, v("n") + 1);
  EXPECT_EQ(S.Stride, 2);
  EXPECT_EQ(S.str(), "[0..n + 1:2]");
}

TEST(SymbolicRange, MentionsChecksBounds) {
  SymbolicRange R(v("lo"), v("hi"));
  EXPECT_TRUE(R.mentions("lo"));
  EXPECT_TRUE(R.mentions("hi"));
  EXPECT_FALSE(R.mentions("i"));
}
