//===- AffineExprTest.cpp - Unit tests for affine expressions --------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "support/AffineExpr.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace bigfoot;

namespace {
VarName n(const char *Name) { return VarName::intern(Name); }
AffineExpr v(const char *Name) { return AffineExpr::variable(n(Name)); }
} // namespace

TEST(AffineExpr, ConstantsFold) {
  AffineExpr E = AffineExpr::constant(3) + AffineExpr::constant(4);
  EXPECT_TRUE(E.isConstant());
  EXPECT_EQ(E.constantValue(), 7);
}

TEST(AffineExpr, TermsCancel) {
  AffineExpr E = v("i") + v("j") - v("i");
  EXPECT_EQ(E, v("j"));
  EXPECT_FALSE(E.mentions(n("i")));
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
  AffineExpr S = E.substitute(n("i"), v("k") - 1);
  EXPECT_EQ(S, v("k") * 2 + v("j") - 1);
}

TEST(AffineExpr, SubstituteAbsentVariableIsIdentity) {
  AffineExpr E = v("i") + 5;
  EXPECT_EQ(E.substitute(n("zz"), v("q")), E);
}

TEST(AffineExpr, RenamePreservesStructure) {
  AffineExpr E = v("i") * 4 - 2;
  EXPECT_EQ(E.rename(n("i"), n("i'")), v("i'") * 4 - 2);
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
  SymbolicRange S = R.substitute(n("lo"), AffineExpr::constant(0))
                        .substitute(n("hi"), v("n") + 1);
  EXPECT_EQ(S.Begin, AffineExpr::constant(0));
  EXPECT_EQ(S.End, v("n") + 1);
  EXPECT_EQ(S.Stride, 2);
  EXPECT_EQ(S.str(), "[0..n + 1:2]");
}

TEST(SymbolicRange, MentionsChecksBounds) {
  SymbolicRange R(v("lo"), v("hi"));
  EXPECT_TRUE(R.mentions(n("lo")));
  EXPECT_TRUE(R.mentions(n("hi")));
  EXPECT_FALSE(R.mentions(n("i")));
}

//===----------------------------------------------------------------------===
// The handle representation against a model: a string-keyed map of terms,
// the representation AffineExpr had before its variables were interned.
// Every operation must give the expression the model gives, with its
// terms in the model's (name) order and the same printed form, whatever
// order the names were interned in and past the four inline terms.
//===----------------------------------------------------------------------===

namespace {

struct Model {
  std::map<std::string, int64_t> Terms;
  int64_t Constant = 0;

  bool operator==(const Model &O) const {
    return Constant == O.Constant && Terms == O.Terms;
  }
  bool operator<(const Model &O) const {
    if (Constant != O.Constant)
      return Constant < O.Constant;
    return Terms < O.Terms;
  }
};

/// A + B * Scale.
Model combined(Model A, const Model &B, int64_t Scale) {
  A.Constant += B.Constant * Scale;
  for (const auto &[Name, Coeff] : B.Terms)
    if ((A.Terms[Name] += Coeff * Scale) == 0)
      A.Terms.erase(Name);
  return A;
}

Model substituted(const Model &M, const std::string &Name, const Model &R) {
  auto It = M.Terms.find(Name);
  if (It == M.Terms.end())
    return M;
  Model Rest = M;
  Rest.Terms.erase(Name);
  return combined(Rest, R, It->second);
}

/// The rendering AffineExpr::str() has always produced.
std::string rendered(const Model &M) {
  if (M.Terms.empty())
    return std::to_string(M.Constant);
  std::string S;
  bool First = true;
  for (const auto &[Name, Coeff] : M.Terms) {
    if (Coeff >= 0 && !First)
      S += " + ";
    else if (Coeff < 0)
      S += First ? "-" : " - ";
    int64_t Mag = Coeff < 0 ? -Coeff : Coeff;
    if (Mag != 1)
      S += std::to_string(Mag) + "*";
    S += Name;
    First = false;
  }
  if (M.Constant > 0)
    S += " + " + std::to_string(M.Constant);
  else if (M.Constant < 0)
    S += " - " + std::to_string(-M.Constant);
  return S;
}

void expectMatches(const AffineExpr &E, const Model &M, const char *Op) {
  ASSERT_FALSE(E.overflowed()) << Op;
  EXPECT_EQ(E.constantPart(), M.Constant) << Op;
  ASSERT_EQ(E.terms().size(), M.Terms.size()) << Op << ": " << E.str();
  auto It = M.Terms.begin();
  for (const auto &[Var, Coeff] : E.terms()) {
    EXPECT_EQ(Var.name(), It->first) << Op;
    EXPECT_EQ(Coeff, It->second) << Op;
    ++It;
  }
  EXPECT_EQ(E.str(), rendered(M)) << Op;
}

} // namespace

TEST(AffineExpr, MatchesStringKeyedModel) {
  // Interned in an order unlike their name order, which is
  // #const:3 < $probe < a < b < i < i'2 < z.
  const std::vector<std::string> Names = {"z", "i'2", "#const:3", "a",
                                          "$probe", "b", "i"};
  std::vector<VarName> Vars;
  for (const std::string &Name : Names)
    Vars.push_back(VarName::intern(Name));

  Rng R(17);
  auto Random = [&R, &Names, &Vars](AffineExpr &E, Model &M) {
    M = Model();
    M.Constant = R.nextInRange(-5, 5);
    E = AffineExpr::constant(M.Constant);
    // Up to all seven names, so that expressions cross the four inline
    // terms in both directions.
    for (int K = int(R.nextBelow(Names.size() + 1)); K > 0; --K) {
      size_t I = R.nextBelow(Names.size());
      int64_t Coeff = R.nextInRange(-3, 3);
      E = E + AffineExpr::variable(Vars[I]) * Coeff;
      if ((M.Terms[Names[I]] += Coeff) == 0)
        M.Terms.erase(Names[I]);
    }
  };

  for (int Round = 0; Round < 2000; ++Round) {
    AffineExpr A, B;
    Model MA, MB;
    Random(A, MA);
    Random(B, MB);
    expectMatches(A, MA, "build");
    expectMatches(A + B, combined(MA, MB, 1), "+");
    expectMatches(A - B, combined(MA, MB, -1), "-");
    expectMatches(-A, combined(Model(), MA, -1), "negate");
    int64_t Scale = R.nextInRange(-4, 4);
    expectMatches(A * Scale, combined(Model(), MA, Scale), "scale");
    expectMatches(A + Scale, combined(MA, Model{{}, Scale}, 1), "+ c");

    size_t I = R.nextBelow(Names.size()), J = R.nextBelow(Names.size());
    expectMatches(A.substitute(Vars[I], B), substituted(MA, Names[I], MB),
                  "substitute");
    Model ToJ;
    ToJ.Terms[Names[J]] = 1;
    expectMatches(A.rename(Vars[I], Vars[J]), substituted(MA, Names[I], ToJ),
                  "rename");

    EXPECT_EQ(A.mentions(Vars[I]), MA.Terms.count(Names[I]) != 0);
    EXPECT_EQ(A == B, MA == MB);
    EXPECT_EQ(A < B, MA < MB);
    EXPECT_EQ(B < A, MB < MA);
    AffineExpr Copy = A;
    EXPECT_TRUE(Copy == A);
    EXPECT_EQ(Copy.hash(), A.hash());
    EXPECT_FALSE(Copy < A);
  }
}

TEST(AffineExpr, OverflowIsSticky) {
  const int64_t Max = INT64_MAX;
  // Every operation whose exact result int64 cannot hold yields an
  // overflowed expression, and so does every operation on one.
  EXPECT_TRUE((v("x") * Max * 2).overflowed());
  EXPECT_TRUE((AffineExpr::constant(Max) + 1).overflowed());
  EXPECT_TRUE((AffineExpr::constant(-Max - 1) - 1).overflowed());
  EXPECT_TRUE((-AffineExpr::constant(-Max - 1)).overflowed());
  EXPECT_TRUE((v("x") * Max + v("x")).overflowed());
  EXPECT_TRUE((v("x") * Max).substitute(n("x"), v("y") * 2).overflowed());
  AffineExpr Over = AffineExpr::constant(Max) + 1;
  EXPECT_TRUE((Over * 0).overflowed());
  EXPECT_TRUE((Over - Over).overflowed());
  EXPECT_FALSE(Over.isConstant());
  EXPECT_FALSE(Over.constantValue().has_value());
  // Exact results inside the range are kept, even when a partial sum of
  // the old left-to-right evaluation would not have fit.
  EXPECT_EQ(v("x") * Max - v("x") * Max, AffineExpr::constant(0));
  EXPECT_EQ(((v("x") * -1) - (v("x") * (-Max - 1))).str(),
            "9223372036854775807*x");
  EXPECT_EQ((v("x") * (-Max - 1)).str(), "-9223372036854775808*x");
}
