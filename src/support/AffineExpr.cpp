//===- AffineExpr.cpp - Affine expressions over program variables ---------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "support/AffineExpr.h"

#include <sstream>

using namespace bigfoot;

AffineExpr AffineExpr::operator+(const AffineExpr &Other) const {
  AffineExpr Out = *this;
  Out.Constant += Other.Constant;
  for (const auto &[Name, Coeff] : Other.Terms)
    Out.addTerm(Name, Coeff);
  return Out;
}

AffineExpr AffineExpr::operator-(const AffineExpr &Other) const {
  return *this + (-Other);
}

AffineExpr AffineExpr::operator-() const { return *this * -1; }

AffineExpr AffineExpr::operator*(int64_t Scale) const {
  AffineExpr Out;
  if (Scale == 0)
    return Out;
  Out.Constant = Constant * Scale;
  for (const auto &[Name, Coeff] : Terms)
    Out.Terms[Name] = Coeff * Scale;
  return Out;
}

std::optional<AffineExpr>
AffineExpr::checkedCombine(const AffineExpr &Other, bool Subtract) const {
  auto Overflows = [Subtract](int64_t L, int64_t R, int64_t &Out) {
    return Subtract ? __builtin_sub_overflow(L, R, &Out)
                    : __builtin_add_overflow(L, R, &Out);
  };
  AffineExpr Out = *this;
  if (Overflows(Constant, Other.Constant, Out.Constant))
    return std::nullopt;
  for (const auto &[Name, Coeff] : Other.Terms) {
    int64_t &Slot = Out.Terms[Name];
    if (Overflows(Slot, Coeff, Slot))
      return std::nullopt;
    if (Slot == 0)
      Out.Terms.erase(Name);
  }
  return Out;
}

std::optional<AffineExpr> AffineExpr::checkedScale(int64_t Scale) const {
  AffineExpr Out;
  if (Scale == 0)
    return Out;
  if (__builtin_mul_overflow(Constant, Scale, &Out.Constant))
    return std::nullopt;
  for (const auto &[Name, Coeff] : Terms)
    if (__builtin_mul_overflow(Coeff, Scale, &Out.Terms[Name]))
      return std::nullopt;
  return Out;
}

AffineExpr AffineExpr::substitute(const std::string &Name,
                                  const AffineExpr &Replacement) const {
  auto It = Terms.find(Name);
  if (It == Terms.end())
    return *this;
  int64_t Coeff = It->second;
  AffineExpr Out = *this;
  Out.Terms.erase(Name);
  return Out + Replacement * Coeff;
}

std::string AffineExpr::str() const {
  if (Terms.empty())
    return std::to_string(Constant);
  std::ostringstream OS;
  bool First = true;
  for (const auto &[Name, Coeff] : Terms) {
    if (Coeff >= 0 && !First)
      OS << " + ";
    else if (Coeff < 0)
      OS << (First ? "-" : " - ");
    int64_t Mag = Coeff < 0 ? -Coeff : Coeff;
    if (Mag != 1)
      OS << Mag << "*";
    OS << Name;
    First = false;
  }
  if (Constant > 0)
    OS << " + " << Constant;
  else if (Constant < 0)
    OS << " - " << -Constant;
  return OS.str();
}

std::string SymbolicRange::str() const {
  if (isSingleton())
    return "[" + Begin.str() + "]";
  std::string S = "[" + Begin.str() + ".." + End.str();
  if (Stride != 1)
    S += ":" + std::to_string(Stride);
  S += "]";
  return S;
}
