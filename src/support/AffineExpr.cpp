//===- AffineExpr.cpp - Affine expressions over program variables ---------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "support/AffineExpr.h"

#include <algorithm>
#include <limits>
#include <memory>

using namespace bigfoot;

namespace {

bool fitsInt64(__int128 V) {
  return V >= std::numeric_limits<int64_t>::min() &&
         V <= std::numeric_limits<int64_t>::max();
}

/// The magnitude of \p V; unsigned, so INT64_MIN has one.
uint64_t magnitude(int64_t V) {
  return V < 0 ? 0 - static_cast<uint64_t>(V) : static_cast<uint64_t>(V);
}

} // namespace

AffineExpr::AffineExpr(const AffineExpr &Other)
    : Constant(Other.Constant), Size(Other.Size),
      Overflowed(Other.Overflowed) {
  if (Size > kInline) {
    Capacity = Size;
    Heap = std::allocator<Term>().allocate(Capacity);
  }
  std::copy_n(Other.data(), Size, data());
}

AffineExpr &AffineExpr::operator=(const AffineExpr &Other) {
  if (this != &Other)
    *this = AffineExpr(Other);
  return *this;
}

AffineExpr &AffineExpr::operator=(AffineExpr &&Other) noexcept {
  if (this == &Other)
    return *this;
  release();
  Constant = Other.Constant;
  Size = Other.Size;
  Capacity = Other.Capacity;
  Overflowed = Other.Overflowed;
  if (onHeap())
    Heap = Other.Heap;
  else
    std::copy_n(Other.Inline, Size, Inline);
  Other.Constant = 0;
  Other.Size = 0;
  Other.Capacity = kInline;
  Other.Overflowed = false;
  return *this;
}

void AffineExpr::grow() {
  uint32_t NewCapacity = Capacity * 2;
  Term *Block = std::allocator<Term>().allocate(NewCapacity);
  std::copy_n(data(), Size, Block);
  release();
  Heap = Block;
  Capacity = NewCapacity;
}

int64_t AffineExpr::coeff(VarName V) const {
  for (const Term &T : terms())
    if (T.Var == V)
      return T.Coeff;
  return 0;
}

AffineExpr AffineExpr::combine(const AffineExpr &Other, int64_t Scale) const {
  if (Overflowed || Other.Overflowed)
    return overflow();
  AffineExpr Out;
  __int128 C = static_cast<__int128>(Constant) +
               static_cast<__int128>(Other.Constant) * Scale;
  if (!fitsInt64(C))
    return overflow();
  Out.Constant = static_cast<int64_t>(C);
  // Merge the two name-ordered term lists.
  const Term *A = data(), *AEnd = A + Size;
  const Term *B = Other.data(), *BEnd = B + Other.Size;
  while (A != AEnd || B != BEnd) {
    VarName V;
    __int128 Coeff = 0;
    if (B == BEnd || (A != AEnd && A->Var < B->Var)) {
      V = A->Var;
      Coeff = (A++)->Coeff;
    } else if (A == AEnd || A->Var != B->Var) {
      V = B->Var;
      Coeff = static_cast<__int128>((B++)->Coeff) * Scale;
    } else {
      V = A->Var;
      Coeff = static_cast<__int128>((A++)->Coeff) +
              static_cast<__int128>((B++)->Coeff) * Scale;
    }
    if (Coeff == 0)
      continue;
    if (!fitsInt64(Coeff))
      return overflow();
    Out.push(V, static_cast<int64_t>(Coeff));
  }
  return Out;
}

AffineExpr AffineExpr::operator*(int64_t Scale) const {
  if (Overflowed)
    return overflow();
  AffineExpr Out;
  if (Scale == 0)
    return Out;
  if (__builtin_mul_overflow(Constant, Scale, &Out.Constant))
    return overflow();
  for (const Term &T : terms()) {
    int64_t Coeff = 0;
    if (__builtin_mul_overflow(T.Coeff, Scale, &Coeff))
      return overflow();
    Out.push(T.Var, Coeff);
  }
  return Out;
}

AffineExpr AffineExpr::operator+(int64_t C) const {
  AffineExpr Out = *this;
  if (Overflowed || __builtin_add_overflow(Constant, C, &Out.Constant))
    return overflow();
  return Out;
}

AffineExpr AffineExpr::operator-(int64_t C) const {
  AffineExpr Out = *this;
  if (Overflowed || __builtin_sub_overflow(Constant, C, &Out.Constant))
    return overflow();
  return Out;
}

bool AffineExpr::operator==(const AffineExpr &Other) const {
  if (Constant != Other.Constant || Size != Other.Size ||
      Overflowed != Other.Overflowed)
    return false;
  const Term *A = data(), *B = Other.data();
  for (uint32_t I = 0; I < Size; ++I)
    if (A[I].Var != B[I].Var || A[I].Coeff != B[I].Coeff)
      return false;
  return true;
}

bool AffineExpr::operator<(const AffineExpr &Other) const {
  if (Overflowed != Other.Overflowed)
    return Overflowed < Other.Overflowed;
  if (Constant != Other.Constant)
    return Constant < Other.Constant;
  std::span<const Term> A = terms(), B = Other.terms();
  return std::lexicographical_compare(
      A.begin(), A.end(), B.begin(), B.end(),
      [](const Term &X, const Term &Y) {
        if (X.Var != Y.Var)
          return X.Var < Y.Var;
        return X.Coeff < Y.Coeff;
      });
}

size_t AffineExpr::hash() const {
  auto Mix = [](size_t H, size_t V) {
    return H ^ (V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2));
  };
  size_t H = Mix(Overflowed, static_cast<size_t>(Constant));
  for (const Term &T : terms())
    H = Mix(Mix(H, T.Var.hash()), static_cast<size_t>(T.Coeff));
  return H;
}

AffineExpr AffineExpr::substitute(VarName V,
                                  const AffineExpr &Replacement) const {
  int64_t Coeff = coeff(V);
  if (Coeff == 0)
    return *this;
  AffineExpr Rest;
  Rest.Constant = Constant;
  for (const Term &T : terms())
    if (T.Var != V)
      Rest.push(T.Var, T.Coeff);
  return Rest.combine(Replacement, Coeff);
}

std::string AffineExpr::str() const {
  if (Overflowed)
    return "<overflow>";
  if (Size == 0)
    return std::to_string(Constant);
  std::string S;
  bool First = true;
  for (const Term &T : terms()) {
    if (T.Coeff >= 0 && !First)
      S += " + ";
    else if (T.Coeff < 0)
      S += First ? "-" : " - ";
    uint64_t Mag = magnitude(T.Coeff);
    if (Mag != 1)
      S += std::to_string(Mag) + "*";
    S += T.Var.name();
    First = false;
  }
  if (Constant > 0)
    S += " + " + std::to_string(Constant);
  else if (Constant < 0)
    S += " - " + std::to_string(magnitude(Constant));
  return S;
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
