//===- AffineExpr.h - Affine expressions over program variables -*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Affine (linear + constant) integer expressions over named program
/// variables. These are the normal form the entailment engine and the
/// symbolic strided-range machinery reason over: the BigFoot analysis only
/// ever needs facts like `i = j`, `i = i' + 1`, `i < n`, or range bounds
/// `0..i`, all of which are affine.
///
/// Variables are interned VarName handles (support/VarName.h), so building,
/// comparing and hashing an expression compares handles, not strings; only
/// ordering and printing read the names.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_SUPPORT_AFFINEEXPR_H
#define BIGFOOT_SUPPORT_AFFINEEXPR_H

#include "support/VarName.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>

namespace bigfoot {

/// An affine integer expression: sum of Coeff * Var terms plus a constant.
/// The terms are sorted by name and never hold a zero coefficient, so
/// structural equality is semantic equality. Up to four terms are stored
/// inline, so copying such an expression allocates nothing.
///
/// The arithmetic is checked. An operation whose exact constant or
/// coefficient int64 cannot hold yields an *overflowed* expression, and so
/// does every operation on one. An overflowed expression stands for no
/// value: every consumer declines it (toAffine folds nothing, the
/// entailment engine drops the fact or answers "not provable", placement
/// makes no guess and no merge). Nothing wraps.
class AffineExpr {
public:
  struct Term {
    VarName Var;
    int64_t Coeff = 0;
  };

  AffineExpr() {}
  AffineExpr(const AffineExpr &Other);
  AffineExpr(AffineExpr &&Other) noexcept { *this = std::move(Other); }
  AffineExpr &operator=(const AffineExpr &Other);
  AffineExpr &operator=(AffineExpr &&Other) noexcept;
  ~AffineExpr() { release(); }

  /// The constant expression \p C.
  static AffineExpr constant(int64_t C) {
    AffineExpr E;
    E.Constant = C;
    return E;
  }

  /// The expression consisting of the single variable \p V.
  static AffineExpr variable(VarName V) {
    AffineExpr E;
    E.push(V, 1);
    return E;
  }

  bool isConstant() const { return Size == 0 && !Overflowed; }

  /// The constant value if isConstant(), otherwise nullopt.
  std::optional<int64_t> constantValue() const {
    if (!isConstant())
      return std::nullopt;
    return Constant;
  }

  int64_t constantPart() const { return Constant; }

  /// True if this expression came out of an overflowing operation.
  bool overflowed() const { return Overflowed; }

  /// The terms, in name order.
  std::span<const Term> terms() const { return {data(), Size}; }

  /// The coefficient of \p V, 0 when it does not appear.
  int64_t coeff(VarName V) const;

  /// True if \p V appears with nonzero coefficient.
  bool mentions(VarName V) const { return coeff(V) != 0; }

  AffineExpr operator+(const AffineExpr &Other) const {
    return combine(Other, 1);
  }
  AffineExpr operator-(const AffineExpr &Other) const {
    return combine(Other, -1);
  }
  AffineExpr operator-() const { return *this * -1; }
  AffineExpr operator*(int64_t Scale) const;
  AffineExpr operator+(int64_t C) const;
  AffineExpr operator-(int64_t C) const;

  bool operator==(const AffineExpr &Other) const;
  bool operator!=(const AffineExpr &Other) const { return !(*this == Other); }
  /// Constant first, then the terms as (name, coefficient) pairs.
  bool operator<(const AffineExpr &Other) const;

  /// A hash consistent with ==.
  size_t hash() const;

  /// Appends Coeff * V. \p V must sort after every variable already held
  /// and \p Coeff must be nonzero: this builds an expression term by term
  /// in name order.
  void appendTerm(VarName V, int64_t Coeff) {
    assert(Coeff != 0 && (Size == 0 || data()[Size - 1].Var < V) &&
           "terms must be appended in name order");
    push(V, Coeff);
  }

  /// Replaces every occurrence of \p V by \p Replacement.
  AffineExpr substitute(VarName V, const AffineExpr &Replacement) const;

  /// Renames variable \p From to \p To (used by the [RENAME] rule).
  AffineExpr rename(VarName From, VarName To) const {
    return substitute(From, AffineExpr::variable(To));
  }

  /// Renders e.g. "i + 2*j - 1" or "0".
  std::string str() const;

private:
  static constexpr uint32_t kInline = 4;

  int64_t Constant = 0;
  uint32_t Size = 0;
  /// kInline while the terms are inline, else the heap block's length.
  uint32_t Capacity = kInline;
  bool Overflowed = false;
  union {
    Term Inline[kInline];
    Term *Heap;
  };

  bool onHeap() const { return Capacity > kInline; }
  Term *data() { return onHeap() ? Heap : Inline; }
  const Term *data() const { return onHeap() ? Heap : Inline; }
  /// Frees the heap block, if any; the terms must be replaced next.
  void release() {
    if (onHeap())
      std::allocator<Term>().deallocate(Heap, Capacity);
  }

  /// Appends a term after every term already held (name order).
  void push(VarName V, int64_t Coeff) {
    if (Size == Capacity)
      grow();
    data()[Size++] = {V, Coeff};
  }
  void grow();

  /// The exact *this + Other * Scale, or an overflowed expression.
  AffineExpr combine(const AffineExpr &Other, int64_t Scale) const;

  static AffineExpr overflow() {
    AffineExpr E;
    E.Overflowed = true;
    return E;
  }
};

/// A strided range with affine bounds: Begin..End : Stride, denoting
/// {Begin + i*Stride : Begin <= Begin + i*Stride < End}. Stride is a
/// positive literal (the paper allows expression strides but its analysis
/// and coalescer only ever produce literal strides).
struct SymbolicRange {
  AffineExpr Begin;
  AffineExpr End;
  int64_t Stride = 1;

  SymbolicRange() = default;
  SymbolicRange(AffineExpr B, AffineExpr E, int64_t K = 1)
      : Begin(std::move(B)), End(std::move(E)), Stride(K) {}

  /// The singleton range covering exactly index \p I.
  static SymbolicRange singleton(const AffineExpr &I) {
    return SymbolicRange(I, I + 1, 1);
  }

  bool isSingleton() const { return Stride == 1 && End == Begin + 1; }

  /// True if a bound came out of an overflowing operation.
  bool overflowed() const { return Begin.overflowed() || End.overflowed(); }

  bool mentions(VarName V) const {
    return Begin.mentions(V) || End.mentions(V);
  }

  SymbolicRange substitute(VarName V, const AffineExpr &Replacement) const {
    return SymbolicRange(Begin.substitute(V, Replacement),
                         End.substitute(V, Replacement), Stride);
  }

  bool operator==(const SymbolicRange &Other) const {
    return Stride == Other.Stride && Begin == Other.Begin &&
           End == Other.End;
  }
  bool operator<(const SymbolicRange &Other) const {
    if (!(Begin == Other.Begin))
      return Begin < Other.Begin;
    if (!(End == Other.End))
      return End < Other.End;
    return Stride < Other.Stride;
  }

  std::string str() const;
};

} // namespace bigfoot

template <> struct std::hash<bigfoot::AffineExpr> {
  size_t operator()(const bigfoot::AffineExpr &E) const { return E.hash(); }
};

#endif // BIGFOOT_SUPPORT_AFFINEEXPR_H
