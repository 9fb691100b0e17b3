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
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_SUPPORT_AFFINEEXPR_H
#define BIGFOOT_SUPPORT_AFFINEEXPR_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace bigfoot {

/// An affine integer expression: sum of Coeff * Var terms plus a constant.
/// The term map never stores zero coefficients, so structural equality is
/// semantic equality.
class AffineExpr {
public:
  AffineExpr() : Constant(0) {}

  /// The constant expression \p C.
  static AffineExpr constant(int64_t C) {
    AffineExpr E;
    E.Constant = C;
    return E;
  }

  /// The expression consisting of the single variable \p Name.
  static AffineExpr variable(const std::string &Name) {
    AffineExpr E;
    E.Terms[Name] = 1;
    return E;
  }

  bool isConstant() const { return Terms.empty(); }

  /// The constant value if isConstant(), otherwise nullopt.
  std::optional<int64_t> constantValue() const {
    if (!isConstant())
      return std::nullopt;
    return Constant;
  }

  int64_t constantPart() const { return Constant; }
  const std::map<std::string, int64_t> &terms() const { return Terms; }

  /// True if \p Name appears with nonzero coefficient.
  bool mentions(const std::string &Name) const {
    return Terms.count(Name) != 0;
  }

  /// Variables appearing in the expression, in map order.
  std::vector<std::string> variables() const {
    std::vector<std::string> Out;
    Out.reserve(Terms.size());
    for (const auto &[Name, Coeff] : Terms)
      Out.push_back(Name);
    return Out;
  }

  AffineExpr operator+(const AffineExpr &Other) const;
  AffineExpr operator-(const AffineExpr &Other) const;
  AffineExpr operator-() const;
  AffineExpr operator*(int64_t Scale) const;
  AffineExpr operator+(int64_t C) const {
    return *this + AffineExpr::constant(C);
  }
  AffineExpr operator-(int64_t C) const {
    return *this - AffineExpr::constant(C);
  }

  /// Checked forms of +, - and scaling, for constant folding: nullopt
  /// when the constant or a coefficient would overflow int64.
  std::optional<AffineExpr> checkedAdd(const AffineExpr &Other) const {
    return checkedCombine(Other, /*Subtract=*/false);
  }
  std::optional<AffineExpr> checkedSub(const AffineExpr &Other) const {
    return checkedCombine(Other, /*Subtract=*/true);
  }
  std::optional<AffineExpr> checkedScale(int64_t Scale) const;

  bool operator==(const AffineExpr &Other) const {
    return Constant == Other.Constant && Terms == Other.Terms;
  }
  bool operator!=(const AffineExpr &Other) const { return !(*this == Other); }
  bool operator<(const AffineExpr &Other) const {
    if (Constant != Other.Constant)
      return Constant < Other.Constant;
    return Terms < Other.Terms;
  }

  /// Replaces every occurrence of \p Name by \p Replacement.
  AffineExpr substitute(const std::string &Name,
                        const AffineExpr &Replacement) const;

  /// Renames variable \p From to \p To (used by the [RENAME] rule).
  AffineExpr rename(const std::string &From, const std::string &To) const {
    return substitute(From, AffineExpr::variable(To));
  }

  /// Renders e.g. "i + 2*j - 1" or "0".
  std::string str() const;

private:
  std::map<std::string, int64_t> Terms;
  int64_t Constant;

  std::optional<AffineExpr> checkedCombine(const AffineExpr &Other,
                                           bool Subtract) const;

  void addTerm(const std::string &Name, int64_t Coeff) {
    int64_t &Slot = Terms[Name];
    Slot += Coeff;
    if (Slot == 0)
      Terms.erase(Name);
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

  bool mentions(const std::string &Name) const {
    return Begin.mentions(Name) || End.mentions(Name);
  }

  SymbolicRange substitute(const std::string &Name,
                           const AffineExpr &Replacement) const {
    return SymbolicRange(Begin.substitute(Name, Replacement),
                         End.substitute(Name, Replacement), Stride);
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

#endif // BIGFOOT_SUPPORT_AFFINEEXPR_H
