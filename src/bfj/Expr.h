//===- Expr.h - BFJ expression AST ------------------------------*- C++ -*-===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Side-effect-free BFJ expressions over local variables and literals
/// (Figure 5 of the paper leaves the expression language open; we provide
/// integers, booleans, null, and the usual arithmetic/relational/logical
/// operators). Heap reads are NOT expressions — BFJ is in A-normal form,
/// so every heap access is its own statement. A variable reference holds
/// the interned handle of its name (support/VarName.h), which the parser
/// interns once; toAffine and every pass use the handle as it is.
///
//===----------------------------------------------------------------------===//

#ifndef BIGFOOT_BFJ_EXPR_H
#define BIGFOOT_BFJ_EXPR_H

#include "support/AffineExpr.h"
#include "support/Casting.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

namespace bigfoot {

enum class ExprKind {
  IntLit,
  BoolLit,
  NullLit,
  VarRef,
  Unary,
  Binary,
};

enum class UnaryOp { Neg, Not };

enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  And,
  Or,
};

/// Returns true for Lt/Le/Gt/Ge/Eq/Ne.
bool isComparison(BinaryOp Op);

/// The textual operator symbol, e.g. "+" or "<=".
const char *binaryOpSpelling(BinaryOp Op);

/// Called with each variable a walk over an expression, a statement or a
/// check path visits.
using VarVisitor = std::function<void(VarName Var)>;

/// Base class of all BFJ expressions.
class Expr {
public:
  explicit Expr(ExprKind K) : Kind(K) {}
  virtual ~Expr() = default;

  Expr(const Expr &) = delete;
  Expr &operator=(const Expr &) = delete;

  ExprKind kind() const { return Kind; }

  /// Deep copy.
  virtual std::unique_ptr<Expr> clone() const = 0;

  /// Renders source syntax, fully parenthesized for operators.
  std::string str() const;

  /// Calls \p Visit on every variable occurrence, left to right (all BFJ
  /// variables are locals, so every occurrence is free).
  void forEachVar(const VarVisitor &Visit) const;

  /// Renames every occurrence forEachVar visits of \p From to \p To, in
  /// place, through the same walk.
  void renameVar(VarName From, VarName To);

private:
  const ExprKind Kind;
};

/// Integer literal.
class IntLit : public Expr {
public:
  explicit IntLit(int64_t Value) : Expr(ExprKind::IntLit), Value(Value) {}

  int64_t value() const { return Value; }

  std::unique_ptr<Expr> clone() const override {
    return std::make_unique<IntLit>(Value);
  }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::IntLit; }

private:
  int64_t Value;
};

/// Boolean literal.
class BoolLit : public Expr {
public:
  explicit BoolLit(bool Value) : Expr(ExprKind::BoolLit), Value(Value) {}

  bool value() const { return Value; }

  std::unique_ptr<Expr> clone() const override {
    return std::make_unique<BoolLit>(Value);
  }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::BoolLit; }

private:
  bool Value;
};

/// The null reference literal.
class NullLit : public Expr {
public:
  NullLit() : Expr(ExprKind::NullLit) {}

  std::unique_ptr<Expr> clone() const override {
    return std::make_unique<NullLit>();
  }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::NullLit; }
};

/// Reference to a local variable.
class VarRef : public Expr {
public:
  explicit VarRef(VarName Name) : Expr(ExprKind::VarRef), Name(Name) {}

  VarName name() const { return Name; }
  VarName &name() { return Name; }

  std::unique_ptr<Expr> clone() const override {
    return std::make_unique<VarRef>(Name);
  }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::VarRef; }

private:
  VarName Name;
};

/// Unary negation or logical not.
class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, std::unique_ptr<Expr> Operand)
      : Expr(ExprKind::Unary), Op(Op), Operand(std::move(Operand)) {}

  UnaryOp op() const { return Op; }
  const Expr *operand() const { return Operand.get(); }
  Expr *operand() { return Operand.get(); }

  std::unique_ptr<Expr> clone() const override {
    return std::make_unique<UnaryExpr>(Op, Operand->clone());
  }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Unary; }

private:
  UnaryOp Op;
  std::unique_ptr<Expr> Operand;
};

/// Binary arithmetic / comparison / logical expression.
class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, std::unique_ptr<Expr> LHS,
             std::unique_ptr<Expr> RHS)
      : Expr(ExprKind::Binary), Op(Op), LHS(std::move(LHS)),
        RHS(std::move(RHS)) {}

  BinaryOp op() const { return Op; }
  const Expr *lhs() const { return LHS.get(); }
  const Expr *rhs() const { return RHS.get(); }
  Expr *lhs() { return LHS.get(); }
  Expr *rhs() { return RHS.get(); }

  std::unique_ptr<Expr> clone() const override {
    return std::make_unique<BinaryExpr>(Op, LHS->clone(), RHS->clone());
  }

  static bool classof(const Expr *E) { return E->kind() == ExprKind::Binary; }

private:
  BinaryOp Op;
  std::unique_ptr<Expr> LHS;
  std::unique_ptr<Expr> RHS;
};

/// Converts \p E to an affine expression if it is linear (sums,
/// differences, multiplication by literals); nullopt otherwise. This is
/// how syntactic BFJ expressions enter the entailment engine.
std::optional<AffineExpr> toAffine(const Expr *E);

// Convenience constructors used heavily by workload builders and tests.
std::unique_ptr<Expr> intLit(int64_t V);
std::unique_ptr<Expr> boolLit(bool V);
std::unique_ptr<Expr> nullLit();
std::unique_ptr<Expr> var(VarName Name);
std::unique_ptr<Expr> unary(UnaryOp Op, std::unique_ptr<Expr> Operand);
std::unique_ptr<Expr> binary(BinaryOp Op, std::unique_ptr<Expr> LHS,
                             std::unique_ptr<Expr> RHS);
std::unique_ptr<Expr> add(std::unique_ptr<Expr> L, std::unique_ptr<Expr> R);
std::unique_ptr<Expr> sub(std::unique_ptr<Expr> L, std::unique_ptr<Expr> R);
std::unique_ptr<Expr> lt(std::unique_ptr<Expr> L, std::unique_ptr<Expr> R);

} // namespace bigfoot

#endif // BIGFOOT_BFJ_EXPR_H
