//===- Expr.cpp - BFJ expression AST ---------------------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "bfj/Expr.h"

#include <cstdint>
#include <sstream>

using namespace bigfoot;

bool bigfoot::isComparison(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
  case BinaryOp::Eq:
  case BinaryOp::Ne:
    return true;
  default:
    return false;
  }
}

const char *bigfoot::binaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Div:
    return "/";
  case BinaryOp::Mod:
    return "%";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::And:
    return "&&";
  case BinaryOp::Or:
    return "||";
  }
  return "?";
}

static void printExpr(const Expr *E, std::ostringstream &OS) {
  switch (E->kind()) {
  case ExprKind::IntLit:
    OS << cast<IntLit>(E)->value();
    return;
  case ExprKind::BoolLit:
    OS << (cast<BoolLit>(E)->value() ? "true" : "false");
    return;
  case ExprKind::NullLit:
    OS << "null";
    return;
  case ExprKind::VarRef:
    OS << cast<VarRef>(E)->name();
    return;
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    OS << (U->op() == UnaryOp::Neg ? "-" : "!");
    OS << "(";
    printExpr(U->operand(), OS);
    OS << ")";
    return;
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    OS << "(";
    printExpr(B->lhs(), OS);
    OS << " " << binaryOpSpelling(B->op()) << " ";
    printExpr(B->rhs(), OS);
    OS << ")";
    return;
  }
  }
}

std::string Expr::str() const {
  std::ostringstream OS;
  printExpr(this, OS);
  return OS.str();
}

namespace {
/// The one walk over an expression's variable occurrences, left to right;
/// ExprT is Expr or const Expr, and \p Visit gets each name as mutable
/// only for Expr.
template <typename ExprT, typename Fn> void walkVars(ExprT *E, Fn &Visit) {
  switch (E->kind()) {
  case ExprKind::IntLit:
  case ExprKind::BoolLit:
  case ExprKind::NullLit:
    return;
  case ExprKind::VarRef:
    Visit(cast<VarRef>(E)->name());
    return;
  case ExprKind::Unary:
    walkVars(cast<UnaryExpr>(E)->operand(), Visit);
    return;
  case ExprKind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    walkVars(B->lhs(), Visit);
    walkVars(B->rhs(), Visit);
    return;
  }
  }
}
} // namespace

void Expr::forEachVar(const VarVisitor &Visit) const {
  walkVars(this, Visit);
}

void Expr::renameVar(VarName From, VarName To) {
  auto Rename = [From, To](VarName &Name) {
    if (Name == From)
      Name = To;
  };
  walkVars(this, Rename);
}

namespace {

/// The affine form of \p E, possibly overflowed; nullopt if not linear.
std::optional<AffineExpr> affineOf(const Expr *E) {
  switch (E->kind()) {
  case ExprKind::IntLit:
    return AffineExpr::constant(cast<IntLit>(E)->value());
  case ExprKind::VarRef:
    return AffineExpr::variable(cast<VarRef>(E)->name());
  case ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    if (U->op() != UnaryOp::Neg)
      return std::nullopt;
    std::optional<AffineExpr> Inner = affineOf(U->operand());
    if (!Inner)
      return std::nullopt;
    return -*Inner;
  }
  case ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    std::optional<AffineExpr> L = affineOf(B->lhs());
    std::optional<AffineExpr> R = affineOf(B->rhs());
    switch (B->op()) {
    case BinaryOp::Add:
      if (L && R)
        return *L + *R;
      return std::nullopt;
    case BinaryOp::Sub:
      if (L && R)
        return *L - *R;
      return std::nullopt;
    case BinaryOp::Mul:
      // Linear only: one side must be constant.
      if (L && R) {
        if (auto C = L->constantValue())
          return *R * *C;
        if (auto C = R->constantValue())
          return *L * *C;
      }
      return std::nullopt;
    case BinaryOp::Div: {
      // Constant folding only, and never of INT64_MIN / -1.
      if (L && R) {
        auto CL = L->constantValue();
        auto CR = R->constantValue();
        if (CL && CR && *CR != 0 && !(*CR == -1 && *CL == INT64_MIN))
          return AffineExpr::constant(*CL / *CR);
      }
      return std::nullopt;
    }
    default:
      return std::nullopt;
    }
  }
  default:
    return std::nullopt;
  }
}

} // namespace

std::optional<AffineExpr> bigfoot::toAffine(const Expr *E) {
  // A fold whose constant or coefficient int64 cannot hold is declined:
  // declining only drops a fact.
  std::optional<AffineExpr> A = affineOf(E);
  if (!A || A->overflowed())
    return std::nullopt;
  return A;
}

std::unique_ptr<Expr> bigfoot::intLit(int64_t V) {
  return std::make_unique<IntLit>(V);
}
std::unique_ptr<Expr> bigfoot::boolLit(bool V) {
  return std::make_unique<BoolLit>(V);
}
std::unique_ptr<Expr> bigfoot::nullLit() { return std::make_unique<NullLit>(); }
std::unique_ptr<Expr> bigfoot::var(VarName Name) {
  return std::make_unique<VarRef>(Name);
}
std::unique_ptr<Expr> bigfoot::unary(UnaryOp Op,
                                     std::unique_ptr<Expr> Operand) {
  return std::make_unique<UnaryExpr>(Op, std::move(Operand));
}
std::unique_ptr<Expr> bigfoot::binary(BinaryOp Op, std::unique_ptr<Expr> LHS,
                                      std::unique_ptr<Expr> RHS) {
  return std::make_unique<BinaryExpr>(Op, std::move(LHS), std::move(RHS));
}
std::unique_ptr<Expr> bigfoot::add(std::unique_ptr<Expr> L,
                                   std::unique_ptr<Expr> R) {
  return binary(BinaryOp::Add, std::move(L), std::move(R));
}
std::unique_ptr<Expr> bigfoot::sub(std::unique_ptr<Expr> L,
                                   std::unique_ptr<Expr> R) {
  return binary(BinaryOp::Sub, std::move(L), std::move(R));
}
std::unique_ptr<Expr> bigfoot::lt(std::unique_ptr<Expr> L,
                                  std::unique_ptr<Expr> R) {
  return binary(BinaryOp::Lt, std::move(L), std::move(R));
}
