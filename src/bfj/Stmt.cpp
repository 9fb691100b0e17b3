//===- Stmt.cpp - BFJ statement AST ----------------------------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "bfj/Stmt.h"

using namespace bigfoot;

namespace {
/// Copies the statement id onto a freshly cloned node.
StmtPtr withId(StmtPtr S, unsigned Id) {
  S->setId(Id);
  return S;
}

std::vector<std::unique_ptr<Expr>>
cloneExprs(const std::vector<std::unique_ptr<Expr>> &Exprs) {
  std::vector<std::unique_ptr<Expr>> Out;
  Out.reserve(Exprs.size());
  for (const auto &E : Exprs)
    Out.push_back(E->clone());
  return Out;
}
} // namespace

StmtPtr SkipStmt::clone() const {
  return withId(std::make_unique<SkipStmt>(), id());
}

StmtPtr BlockStmt::clone() const {
  std::vector<StmtPtr> Out;
  Out.reserve(Stmts.size());
  for (const auto &S : Stmts)
    Out.push_back(S->clone());
  return withId(std::make_unique<BlockStmt>(std::move(Out)), id());
}

StmtPtr IfStmt::clone() const {
  return withId(std::make_unique<IfStmt>(Cond->clone(), Then->clone(),
                                         Else->clone()),
                id());
}

StmtPtr LoopStmt::clone() const {
  return withId(std::make_unique<LoopStmt>(PreBody->clone(),
                                           ExitCond->clone(),
                                           PostBody->clone()),
                id());
}

StmtPtr AssignStmt::clone() const {
  return withId(std::make_unique<AssignStmt>(Target, Value->clone()), id());
}

StmtPtr RenameStmt::clone() const {
  return withId(std::make_unique<RenameStmt>(Target, Source), id());
}

StmtPtr AcquireStmt::clone() const {
  return withId(std::make_unique<AcquireStmt>(LockVar), id());
}

StmtPtr ReleaseStmt::clone() const {
  return withId(std::make_unique<ReleaseStmt>(LockVar), id());
}

StmtPtr NewStmt::clone() const {
  return withId(std::make_unique<NewStmt>(Target, ClassName), id());
}

StmtPtr NewArrayStmt::clone() const {
  return withId(std::make_unique<NewArrayStmt>(Target, Size->clone()), id());
}

StmtPtr FieldReadStmt::clone() const {
  return withId(std::make_unique<FieldReadStmt>(Target, Object, Field), id());
}

StmtPtr FieldWriteStmt::clone() const {
  return withId(std::make_unique<FieldWriteStmt>(Object, Field,
                                                 Value->clone()),
                id());
}

StmtPtr ArrayReadStmt::clone() const {
  return withId(std::make_unique<ArrayReadStmt>(Target, Array,
                                                Index->clone()),
                id());
}

StmtPtr ArrayWriteStmt::clone() const {
  return withId(std::make_unique<ArrayWriteStmt>(Array, Index->clone(),
                                                 Value->clone()),
                id());
}

StmtPtr ArrayLenStmt::clone() const {
  return withId(std::make_unique<ArrayLenStmt>(Target, Array), id());
}

StmtPtr CallStmt::clone() const {
  return withId(std::make_unique<CallStmt>(Target, Receiver, Method,
                                           cloneExprs(Args)),
                id());
}

StmtPtr CheckStmt::clone() const {
  return withId(std::make_unique<CheckStmt>(Paths), id());
}

StmtPtr ForkStmt::clone() const {
  return withId(std::make_unique<ForkStmt>(Target, Receiver, Method,
                                           cloneExprs(Args)),
                id());
}

StmtPtr JoinStmt::clone() const {
  return withId(std::make_unique<JoinStmt>(Handle), id());
}

StmtPtr NewBarrierStmt::clone() const {
  return withId(std::make_unique<NewBarrierStmt>(Target, Parties->clone()),
                id());
}

StmtPtr AwaitStmt::clone() const {
  return withId(std::make_unique<AwaitStmt>(BarrierVar), id());
}

StmtPtr PrintStmt::clone() const {
  return withId(std::make_unique<PrintStmt>(Value->clone()), id());
}

StmtPtr AssertStmtNode::clone() const {
  return withId(std::make_unique<AssertStmtNode>(Cond->clone()), id());
}

namespace {
/// Call and fork: a discarded result (a null target or "_") is no variable.
template <typename InvokeT, typename Visitor>
void visitInvoke(InvokeT *C, Visitor &V) {
  static const VarName Discarded = VarName::intern("_");
  if (C->target() && C->target() != Discarded)
    V.target(C->target());
  V.name(C->receiver());
  for (auto &Arg : C->args())
    V.expr(*Arg);
}

/// The one list of what each statement kind defines and reads: V.target
/// on the local S assigns, then, in source order, V.name on each variable
/// operand, V.expr on each expression operand (an If, Loop or assert
/// condition too) and V.path on each check path. The statements nested in
/// a Block, If or Loop are not visited. StmtT is Stmt or const Stmt; only
/// Stmt hands out its operands as mutable, and a target is always const.
template <typename StmtT, typename Visitor>
void visitVars(StmtT *S, Visitor &V) {
  switch (S->kind()) {
  case StmtKind::Skip:
  case StmtKind::Block:
    return;
  case StmtKind::If:
    V.expr(*cast<IfStmt>(S)->cond());
    return;
  case StmtKind::Loop:
    V.expr(*cast<LoopStmt>(S)->exitCond());
    return;
  case StmtKind::Assign: {
    auto *A = cast<AssignStmt>(S);
    V.target(A->target());
    V.expr(*A->value());
    return;
  }
  case StmtKind::Rename: {
    auto *R = cast<RenameStmt>(S);
    V.target(R->target());
    V.name(R->source());
    return;
  }
  case StmtKind::Acquire:
    V.name(cast<AcquireStmt>(S)->lockVar());
    return;
  case StmtKind::Release:
    V.name(cast<ReleaseStmt>(S)->lockVar());
    return;
  case StmtKind::New:
    V.target(cast<NewStmt>(S)->target());
    return;
  case StmtKind::NewArray: {
    auto *A = cast<NewArrayStmt>(S);
    V.target(A->target());
    V.expr(*A->size());
    return;
  }
  case StmtKind::FieldRead: {
    auto *F = cast<FieldReadStmt>(S);
    V.target(F->target());
    V.name(F->object());
    return;
  }
  case StmtKind::FieldWrite: {
    auto *F = cast<FieldWriteStmt>(S);
    V.name(F->object());
    V.expr(*F->value());
    return;
  }
  case StmtKind::ArrayRead: {
    auto *A = cast<ArrayReadStmt>(S);
    V.target(A->target());
    V.name(A->array());
    V.expr(*A->index());
    return;
  }
  case StmtKind::ArrayWrite: {
    auto *A = cast<ArrayWriteStmt>(S);
    V.name(A->array());
    V.expr(*A->index());
    V.expr(*A->value());
    return;
  }
  case StmtKind::ArrayLen: {
    auto *A = cast<ArrayLenStmt>(S);
    V.target(A->target());
    V.name(A->array());
    return;
  }
  case StmtKind::Call:
    visitInvoke(cast<CallStmt>(S), V);
    return;
  case StmtKind::Check:
    for (auto &P : cast<CheckStmt>(S)->paths())
      V.path(P);
    return;
  case StmtKind::Fork:
    visitInvoke(cast<ForkStmt>(S), V);
    return;
  case StmtKind::Join:
    V.name(cast<JoinStmt>(S)->handle());
    return;
  case StmtKind::NewBarrier: {
    auto *B = cast<NewBarrierStmt>(S);
    V.target(B->target());
    V.expr(*B->parties());
    return;
  }
  case StmtKind::Await:
    V.name(cast<AwaitStmt>(S)->barrierVar());
    return;
  case StmtKind::Print:
    V.expr(*cast<PrintStmt>(S)->value());
    return;
  case StmtKind::AssertStmt:
    V.expr(*cast<AssertStmtNode>(S)->cond());
    return;
  }
}
} // namespace

VarName bigfoot::definedVar(const Stmt *S) {
  struct {
    VarName Target;
    void target(VarName X) { Target = X; }
    void name(VarName) {}
    void expr(const Expr &) {}
    void path(const Path &) {}
  } Defined;
  visitVars(S, Defined);
  return Defined.Target;
}

void bigfoot::forEachVar(const Stmt *S, const VarVisitor &Visit) {
  struct {
    const VarVisitor &Visit;
    void target(VarName X) { Visit(X); }
    void name(VarName X) { Visit(X); }
    void expr(const Expr &E) { E.forEachVar(Visit); }
    void path(const Path &P) { forEachVar(P, Visit); }
  } All{Visit};
  visitVars(S, All);
}

void bigfoot::renameUses(Stmt *S, VarName From, VarName To) {
  struct {
    VarName From, To;
    void target(VarName) {}
    void name(VarName &X) {
      if (X == From)
        X = To;
    }
    void expr(Expr &E) { E.renameVar(From, To); }
    void path(Path &P) { P = P.rename(From, To); }
  } Uses{From, To};
  visitVars(S, Uses);
}

void bigfoot::forEachVar(const Path &P, const VarVisitor &Visit) {
  Visit(P.Designator);
  if (!P.isArray())
    return;
  for (const AffineExpr *Bound : {&P.Range.Begin, &P.Range.End})
    for (const AffineExpr::Term &T : Bound->terms())
      Visit(T.Var);
}

std::optional<Path> bigfoot::accessPath(const Stmt *S) {
  switch (S->kind()) {
  case StmtKind::FieldRead: {
    const auto *F = cast<FieldReadStmt>(S);
    return Path::field(AccessKind::Read, F->object(), F->field());
  }
  case StmtKind::FieldWrite: {
    const auto *F = cast<FieldWriteStmt>(S);
    return Path::field(AccessKind::Write, F->object(), F->field());
  }
  case StmtKind::ArrayRead: {
    const auto *A = cast<ArrayReadStmt>(S);
    std::optional<AffineExpr> Idx = toAffine(A->index());
    assert(Idx && "validated programs have affine indices");
    return Path::arrayIndex(AccessKind::Read, A->array(), *Idx);
  }
  case StmtKind::ArrayWrite: {
    const auto *A = cast<ArrayWriteStmt>(S);
    std::optional<AffineExpr> Idx = toAffine(A->index());
    assert(Idx && "validated programs have affine indices");
    return Path::arrayIndex(AccessKind::Write, A->array(), *Idx);
  }
  default:
    return std::nullopt;
  }
}
