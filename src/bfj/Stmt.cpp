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
/// A call or fork's result variable; null when the result is discarded.
const std::string *resultVar(const std::string &Target) {
  return Target.empty() || Target == "_" ? nullptr : &Target;
}

void forEachArgVar(const std::vector<std::unique_ptr<Expr>> &Args,
                   const VarVisitor &Visit) {
  for (const auto &Arg : Args)
    Arg->forEachVar(Visit);
}
} // namespace

const std::string *bigfoot::definedVar(const Stmt *S) {
  switch (S->kind()) {
  case StmtKind::Assign:
    return &cast<AssignStmt>(S)->target();
  case StmtKind::Rename:
    return &cast<RenameStmt>(S)->target();
  case StmtKind::New:
    return &cast<NewStmt>(S)->target();
  case StmtKind::NewArray:
    return &cast<NewArrayStmt>(S)->target();
  case StmtKind::NewBarrier:
    return &cast<NewBarrierStmt>(S)->target();
  case StmtKind::FieldRead:
    return &cast<FieldReadStmt>(S)->target();
  case StmtKind::ArrayRead:
    return &cast<ArrayReadStmt>(S)->target();
  case StmtKind::ArrayLen:
    return &cast<ArrayLenStmt>(S)->target();
  case StmtKind::Call:
    return resultVar(cast<CallStmt>(S)->target());
  case StmtKind::Fork:
    return resultVar(cast<ForkStmt>(S)->target());
  default:
    return nullptr;
  }
}

void bigfoot::forEachVar(const Stmt *S, const VarVisitor &Visit) {
  if (const std::string *X = definedVar(S))
    Visit(*X);
  switch (S->kind()) {
  case StmtKind::Skip:
  case StmtKind::Block:
  case StmtKind::New:
    return;
  case StmtKind::If:
    cast<IfStmt>(S)->cond()->forEachVar(Visit);
    return;
  case StmtKind::Loop:
    cast<LoopStmt>(S)->exitCond()->forEachVar(Visit);
    return;
  case StmtKind::Assign:
    cast<AssignStmt>(S)->value()->forEachVar(Visit);
    return;
  case StmtKind::Rename:
    Visit(cast<RenameStmt>(S)->source());
    return;
  case StmtKind::Acquire:
    Visit(cast<AcquireStmt>(S)->lockVar());
    return;
  case StmtKind::Release:
    Visit(cast<ReleaseStmt>(S)->lockVar());
    return;
  case StmtKind::NewArray:
    cast<NewArrayStmt>(S)->size()->forEachVar(Visit);
    return;
  case StmtKind::FieldRead:
    Visit(cast<FieldReadStmt>(S)->object());
    return;
  case StmtKind::FieldWrite: {
    const auto *F = cast<FieldWriteStmt>(S);
    Visit(F->object());
    F->value()->forEachVar(Visit);
    return;
  }
  case StmtKind::ArrayRead: {
    const auto *A = cast<ArrayReadStmt>(S);
    Visit(A->array());
    A->index()->forEachVar(Visit);
    return;
  }
  case StmtKind::ArrayWrite: {
    const auto *A = cast<ArrayWriteStmt>(S);
    Visit(A->array());
    A->index()->forEachVar(Visit);
    A->value()->forEachVar(Visit);
    return;
  }
  case StmtKind::ArrayLen:
    Visit(cast<ArrayLenStmt>(S)->array());
    return;
  case StmtKind::Call: {
    const auto *C = cast<CallStmt>(S);
    Visit(C->receiver());
    forEachArgVar(C->args(), Visit);
    return;
  }
  case StmtKind::Check:
    for (const Path &P : cast<CheckStmt>(S)->paths())
      forEachVar(P, Visit);
    return;
  case StmtKind::Fork: {
    const auto *F = cast<ForkStmt>(S);
    Visit(F->receiver());
    forEachArgVar(F->args(), Visit);
    return;
  }
  case StmtKind::Join:
    Visit(cast<JoinStmt>(S)->handle());
    return;
  case StmtKind::NewBarrier:
    cast<NewBarrierStmt>(S)->parties()->forEachVar(Visit);
    return;
  case StmtKind::Await:
    Visit(cast<AwaitStmt>(S)->barrierVar());
    return;
  case StmtKind::Print:
    cast<PrintStmt>(S)->value()->forEachVar(Visit);
    return;
  case StmtKind::AssertStmt:
    cast<AssertStmtNode>(S)->cond()->forEachVar(Visit);
    return;
  }
}

void bigfoot::forEachVar(const Path &P, const VarVisitor &Visit) {
  Visit(P.Designator);
  if (!P.isArray())
    return;
  for (const AffineExpr *Bound : {&P.Range.Begin, &P.Range.End})
    for (const AffineExpr::Term &T : Bound->terms())
      Visit(T.Var.name());
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
