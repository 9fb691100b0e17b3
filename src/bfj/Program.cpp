//===- Program.cpp - BFJ programs, classes, and methods --------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "bfj/Program.h"

#include <cassert>

using namespace bigfoot;

std::unique_ptr<MethodDecl> MethodDecl::clone() const {
  auto Out = std::make_unique<MethodDecl>();
  Out->Name = Name;
  Out->Params = Params;
  Out->Body = Body->clone();
  Out->ReturnVar = ReturnVar;
  return Out;
}

std::unique_ptr<ClassDecl> ClassDecl::clone() const {
  auto Out = std::make_unique<ClassDecl>();
  Out->Name = Name;
  Out->Fields = Fields;
  Out->VolatileFields = VolatileFields;
  for (const auto &M : Methods)
    Out->Methods.push_back(M->clone());
  return Out;
}

std::vector<const MethodDecl *>
Program::findMethodsNamed(const std::string &Name) const {
  std::vector<const MethodDecl *> Out;
  for (const auto &C : Classes)
    if (const MethodDecl *M = C->findMethod(Name))
      Out.push_back(M);
  return Out;
}

bool Program::isFieldVolatileAnywhere(const std::string &Field) const {
  for (const auto &C : Classes)
    if (C->isVolatile(Field))
      return true;
  return false;
}

void bigfoot::walkStmt(Stmt *S, const std::function<void(Stmt *)> &Fn) {
  Fn(S);
  switch (S->kind()) {
  case StmtKind::Block:
    for (auto &Child : cast<BlockStmt>(S)->stmts())
      walkStmt(Child.get(), Fn);
    return;
  case StmtKind::If: {
    auto *If = cast<IfStmt>(S);
    walkStmt(If->thenStmt(), Fn);
    walkStmt(If->elseStmt(), Fn);
    return;
  }
  case StmtKind::Loop: {
    auto *Loop = cast<LoopStmt>(S);
    walkStmt(Loop->preBody(), Fn);
    walkStmt(Loop->postBody(), Fn);
    return;
  }
  default:
    return;
  }
}

void bigfoot::walkStmt(const Stmt *S,
                       const std::function<void(const Stmt *)> &Fn) {
  walkStmt(const_cast<Stmt *>(S), [&Fn](Stmt *Child) {
    Fn(static_cast<const Stmt *>(Child));
  });
}

unsigned Program::numberStatements() {
  unsigned Next = 1;
  forEachStmt([&Next](Stmt *S) { S->setId(Next++); });
  return Next - 1;
}

std::unique_ptr<Program> Program::clone() const {
  auto Out = std::make_unique<Program>();
  for (const auto &C : Classes)
    Out->Classes.push_back(C->clone());
  for (const auto &T : Threads)
    Out->Threads.push_back(T->clone());
  // The copy's sym caches are freshly default-constructed (clone() builds
  // new nodes); leave it un-interned so the first use re-interns.
  return Out;
}

namespace {

/// Sets VarRef::Sym throughout an expression tree.
void internExpr(const Expr *E, SymbolTable &Syms) {
  if (!E)
    return;
  switch (E->kind()) {
  case ExprKind::VarRef:
    cast<VarRef>(E)->Sym = Syms.intern(cast<VarRef>(E)->name());
    return;
  case ExprKind::Unary:
    internExpr(cast<UnaryExpr>(E)->operand(), Syms);
    return;
  case ExprKind::Binary:
    internExpr(cast<BinaryExpr>(E)->lhs(), Syms);
    internExpr(cast<BinaryExpr>(E)->rhs(), Syms);
    return;
  default:
    return;
  }
}

Path::CompiledBound compileBound(const AffineExpr &E, SymbolTable &Syms) {
  // An overflowed bound has no terms and a zero constant: compiling it
  // would silently check nothing.
  assert(!E.overflowed() && "compiling an overflowed check bound");
  Path::CompiledBound Out;
  Out.Constant = E.constantPart();
  Out.Terms.clear();
  for (const auto &[Var, Coeff] : E.terms())
    Out.Terms.emplace_back(Syms.intern(Var.name()), Coeff);
  return Out;
}

/// kNoSym for names the VM treats as "no destination".
SymId internTarget(const std::string &Name, SymbolTable &Syms) {
  if (Name.empty() || Name == "_")
    return kNoSym;
  return Syms.intern(Name);
}

} // namespace

void Program::internSymbols() {
  Symbols = SymbolTable();
  // Names every frame carries, interned first so they always exist.
  Symbols.intern("$g");
  Symbols.intern("this");
  Symbols.intern("_");
  // Class fields next: FieldIds stay dense and small (they must fit the
  // LocId packing), and their order is the declaration order.
  for (const auto &C : Classes) {
    for (const std::string &F : C->Fields)
      Symbols.intern(F);
    for (const std::string &F : C->VolatileFields)
      Symbols.intern(F);
  }
  for (const auto &C : Classes)
    for (const auto &M : C->Methods) {
      M->ParamSyms.clear();
      for (const std::string &P : M->Params)
        M->ParamSyms.push_back(Symbols.intern(P));
      M->ReturnSym = internTarget(M->ReturnVar, Symbols);
    }

  forEachStmt([this](Stmt *S) {
    SymbolTable &Syms = Symbols;
    switch (S->kind()) {
    case StmtKind::If:
      internExpr(cast<IfStmt>(S)->cond(), Syms);
      return;
    case StmtKind::Loop:
      internExpr(cast<LoopStmt>(S)->exitCond(), Syms);
      return;
    case StmtKind::Assign: {
      auto *A = cast<AssignStmt>(S);
      A->TargetSym = Syms.intern(A->target());
      internExpr(A->value(), Syms);
      return;
    }
    case StmtKind::Rename: {
      auto *R = cast<RenameStmt>(S);
      R->TargetSym = Syms.intern(R->target());
      R->SourceSym = Syms.intern(R->source());
      return;
    }
    case StmtKind::Acquire:
      cast<AcquireStmt>(S)->LockSym =
          Syms.intern(cast<AcquireStmt>(S)->lockVar());
      return;
    case StmtKind::Release:
      cast<ReleaseStmt>(S)->LockSym =
          Syms.intern(cast<ReleaseStmt>(S)->lockVar());
      return;
    case StmtKind::New: {
      auto *N = cast<NewStmt>(S);
      N->TargetSym = Syms.intern(N->target());
      N->ClassCache = findClass(N->className());
      return;
    }
    case StmtKind::NewArray: {
      auto *N = cast<NewArrayStmt>(S);
      N->TargetSym = Syms.intern(N->target());
      internExpr(N->size(), Syms);
      return;
    }
    case StmtKind::FieldRead: {
      auto *Rd = cast<FieldReadStmt>(S);
      Rd->TargetSym = Syms.intern(Rd->target());
      Rd->ObjectSym = Syms.intern(Rd->object());
      Rd->FieldSym = Syms.intern(Rd->field());
      return;
    }
    case StmtKind::FieldWrite: {
      auto *Wr = cast<FieldWriteStmt>(S);
      Wr->ObjectSym = Syms.intern(Wr->object());
      Wr->FieldSym = Syms.intern(Wr->field());
      internExpr(Wr->value(), Syms);
      return;
    }
    case StmtKind::ArrayRead: {
      auto *Rd = cast<ArrayReadStmt>(S);
      Rd->TargetSym = Syms.intern(Rd->target());
      Rd->ArraySym = Syms.intern(Rd->array());
      internExpr(Rd->index(), Syms);
      return;
    }
    case StmtKind::ArrayWrite: {
      auto *Wr = cast<ArrayWriteStmt>(S);
      Wr->ArraySym = Syms.intern(Wr->array());
      internExpr(Wr->index(), Syms);
      internExpr(Wr->value(), Syms);
      return;
    }
    case StmtKind::ArrayLen: {
      auto *L = cast<ArrayLenStmt>(S);
      L->TargetSym = Syms.intern(L->target());
      L->ArraySym = Syms.intern(L->array());
      return;
    }
    case StmtKind::Call: {
      auto *C = cast<CallStmt>(S);
      C->TargetSym = internTarget(C->target(), Syms);
      C->ReceiverSym = Syms.intern(C->receiver());
      for (const auto &Arg : C->args())
        internExpr(Arg.get(), Syms);
      return;
    }
    case StmtKind::Fork: {
      auto *Fk = cast<ForkStmt>(S);
      Fk->TargetSym = internTarget(Fk->target(), Syms);
      Fk->ReceiverSym = Syms.intern(Fk->receiver());
      for (const auto &Arg : Fk->args())
        internExpr(Arg.get(), Syms);
      return;
    }
    case StmtKind::Join:
      cast<JoinStmt>(S)->HandleSym =
          Syms.intern(cast<JoinStmt>(S)->handle());
      return;
    case StmtKind::NewBarrier: {
      auto *N = cast<NewBarrierStmt>(S);
      N->TargetSym = Syms.intern(N->target());
      internExpr(N->parties(), Syms);
      return;
    }
    case StmtKind::Await:
      cast<AwaitStmt>(S)->BarrierSym =
          Syms.intern(cast<AwaitStmt>(S)->barrierVar());
      return;
    case StmtKind::Check:
      for (Path &P : cast<CheckStmt>(S)->paths()) {
        P.DesignatorSym = Syms.intern(P.Designator);
        P.FieldSyms.clear();
        for (const std::string &F : P.Fields)
          P.FieldSyms.push_back(Syms.intern(F));
        if (P.isArray()) {
          P.BeginC = compileBound(P.Range.Begin, Syms);
          P.EndC = compileBound(P.Range.End, Syms);
        }
      }
      return;
    case StmtKind::Print:
      internExpr(cast<PrintStmt>(S)->value(), Syms);
      return;
    case StmtKind::AssertStmt:
      internExpr(cast<AssertStmtNode>(S)->cond(), Syms);
      return;
    default:
      return;
    }
  });

  VolatileBySym.assign(Symbols.size(), 0);
  for (const auto &C : Classes)
    for (const std::string &F : C->VolatileFields)
      VolatileBySym[*Symbols.lookup(F)] = 1;
  Interned = true;
}

void Program::forEachStmt(const std::function<void(Stmt *)> &Fn) {
  forEachBody([&Fn](Stmt *Body) { walkStmt(Body, Fn); });
}

void Program::forEachStmt(const std::function<void(const Stmt *)> &Fn) const {
  auto *Self = const_cast<Program *>(this);
  Self->forEachBody([&Fn](Stmt *Body) {
    walkStmt(Body, [&Fn](Stmt *S) { Fn(static_cast<const Stmt *>(S)); });
  });
}

void Program::forEachBody(const std::function<void(Stmt *)> &Fn) {
  for (auto &C : Classes)
    for (auto &M : C->Methods)
      Fn(M->Body.get());
  for (auto &T : Threads)
    Fn(T.get());
}

namespace {
/// Collects validation problems for one statement.
class Validator {
public:
  Validator(const Program &P, std::vector<std::string> &Problems)
      : P(P), Problems(Problems) {}

  void checkBody(const std::string &Where, const Stmt *Body) {
    walkStmt(Body, [this, &Where](const Stmt *S) { checkStmt(Where, S); });
  }

private:
  const Program &P;
  std::vector<std::string> &Problems;

  void problem(const std::string &Where, const std::string &What) {
    Problems.push_back(Where + ": " + What);
  }

  void requireAffine(const std::string &Where, const Expr *Index) {
    std::optional<AffineExpr> I = toAffine(Index);
    if (!I)
      problem(Where, "array index '" + Index->str() +
                         "' is not affine; hoist it into a local first");
    else if (SymbolicRange::singleton(*I).overflowed())
      problem(Where, "array index '" + Index->str() +
                         "' has no int64 end bound (index + 1 overflows)");
  }

  void checkStmt(const std::string &Where, const Stmt *S) {
    switch (S->kind()) {
    case StmtKind::New: {
      const auto *New = cast<NewStmt>(S);
      if (!P.findClass(New->className()))
        problem(Where, "unknown class '" + New->className() + "'");
      return;
    }
    case StmtKind::ArrayRead:
      requireAffine(Where, cast<ArrayReadStmt>(S)->index());
      return;
    case StmtKind::ArrayWrite:
      requireAffine(Where, cast<ArrayWriteStmt>(S)->index());
      return;
    case StmtKind::Call: {
      const auto *Call = cast<CallStmt>(S);
      if (P.findMethodsNamed(Call->method()).empty())
        problem(Where, "no class defines method '" + Call->method() + "'");
      return;
    }
    case StmtKind::Fork: {
      const auto *Fork = cast<ForkStmt>(S);
      if (P.findMethodsNamed(Fork->method()).empty())
        problem(Where, "no class defines method '" + Fork->method() + "'");
      return;
    }
    default:
      return;
    }
  }
};
} // namespace

std::vector<std::string> bigfoot::validateProgram(const Program &P) {
  std::vector<std::string> Problems;
  Validator V(P, Problems);
  for (const auto &C : P.Classes) {
    for (const auto &M : C->Methods)
      V.checkBody(C->Name + "." + M->Name, M->Body.get());
    for (const auto &VolField : C->VolatileFields)
      if (!C->hasField(VolField))
        Problems.push_back(C->Name + ": volatile field '" + VolField +
                           "' is not declared as a field");
  }
  for (size_t I = 0; I < P.Threads.size(); ++I)
    V.checkBody("thread#" + std::to_string(I), P.Threads[I].get());
  if (P.Threads.empty())
    Problems.push_back("program has no threads");
  return Problems;
}
