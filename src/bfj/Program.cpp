//===- Program.cpp - BFJ programs, classes, and methods --------------------===//
//
// Part of the BigFoot reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//

#include "bfj/Program.h"

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
  Out->Symbols = Symbols;
  return Out;
}

void Program::internSymbols() {
  Symbols = SymbolTable();
  // The declarations' names are strings; the statements' are handles.
  auto InternName = [this](const std::string &Name) { Symbols.intern(Name); };
  const VarVisitor Intern = [this](VarName V) { Symbols.intern(V.name()); };
  // Names every frame carries, interned first so they always exist.
  for (const char *Name : {"$g", "this", "_"})
    InternName(Name);
  // Class fields next: FieldIds stay dense and small (they must fit the
  // LocId packing), and their order is the declaration order.
  for (const auto &C : Classes) {
    for (const std::string &F : C->Fields)
      InternName(F);
    for (const std::string &F : C->VolatileFields)
      InternName(F);
  }
  for (const auto &C : Classes)
    for (const auto &M : C->Methods) {
      for (const std::string &P : M->Params)
        InternName(P);
      if (!M->ReturnVar.empty())
        InternName(M->ReturnVar);
    }
  // Then each statement's names in the order it reads them, a field name
  // right after the variable that holds its object (x = y.f interns x, y,
  // f; y.f = e interns y, f, then e's variables; a check path its
  // designator, fields, then bound variables). Trace headers serialize
  // the table, so event_streams.golden pins this order.
  forEachStmt([&Intern](const Stmt *S) {
    if (const auto *Check = dyn_cast<CheckStmt>(S)) {
      for (const Path &P : Check->paths()) {
        Intern(P.Designator);
        for (VarName F : P.Fields)
          Intern(F);
        forEachVar(P, Intern);
      }
      return;
    }
    if (const auto *Wr = dyn_cast<FieldWriteStmt>(S)) {
      Intern(Wr->object());
      Intern(Wr->field());
    }
    forEachVar(S, Intern);
    if (const auto *Rd = dyn_cast<FieldReadStmt>(S))
      Intern(Rd->field());
  });
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
